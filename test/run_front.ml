(* Front end: bit streams, Huffman coding, the Algol-S and Fortran-S
   compilers, the DIR, encodings, workloads and report rendering. *)
let () =
  Runner.run "uhm-front"
    [
      Test_bitstream.suite;
      Test_huffman.suite;
      Test_hlr.suite;
      Test_dir.suite;
      Test_compiler.suite;
      Test_ftn.suite;
      Test_encoding.suite;
      Test_workload.suite;
      Test_report.suite;
    ]
