(* Runs one workload of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   runs the workload half untraced and half traced and prints the
   per-layer metrics, writing the spans to DIR/spans-NAME-N.json.  The
   last line of stdout is one JSON object; the exit code is 1 when an
   output, repeat or determinism check failed. *)

let workloads =
  [
    ("solo_dtb", fun ~seed ~seconds ~traced ->
        Solo.run ~variants:(Solo.dtb_variants ()) ~seed ~seconds ~traced);
    ("solo_interp", fun ~seed ~seconds ~traced ->
        Solo.run ~variants:(Solo.interp_variants ()) ~seed ~seconds ~traced);
    ("serve_open", Serve_open.run);
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~traced in
  List.iter prerr_endline o.Common.notes;
  let metrics =
    if traced then
      Hashtbl.fold (fun name (v, unit) acc -> (name, v, unit) :: acc) Common.layer_tbl []
      |> List.sort compare
    else o.Common.metrics
  in
  if traced then
    Span.write
      (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    o.Common.correct o.Common.attempted o.Common.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  exit (if o.Common.correct then 0 else 1)
