(* Tests for the PSDER layer: the host-code decoders against the software
   codec, the semantic routines in isolation, the DER expansion, and the
   consistency of the translation templates across their three users
   (dynamic translator, static PSDER generator, trace-driven simulator). *)

module Asm = Uhm_machine.Asm
module H = Uhm_machine.Host_isa
module R = Uhm_machine.Host_isa.Regs
module Machine = Uhm_machine.Machine
module SF = Uhm_machine.Short_format
module Isa = Uhm_dir.Isa
module Program = Uhm_dir.Program
module Stats = Uhm_dir.Static_stats
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Runtime = Uhm_psder.Runtime
module Decode_gen = Uhm_psder.Decode_gen
module Static_gen = Uhm_psder.Static_gen
module Der_gen = Uhm_psder.Der_gen
module Table_image = Uhm_psder.Table_image
module Suite = Uhm_workload.Suite

let check_int = Alcotest.(check int)

(* A small memory map for routine-level tests, so per-case machines stay
   cheap. *)
let small_layout =
  {
    Layout.op_stack_base = 0; op_stack_size = 128;
    ret_stack_base = 128; ret_stack_size = 128;
    data_base = 256; data_size = 1024;
    table_base = 1280; table_size = 32768;
    dtb_buffer_base = 34048; dtb_buffer_size = 64;
    psder_static_base = 34112; psder_static_size = 4096;
    mem_words = 38208;
  }

let fresh_machine program =
  let m =
    Machine.create ~program ~mem_words:small_layout.Layout.mem_words
      ~regions:(Layout.regions Uhm_machine.Timing.paper small_layout) ()
  in
  Machine.set_reg m R.sp small_layout.Layout.op_stack_base;
  Machine.set_reg m R.rsp small_layout.Layout.ret_stack_base;
  Machine.set_reg m R.fp small_layout.Layout.data_base;
  Machine.set_reg m R.dtop (small_layout.Layout.data_base + 16);
  m

let run_to_halt what m =
  match Machine.run m with
  | Machine.Halted -> ()
  | Machine.Trapped msg -> Alcotest.failf "%s trapped: %s" what msg
  | Machine.Out_of_fuel -> Alcotest.failf "%s out of fuel" what
  | Machine.Running -> assert false

(* -- Host decoder = software codec --------------------------------------------- *)

(* Build a machine containing only the decode routine and a one-shot driver;
   decode every instruction of [p] under [kind] and compare the register
   results with [Codec.decode_at]. *)
let check_decoder_equivalence ~what kind (p : Program.t) =
  let encoded = Codec.encode kind p in
  let b = Asm.create () in
  let tables =
    Table_image.create ~base:small_layout.Layout.table_base
      ~capacity:small_layout.Layout.table_size
  in
  let decode = Decode_gen.build b ~tables ~encoded in
  let driver_entry =
    Asm.routine b Asm.Startup (fun () ->
        Asm.call_addr b decode;
        Asm.halt b)
  in
  let program = Asm.finish b in
  let image = Table_image.image tables in
  let contour_map = Program.contour_of_instr p in
  let digram_ctxs = Stats.digram_contexts p in
  Array.iteri
    (fun i _ ->
      let m = fresh_machine program in
      Array.iteri
        (fun k w -> Machine.poke m (small_layout.Layout.table_base + k) w)
        image;
      Machine.set_dir_stream m ~bits:encoded.Codec.bits
        ~mode:Machine.Dir_uncached;
      Machine.set_reg m R.dpc encoded.Codec.offsets.(i);
      Machine.set_reg m R.ctx contour_map.(i);
      Machine.set_reg m R.dctx digram_ctxs.(i);
      Machine.set_pc_long m driver_entry;
      run_to_halt (Printf.sprintf "%s/%s decode of instr %d" what (Kind.name kind) i) m;
      let raw =
        Codec.decode_at encoded ~contour:contour_map.(i)
          ~digram_ctx:digram_ctxs.(i) ~addr:encoded.Codec.offsets.(i)
      in
      let fail fmt =
        Alcotest.failf
          ("%s/%s instr %d (%s): " ^^ fmt)
          what (Kind.name kind) i
          (Isa.to_string p.Program.code.(i))
      in
      if Machine.reg m 8 <> Isa.opcode_to_enum raw.Codec.op then
        fail "opcode %d vs %d" (Machine.reg m 8)
          (Isa.opcode_to_enum raw.Codec.op);
      let check_field name reg expected =
        if Machine.reg m reg <> expected then
          fail "%s field %d vs %d" name (Machine.reg m reg) expected
      in
      (match Isa.shape raw.Codec.op with
      | Isa.Shape_none -> ()
      | Isa.Shape_imm -> check_field "imm" 9 raw.Codec.ra
      | Isa.Shape_var ->
          check_field "level" 9 raw.Codec.ra;
          check_field "offset" 10 raw.Codec.rb
      | Isa.Shape_target -> check_field "target" 9 raw.Codec.ra
      | Isa.Shape_call ->
          check_field "target" 9 raw.Codec.ra;
          check_field "hops" 10 raw.Codec.rb
      | Isa.Shape_enter ->
          check_field "args" 9 raw.Codec.ra;
          check_field "locals" 10 raw.Codec.rb;
          check_field "ctx" 11 raw.Codec.rc);
      if Machine.reg m R.dpc <> raw.Codec.next_addr then
        fail "next addr %d vs %d" (Machine.reg m R.dpc) raw.Codec.next_addr)
    p.Program.code

let test_decoder_equivalence_suite () =
  List.iter
    (fun name ->
      let p = Suite.compile ~fuse:true (Suite.find name) in
      List.iter
        (fun kind -> check_decoder_equivalence ~what:name kind p)
        Kind.all)
    [ "gcd"; "nested_scopes"; "bubble_sort" ]

let prop_decoder_equivalence_random =
  QCheck.Test.make ~name:"host decoder = software codec on random programs"
    ~count:25 Gen_program.valid_program
    (fun ast ->
      let p = Uhm_compiler.Pipeline.compile ~fuse:true ast in
      List.iter
        (fun kind -> check_decoder_equivalence ~what:"random" kind p)
        Kind.all;
      true)

(* -- Semantic routines in isolation --------------------------------------------- *)

let build_runtime () =
  let b = Asm.create () in
  let rt = Runtime.build b ~layout:small_layout in
  (b, rt)

(* Drive one routine: push [stack] (bottom first), call the routine, halt;
   return the machine for inspection. *)
let drive_routine ?(setup = fun _ -> ()) routine stack =
  let b, rt = build_runtime () in
  let entry =
    Asm.routine b Asm.Startup (fun () ->
        Asm.call_addr b (routine rt);
        Asm.halt b)
  in
  ignore entry;
  let program = Asm.finish b in
  let m = fresh_machine program in
  setup m;
  List.iter
    (fun v ->
      let sp = Machine.reg m R.sp in
      Machine.poke m sp v;
      Machine.set_reg m R.sp (sp + 1))
    stack;
  Machine.set_pc_long m entry;
  run_to_halt "routine" m;
  m

let pop_result m =
  let sp = Machine.reg m R.sp - 1 in
  Machine.peek m sp

let test_rt_binops () =
  List.iter
    (fun (op, x, y, expected) ->
      let m =
        drive_routine (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum op)) [ x; y ]
      in
      check_int (Isa.mnemonic op) expected (pop_result m))
    [
      (Isa.Add, 6, 7, 13); (Isa.Sub, 6, 7, -1); (Isa.Mul, 6, 7, 42);
      (Isa.Div, 43, 6, 7); (Isa.Mod, 43, 6, 1); (Isa.Eq, 5, 5, 1);
      (Isa.Ne, 5, 5, 0); (Isa.Lt, 4, 5, 1); (Isa.Le, 5, 5, 1);
      (Isa.Gt, 4, 5, 0); (Isa.Ge, 4, 5, 0); (Isa.And, 3, 0, 0);
      (Isa.And, 3, 9, 1); (Isa.Or, 0, 0, 0); (Isa.Or, 0, 9, 1);
    ]

let test_rt_unops () =
  let m = drive_routine (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Neg)) [ 5 ] in
  check_int "neg" (-5) (pop_result m);
  let m = drive_routine (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Not)) [ 0 ] in
  check_int "not 0" 1 (pop_result m)

let test_rt_load_store () =
  (* store 42 at frame offset 2, then load it back: stack for store is
     [value; hops; offset] *)
  let data = small_layout.Layout.data_base in
  let m =
    drive_routine
      (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Store))
      [ 42; 0; 2 ]
  in
  check_int "stored" 42 (Machine.peek m (data + Isa.frame_header_size + 2));
  let m =
    drive_routine
      ~setup:(fun m -> Machine.poke m (data + Isa.frame_header_size + 1) 77)
      (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Load))
      [ 0; 1 ]
  in
  check_int "loaded" 77 (pop_result m)

let test_rt_static_link_walk () =
  (* two frames: outer at data_base, inner frame at data_base+8 whose
     static link points at the outer; a load with one hop must read the
     outer frame's slot *)
  let data = small_layout.Layout.data_base in
  let m =
    drive_routine
      ~setup:(fun m ->
        Machine.poke m (data + Isa.frame_header_size + 0) 123;
        Machine.poke m (data + 8) data;      (* inner static link *)
        Machine.set_reg m R.fp (data + 8))
      (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Load))
      [ 1; 0 ]
  in
  check_int "one-hop load" 123 (pop_result m)

let test_rt_call_and_ret () =
  (* rt_call builds a frame (stack: [hops; return]); rt_ret_core tears it
     down and leaves the return address in r0 *)
  let data = small_layout.Layout.data_base in
  let m =
    drive_routine (fun rt -> rt.Runtime.rt_call) [ 0; 9999 ]
  in
  let new_fp = Machine.reg m R.fp in
  check_int "frame at former dtop" (data + 16) new_fp;
  check_int "static link" data (Machine.peek m new_fp);
  check_int "dynamic link" data (Machine.peek m (new_fp + 1));
  check_int "return address" 9999 (Machine.peek m (new_fp + 2));
  check_int "dtop advanced" (new_fp + Isa.frame_header_size)
    (Machine.reg m R.dtop)

let test_rt_enter_pops_args () =
  (* enter with 2 args, 1 local: stack [argA; argB; nargs; nlocals; ctx] *)
  let data = small_layout.Layout.data_base in
  let m =
    drive_routine
      (fun rt -> rt.Runtime.sem.(Isa.opcode_to_enum Isa.Enter))
      [ 11; 22; 2; 1; 0 ]
  in
  check_int "first arg" 11 (Machine.peek m (data + Isa.frame_header_size));
  check_int "second arg" 22 (Machine.peek m (data + Isa.frame_header_size + 1));
  check_int "local zeroed" 0 (Machine.peek m (data + Isa.frame_header_size + 2));
  check_int "dtop" (data + Isa.frame_header_size + 3) (Machine.reg m R.dtop)

let test_rt_division_by_zero_traps () =
  let b, rt = build_runtime () in
  let entry =
    Asm.routine b Asm.Startup (fun () ->
        Asm.call_addr b rt.Runtime.sem.(Isa.opcode_to_enum Isa.Div);
        Asm.halt b)
  in
  let m = fresh_machine (Asm.finish b) in
  List.iter
    (fun v ->
      let sp = Machine.reg m R.sp in
      Machine.poke m sp v;
      Machine.set_reg m R.sp (sp + 1))
    [ 5; 0 ];
  Machine.set_pc_long m entry;
  match Machine.run m with
  | Machine.Trapped msg ->
      Alcotest.(check bool) "mentions zero" true
        (Astring_contains.contains msg "zero")
  | _ -> Alcotest.fail "expected division trap"

(* -- Template consistency -------------------------------------------------------- *)

let test_translation_words_match_machine_emission () =
  (* the trace-driven simulator's word counts must equal what the real
     translator emits, program by program *)
  List.iter
    (fun name ->
      let p = Suite.compile (Suite.find name) in
      let encoded = Codec.encode Kind.Packed p in
      let config = Uhm_core.Dtb.paper_config in
      let sim = Uhm_core.Dtb_sim.replay_encoded ~config encoded in
      let machine =
        Uhm_core.Uhm.run_encoded
          ~strategy:(Uhm_core.Uhm.Dtb_strategy config) encoded
      in
      check_int
        (name ^ ": emitted words")
        sim.Uhm_core.Dtb_sim.words_emitted
        (Option.get machine.Uhm_core.Uhm.dtb_emitted_words))
    [ "fact_iter"; "quicksort"; "string_out"; "flat_straightline" ]

let test_static_gen_word_counts () =
  (* Static_gen's layout must place instruction i+1 exactly word_count(i)
     words after instruction i, and all GOTO/CALL addresses must stay in
     range. *)
  let p = Suite.compile ~fuse:true (Suite.find "quicksort") in
  let b = Asm.create () in
  let rt = Runtime.build b ~layout:Layout.default in
  let static = Static_gen.build ~layout:Layout.default ~rt p in
  let base = Layout.default.Layout.psder_static_base in
  let n = Array.length p.Program.code in
  Alcotest.(check bool) "addresses increasing" true
    (Array.for_all
       (fun a -> a >= base && a < base + Array.length static.Static_gen.words)
       static.Static_gen.addr_of_instr);
  check_int "entry is instr 0's address"
    static.Static_gen.addr_of_instr.(p.Program.entry)
    static.Static_gen.entry_addr;
  ignore n

(* -- DER expansion ---------------------------------------------------------------- *)

let test_der_runs_standalone () =
  (* beyond the strategy test: check the generated code size accounting *)
  let p = Suite.compile (Suite.find "fact_iter") in
  let der = Der_gen.build p in
  Alcotest.(check bool) "expansion is larger than the DIR" true
    (der.Der_gen.code_instructions > Program.size_instructions p);
  Alcotest.(check bool) "every DIR instr begins a host sequence" true
    (der.Der_gen.code_instructions >= Program.size_instructions p)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "psder",
    [
      Alcotest.test_case "host decoders = software codec (suite)" `Slow
        test_decoder_equivalence_suite;
      Alcotest.test_case "binop routines" `Quick test_rt_binops;
      Alcotest.test_case "unop routines" `Quick test_rt_unops;
      Alcotest.test_case "load/store routines" `Quick test_rt_load_store;
      Alcotest.test_case "static-link walk" `Quick test_rt_static_link_walk;
      Alcotest.test_case "call builds a frame" `Quick test_rt_call_and_ret;
      Alcotest.test_case "enter pops args and zeroes locals" `Quick
        test_rt_enter_pops_args;
      Alcotest.test_case "division by zero traps in routines" `Quick
        test_rt_division_by_zero_traps;
      Alcotest.test_case "translator emission = template word counts" `Quick
        test_translation_words_match_machine_emission;
      Alcotest.test_case "static PSDER layout" `Quick test_static_gen_word_counts;
      Alcotest.test_case "DER expansion accounting" `Quick test_der_runs_standalone;
      qcheck prop_decoder_equivalence_random;
    ] )
