(* What every workload shares: loading the suites, the timed-round loop,
   the end-to-end arithmetic over op samples, and the metric records. *)

module Uhm = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Kind = Uhm_encoding.Kind
module Machine = Uhm_machine.Machine

(* The SLO bound, in simulated cycles, behind [slo_attainment]. *)
let slo_cycles = 2_000_000

type program = {
  name : string;
  lang : [ `Algol | `Fortran ];
  dir : Uhm_dir.Program.t;
  encoded : Codec.encoded;
  reference : string;  (* output of the front end's tree interpreter *)
  ref_steps : int;  (* DIR steps of the reference DIR interpreter *)
}

let sources () =
  List.map
    (fun e -> (e.Uhm_workload.Suite.name, `Algol, e.Uhm_workload.Suite.source))
    Uhm_workload.Suite.all
  @ List.map
      (fun e -> (e.Uhm_ftn.Suite.name, `Fortran, e.Uhm_ftn.Suite.source))
      Uhm_ftn.Suite.all

(* Parse, compile and encode one program, compute its reference output
   with the independent tree interpreter, and pay the reference DIR
   pre-pass every fresh program owes (so no timed run pays it). *)
let load (name, lang, source) =
  let dir, reference =
    match lang with
    | `Algol ->
        let ast =
          Span.with_span "hlr.parse" (fun () ->
              Uhm_hlr.Check.check_exn (Uhm_hlr.Parser.parse ~name source))
        in
        let dir =
          Span.with_span "compiler.compile" (fun () ->
              Uhm_compiler.Pipeline.compile ~fuse:false ast)
        in
        (dir, Span.with_span "oracle.run" (fun () -> Uhm_hlr.Env_interp.run_output ast))
    | `Fortran ->
        let ast =
          Span.with_span "ftn.parse" (fun () ->
              Uhm_ftn.Check.check_exn (Uhm_ftn.Parser.parse ~name source))
        in
        let dir =
          Span.with_span "compiler.compile" (fun () -> Uhm_ftn.Codegen.compile ast)
        in
        (dir, Span.with_span "oracle.run" (fun () -> Uhm_ftn.Interp.run_output ast))
  in
  let encoded =
    Span.with_span "encoding.encode" (fun () -> Codec.encode Kind.Digram dir)
  in
  let ref_steps =
    Span.with_span "dir.ref" (fun () -> Uhm.dir_steps_memoized dir)
  in
  { name; lang; dir; encoded; reference; ref_steps }

let load_named names =
  let all = sources () in
  List.map
    (fun n -> load (List.find (fun (m, _, _) -> m = n) all))
    names

let load_all () = List.map load (sources ())

(* A seeded permutation (Fisher-Yates over a seeded stream). *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Host time is the process's CPU time (user + system, from getrusage).
   On a virtual machine it leaves out the time the hypervisor gave the
   CPU to someone else, which wall time on a shared host counts as the
   program's own.  Every solo and serve call runs on one domain, so this
   is the time of that call; the wall clock only paces the run. *)
let cpu_s () = Sys.time ()

(* Calibrated host time: [Calib.kernel] runs right before and right
   after every timed call (the run after one call is the run before the
   next), and the call's CPU time is scaled by [Calib.nominal_s] over
   the mean of those two kernel times.  It reads as seconds on a host
   that runs the kernel in [Calib.nominal_s].  A wider window of kernel
   runs tracked the host's swings worse than the two nearest ones. *)
let gauge_all = ref []  (* every kernel time, for the report *)
let gauge_last = ref None  (* the kernel time taken after the last call *)

let gauge_sample () =
  let t0 = cpu_s () in
  ignore (Sys.opaque_identity (Calib.kernel ()));
  let dt = cpu_s () -. t0 in
  gauge_all := dt :: !gauge_all;
  gauge_last := Some dt;
  dt

let time f =
  let before = match !gauge_last with Some g -> g | None -> gauge_sample () in
  let t0 = cpu_s () in
  let v = f () in
  let raw = cpu_s () -. t0 in
  let after = gauge_sample () in
  (v, raw *. Calib.nominal_s /. ((before +. after) /. 2.))

(* Set-up is timed at least 7 times and until the set-ups have taken
   half a second; the median is [setup_s] and the last set-up's state
   feeds the timed phase.  [setups] is how many ran. *)
let setups = ref 0

let timed_setup f =
  let rec go times last =
    let n = List.length times in
    if n >= 7 && List.fold_left ( +. ) 0. times >= 0.5 then begin
      setups := n;
      (Stats.median times, Option.get last)
    end
    else begin
      let st, dt = time f in
      go (dt :: times) (Some st)
    end
  in
  go [] None

(* One timed host call: [key] names it identically in every round,
   [per] is the number of ops it covers, [signature] is everything
   simulated about it (it must repeat exactly). *)
type sample = {
  key : string;
  host_s : float;
  per : int;
  sim_cycles : int;
  dir_instrs : int;
  signature : string;
  attempted : int;
  ok : int;  (* ops served and checked correct *)
  wrong : int;  (* ops whose output or status check failed *)
  rep_bits : int;  (* static + support bits, where one run stands for a
                      program x strategy pair; 0 otherwise *)
}

(* Wall and CPU seconds of the last [rounds] call, for the notes. *)
let timed_phase = ref (0., 0.)

(* Run [round] repeatedly: at least [min_rounds] times, and another
   round only while the last one still fits into [seconds] of wall
   time. *)
let rounds ?(min_rounds = 2) ~seconds round =
  let t0 = Span.now_ns () and c0 = cpu_s () in
  let rec go n acc last =
    let elapsed = Span.seconds_since t0 in
    if n >= min_rounds && elapsed +. last > seconds then begin
      timed_phase := (elapsed, cpu_s () -. c0);
      List.rev acc
    end
    else begin
      let t1 = Span.now_ns () in
      let r = round () in
      go (n + 1) (r :: acc) (Span.seconds_since t1)
    end
  in
  go 0 [] 0.

(* The simulated side of a workload; computed from one round, since the
   repeat check pins it to every other. *)
type exact = {
  cycles_per_dir : float;
  rep_kbits : float;
  sojourn_p50_kcyc : float;
  sojourn_p99_kcyc : float;
  throughput_per_mcyc : float;
  slo_attainment : float;
}

let sum = List.fold_left ( + ) 0
let fsum = List.fold_left ( +. ) 0.

(* The closed-loop reading of the service metrics: one client, serial
   calls, so every run arrives as the previous one retires and its
   sojourn is its own simulated cycle count. *)
let closed_loop_exact ~cycles ~dirs ~rep_bits =
  let kc = List.map (fun c -> float_of_int c /. 1000.) cycles in
  let n = List.length cycles in
  {
    cycles_per_dir = Stats.ratio_int ~part:(sum cycles) ~base:(sum dirs);
    rep_kbits = Stats.ratio_int ~part:(sum rep_bits) ~base:(List.length rep_bits) /. 1000.;
    sojourn_p50_kcyc = Stats.nearest_rank 50. kc;
    sojourn_p99_kcyc = Stats.nearest_rank 99. kc;
    throughput_per_mcyc = Stats.ratio_int ~part:n ~base:(sum cycles) *. 1e6;
    slo_attainment =
      Stats.ratio_int
        ~part:(List.length (List.filter (fun c -> c <= slo_cycles) cycles))
        ~base:n;
  }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  notes : string list;  (* printed on stderr *)
}

(* Mismatches of the exact-repeat check across rounds. *)
let repeat_failures rounds =
  Stats.repeat_mismatches
    (List.map (List.map (fun s -> (s.key, s.signature))) rounds)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Each op of the first round with its median host time over all rounds. *)
let op_medians (rounds : sample list list) =
  let all = List.concat rounds in
  List.map
    (fun s ->
      ( s,
        Stats.median
          (List.filter_map (fun t -> if t.key = s.key then Some t.host_s else None) all) ))
    (List.hd rounds)

(* One pass's host time: the sum over ops of each op's median. *)
let pass_time rounds = fsum (List.map snd (op_medians rounds))

let op_ms (s, host_s) = host_s *. 1000. /. float_of_int (max 1 s.per)

(* The end-to-end metrics from the timed rounds: rates from per-op
   medians, op latency percentiles as windowed percentiles of the per-op
   medians. *)
let end_to_end ~setup_s ~exact ~extra_failures (rounds : sample list list) =
  let first = List.hd rounds in
  let all = List.concat rounds in
  let pass_s = pass_time rounds in
  let ops = sum (List.map (fun s -> s.per) first) in
  let cycles = sum (List.map (fun s -> s.sim_cycles) first) in
  let dirs = sum (List.map (fun s -> s.dir_instrs) first) in
  let op_ms = List.map op_ms (op_medians rounds) in
  let mismatches = repeat_failures rounds in
  let attempted = sum (List.map (fun (s : sample) -> s.attempted) all) in
  let ok = sum (List.map (fun s -> s.ok) all) in
  let wrong = sum (List.map (fun s -> s.wrong) all) in
  let failed = wrong + List.length mismatches + List.length extra_failures in
  let per_s n = Stats.ratio ~part:(float_of_int n) ~base:pass_s in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("pass_s", pass_s, "s");
        ("ops_per_s", per_s ops, "1/s");
        ("sim_cycles_per_s", per_s cycles, "1/s");
        ("dir_instr_per_s", per_s dirs, "1/s");
        ("op_ms_p50", Stats.window_mean ~lo:45. ~hi:55. op_ms, "ms");
        ("op_ms_p90", Stats.window_mean ~lo:85. ~hi:95. op_ms, "ms");
        ("ok_ratio", Stats.ratio_int ~part:ok ~base:attempted, "ratio");
        ("peak_heap_mb", peak_heap_mb (), "MB");
        ("sim_cycles_per_dir", exact.cycles_per_dir, "cycles");
        ("rep_kbits", exact.rep_kbits, "kbit");
        ("sojourn_p50_kcyc", exact.sojourn_p50_kcyc, "kcycles");
        ("sojourn_p99_kcyc", exact.sojourn_p99_kcyc, "kcycles");
        ("throughput_per_mcyc", exact.throughput_per_mcyc, "1/Mcycles");
        ("slo_attainment", exact.slo_attainment, "ratio");
      ];
    notes =
      Printf.sprintf "%d passes; op_ms percentiles over the medians of %d ops; %d ops per pass"
        (List.length rounds) (List.length op_ms) ops
      :: Printf.sprintf "reference kernel: median %.3f ms over %d runs (nominal %.3f ms)"
           (1000. *. Stats.median !gauge_all) (List.length !gauge_all)
           (1000. *. Calib.nominal_s)
      :: Printf.sprintf "timed phase: %.3f s wall, %.3f s CPU; calibrated passes: %s"
           (fst !timed_phase) (snd !timed_phase)
           (String.concat " "
              (List.map (fun r -> Printf.sprintf "%.3f" (fsum (List.map (fun s -> s.host_s) r))) rounds))
      :: List.map (fun k -> "exact-repeat mismatch: " ^ k) mismatches
      @ extra_failures;
  }

(* The per-layer metrics a traced run reports, and the raw sums they are
   derived from. *)
let layer_tbl : (string, float * string) Hashtbl.t = Hashtbl.create 64
let layer name unit v = Hashtbl.replace layer_tbl name (v, unit)
let acc_tbl : (string, float) Hashtbl.t = Hashtbl.create 64
let acc name = Option.value ~default:0. (Hashtbl.find_opt acc_tbl name)
let acc_add name v = Hashtbl.replace acc_tbl name (acc name +. v)

(* Set-up layers, per set-up, from the spans of all [setups] set-ups. *)
let setup_layers programs =
  let per_setup name = Span.total name /. float_of_int !setups in
  layer "hlr.parse_s" "s" (per_setup "hlr.parse");
  layer "ftn.parse_s" "s" (per_setup "ftn.parse");
  layer "compiler.compile_s" "s" (per_setup "compiler.compile");
  layer "encoding.encode_s" "s" (per_setup "encoding.encode");
  layer "dir.ref_s" "s" (per_setup "dir.ref");
  let instrs =
    sum (List.map (fun p -> Uhm_dir.Program.size_instructions p.dir) programs)
  in
  let bits = sum (List.map (fun p -> p.encoded.Codec.size_bits) programs) in
  layer "compiler.dir_instrs" "count" (float_of_int instrs);
  layer "encoding.bits_per_instr" "bit" (Stats.ratio_int ~part:bits ~base:instrs)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* The timed phase of a traced run: half of [seconds] untraced, then
   half traced.  Records the GC activity per traced pass and the tracing
   overhead, comparing the halves' [pass] times. *)
let traced_halves ~seconds ~pass round =
  let half = seconds /. 2. in
  Span.enabled := false;
  let plain = rounds ~min_rounds:1 ~seconds:half (round ~traced:false) in
  Span.enabled := true;
  let mi0, ma0 = gc_counts () in
  let traced = rounds ~min_rounds:1 ~seconds:half (round ~traced:true) in
  let mi1, ma1 = gc_counts () in
  let per n = float_of_int n /. float_of_int (List.length traced) in
  layer "gc.minor_collections" "count" (per (mi1 - mi0));
  layer "host.ref_kernel_ms" "ms" (1000. *. Stats.median !gauge_all);
  layer "gc.major_collections" "count" (per (ma1 - ma0));
  layer "trace.overhead_pct" "%"
    (Stats.overhead_pct ~baseline:(pass plain) ~measured:(pass traced));
  (plain, traced)
