(* Frozen goldens for the closed mix, the serve loop and the fault
   machinery.

   Each file under [frozen/] holds one line per run: a few readable
   totals and an MD5 over everything the run reports — for the service,
   the job records, the summary, the buffered trace events and the exact
   per-ASID tallies; for chaos runs also the per-job reports and the
   chaos summary; for fault-campaign cells and closed mixes the program
   reports, the totals and the trace.  The lines were produced by the code these
   tests guard and are compared byte for byte, so any change in cycle
   counts, records, summaries or traces shows up as a mismatch.

   To regenerate after an intended behaviour change, run the suite with
   [UHM_FROZEN_UPDATE] set to the absolute path of [test/frozen]; it
   rewrites the files instead of comparing. *)

module Dtb = Uhm_core.Dtb
module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler
module Mix = Uhm_fault.Mix
module Injector = Uhm_fault.Injector
module Resilient = Uhm_fault.Resilient
module FExp = Uhm_fault.Experiment
module Arrival = Uhm_serve.Arrival
module Serve = Uhm_serve.Serve
module Chaos = Uhm_serve.Chaos

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let small_config =
  { Dtb.sets = 8; assoc = 2; unit_words = 4; overflow_blocks = 16 }

let algol_templates names =
  List.map
    (fun n -> (n, Codec.encode Kind.Huffman (Suite.compile (Suite.find n))))
    names

(* cheap Algol-S programs (0.1 to 0.4 Mcycles solo) for the wide grids *)
let light_templates =
  lazy
    (algol_templates
       [ "fact_iter"; "string_out"; "nested_scopes"; "flat_straightline" ])

let mixed_templates =
  lazy
    (algol_templates [ "fact_iter"; "gcd" ]
    @ List.map
        (fun n ->
          ( n,
            Codec.encode Kind.Huffman
              (Uhm_ftn.Suite.compile (Uhm_ftn.Suite.find n)) ))
        [ "ftn_euclid"; "ftn_fib" ])

(* -- Rendering ---------------------------------------------------------------- *)

let trace_digest t =
  (Trace.recorded t, Trace.dropped t, Trace.events t, Trace.tallies t)

let serve_line label (r : Serve.result) =
  let s = r.Serve.sv_summary in
  Printf.sprintf "%s cycles=%d completed=%d shed=%d events=%d md5=%s" label
    s.Serve.s_total_cycles s.Serve.s_completed s.Serve.s_shed
    (Trace.recorded r.Serve.sv_trace)
    (digest (r.Serve.sv_jobs, s, trace_digest r.Serve.sv_trace))

let chaos_line label (r : Chaos.result) =
  let s = r.Chaos.cv_summary in
  Printf.sprintf "%s failed=%d injected=%d detected=%d retries=%d md5=%s %s"
    label s.Chaos.cs_failed_jobs s.Chaos.cs_injected s.Chaos.cs_detected
    s.Chaos.cs_job_retries
    (digest (r.Chaos.cv_reports, s))
    (serve_line "serve" r.Chaos.cv_serve)

let fault_line label (p : FExp.point) =
  let r = p.FExp.fp_result in
  Printf.sprintf "%s %s@%h %s seed=%d ok=%b cycles=%d base=%d md5=%s" label
    (Injector.class_name p.FExp.fp_class)
    p.FExp.fp_rate
    (Dtb.policy_name p.FExp.fp_policy)
    p.FExp.fp_seed p.FExp.fp_recovered_ok r.Resilient.rr_total_cycles
    p.FExp.fp_baseline_cycles
    (digest
       ( ( p.FExp.fp_overhead,
           p.FExp.fp_injected,
           p.FExp.fp_detected,
           p.FExp.fp_retries,
           p.FExp.fp_rollbacks,
           p.FExp.fp_downgrades ),
         r.Resilient.rr_programs,
         (r.Resilient.rr_switches, r.Resilient.rr_flushes),
         trace_digest r.Resilient.rr_trace ))

let mix_line label (r : Mix.result) =
  Printf.sprintf "%s cycles=%d switches=%d flushes=%d events=%d md5=%s" label
    r.Mix.mr_total_cycles r.Mix.mr_switches r.Mix.mr_flushes
    (Trace.recorded r.Mix.mr_trace)
    (digest
       ( r.Mix.mr_programs,
         ( r.Mix.mr_total_cycles,
           r.Mix.mr_switches,
           r.Mix.mr_flushes,
           r.Mix.mr_hit_ratio,
           r.Mix.mr_evictions ),
         trace_digest r.Mix.mr_trace ))

(* -- Comparison --------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let lines_of file =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> Hashtbl.replace tbl (String.sub l 0 i) l
      | None -> ())
    (read_lines (Filename.concat "frozen" file));
  tbl

(* [check_file file lines] compares freshly computed [lines] (each led by
   a unique label) with the frozen ones, or rewrites the file when
   [UHM_FROZEN_UPDATE] names the source directory. *)
let check_file file lines =
  match Sys.getenv_opt "UHM_FROZEN_UPDATE" with
  | Some dir ->
      let oc = open_out (Filename.concat dir file) in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc
  | None ->
      let frozen = lines_of file in
      List.iter
        (fun l ->
          let label = String.sub l 0 (String.index l ' ') in
          match Hashtbl.find_opt frozen label with
          | Some f -> Alcotest.(check string) label f l
          | None -> Alcotest.failf "%s: no frozen line for %s" file label)
        lines

(* One frozen line of [file], by label: what a directed case checks
   another run against. *)
let frozen_line file label =
  match Hashtbl.find_opt (lines_of file) label with
  | Some l -> l
  | None -> Alcotest.failf "%s: no frozen line for %s" file label

(* -- The serve grid ------------------------------------------------------------ *)

let policies = [ Dtb.Flush_on_switch; Dtb.Tagged; Dtb.Partitioned ]

let schedulers =
  [ ("rr", Scheduler.Round_robin); ("srtf", Scheduler.Shortest_remaining) ]

let quanta = [ 8; 24; 48 ]
let slot_counts = [ 1; 3; 4 ]

let grid_cells =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun (sname, scheduler) ->
          List.concat_map
            (fun quantum ->
              List.map
                (fun slots ->
                  ( Printf.sprintf "%s/%s/q%d/s%d" (Dtb.policy_name policy)
                      sname quantum slots,
                    policy,
                    scheduler,
                    quantum,
                    slots ))
                slot_counts)
            quanta)
        schedulers)
    policies

let grid_arrivals =
  lazy
    (Arrival.generate ~seed:41 ~templates:4 ~jobs:16
       (Arrival.Poisson { rate = 3.0 }))

let serve_cell (_, policy, scheduler, quantum, slots) =
  Serve.run ~scheduler ~policy ~quantum ~config:small_config ~slots
    ~templates:(Lazy.force light_templates)
    ~arrivals:(Lazy.force grid_arrivals) ()

let chaos_cell ~fconfig (_, policy, scheduler, quantum, slots) =
  Chaos.run ~scheduler ~policy ~quantum ~config:small_config ~fconfig ~slots
    ~templates:(Lazy.force light_templates)
    ~arrivals:(Lazy.force grid_arrivals) ()

(* The three directed cases of the plain service: a tagged open run, a
   single flushing slot, and a partitioned SRTF run under a tight
   admission queue with the cold-ASID economy on. *)
type directed = {
  d_label : string;
  d_policy : Dtb.policy;
  d_scheduler : Scheduler.policy;
  d_quantum : int;
  d_slots : int;
  d_seed : int;
  d_jobs : int;
  d_admission : Serve.admission option;
  d_economy : Serve.economy option;
}

let directed =
  [
    {
      d_label = "directed/tagged";
      d_policy = Dtb.Tagged;
      d_scheduler = Scheduler.Round_robin;
      d_quantum = 24;
      d_slots = 3;
      d_seed = 5;
      d_jobs = 120;
      d_admission = None;
      d_economy = None;
    };
    {
      d_label = "directed/flush-one-slot";
      d_policy = Dtb.Flush_on_switch;
      d_scheduler = Scheduler.Round_robin;
      d_quantum = 8;
      d_slots = 1;
      d_seed = 9;
      d_jobs = 80;
      d_admission = None;
      d_economy = None;
    };
    {
      d_label = "directed/admission-economy";
      d_policy = Dtb.Partitioned;
      d_scheduler = Scheduler.Shortest_remaining;
      d_quantum = 48;
      d_slots = 4;
      d_seed = 2;
      d_jobs = 100;
      d_admission = Some { Serve.queue_capacity = 8; shed_above = Some 6 };
      d_economy = Some Serve.default_economy;
    };
  ]

let directed_arrivals d =
  Arrival.generate ~seed:d.d_seed ~templates:4 ~jobs:d.d_jobs
    (Arrival.Poisson { rate = 1500.0 })

let serve_directed d =
  Serve.run ~scheduler:d.d_scheduler ?admission:d.d_admission
    ?economy:d.d_economy ~policy:d.d_policy ~quantum:d.d_quantum
    ~config:small_config ~slots:d.d_slots
    ~templates:(Lazy.force mixed_templates) ~arrivals:(directed_arrivals d) ()

let chaos_directed ~fconfig d =
  Chaos.run ~scheduler:d.d_scheduler ?admission:d.d_admission
    ?economy:d.d_economy ~policy:d.d_policy ~quantum:d.d_quantum
    ~config:small_config ~fconfig ~slots:d.d_slots
    ~templates:(Lazy.force mixed_templates) ~arrivals:(directed_arrivals d) ()

let test_serve_grid () =
  check_file "serve.txt"
    (List.map (fun ((label, _, _, _, _) as c) -> serve_line label (serve_cell c))
       grid_cells
    @ List.map (fun d -> serve_line d.d_label (serve_directed d)) directed)

(* -- Chaos runs ---------------------------------------------------------------- *)

(* The outcome-classification run of the chaos suite: guards off,
   psder-word faults at a bruising rate, a 1 Mcycle deadline and a tiny
   queue at moderate overload. *)
let classification_run () =
  let templates = algol_templates [ "fact_iter"; "string_out" ] in
  let arrivals =
    Arrival.generate ~seed:31 ~templates:2 ~jobs:120
      (Arrival.Poisson { rate = 5.0 })
  in
  let fconfig =
    {
      Chaos.c_fault =
        {
          Resilient.zero with
          Resilient.injector =
            {
              Injector.seed = 1203;
              rates = [ (Injector.Psder_word, 0.004) ];
              explicit = [];
            };
        };
      c_job_retry_limit = 2;
      c_job_backoff = 2048;
      c_deadline = Some 1_000_000;
      c_brownout = None;
    }
  in
  Chaos.run ~fuel:500_000 ~policy:Dtb.Tagged ~quantum:24 ~config:small_config
    ~fconfig
    ~admission:{ Serve.queue_capacity = 4; shed_above = None }
    ~slots:2 ~templates ~arrivals ()

(* Guards and checkpoints on, every fault class at once, one cell per
   sharing policy. *)
let protected_run policy =
  let templates = Lazy.force light_templates in
  let arrivals =
    Arrival.generate ~seed:13 ~templates:4 ~jobs:24
      (Arrival.Poisson { rate = 1200.0 })
  in
  let injector =
    {
      Injector.seed = 13 * 7919;
      rates = List.map (fun c -> (c, 0.001)) Injector.all_classes;
      explicit = [];
    }
  in
  let fconfig =
    {
      Chaos.zero with
      Chaos.c_fault = Resilient.protected ~checkpoint_every:1024 injector;
      c_deadline = Some 2_000_000;
    }
  in
  Chaos.run ~policy ~quantum:24 ~config:small_config ~fconfig ~slots:3
    ~templates ~arrivals ()

(* Detection-driven brownout: a dtb-tag fault storm drives the controller
   to stage 3 and a quarantine. *)
let brownout_run () =
  let templates = algol_templates [ "fact_iter"; "gcd" ] in
  let arrivals =
    Arrival.generate ~seed:17 ~templates:2 ~jobs:30
      (Arrival.Poisson { rate = 2000.0 })
  in
  let fconfig =
    {
      Chaos.zero with
      Chaos.c_fault =
        Resilient.protected
          {
            Injector.seed = 99;
            rates = [ (Injector.Dtb_tag, 0.01) ];
            explicit = [];
          };
      c_brownout =
        Some
          {
            Chaos.default_brownout with
            Chaos.bo_window = 300_000;
            bo_hi_detections = 3;
            bo_hi_wait = max_int;
            bo_hysteresis = 500_000;
            bo_quarantine = 100_000;
          };
    }
  in
  Chaos.run ~policy:Dtb.Tagged ~quantum:24 ~config:small_config ~fconfig
    ~slots:2 ~templates ~arrivals ()

let test_chaos_runs () =
  check_file "chaos.txt"
    ([
       chaos_line "classification" (classification_run ());
       chaos_line "brownout-quarantine" (brownout_run ());
     ]
    @ List.map
        (fun p -> chaos_line ("protected/" ^ Dtb.policy_name p) (protected_run p))
        policies)

(* -- Resilient fault-grid cells ------------------------------------------------ *)

let fault_points () =
  let compile n = (n, Suite.compile (Suite.find n)) in
  let campaign =
    FExp.fault_grid ~domains:1 ~quanta:[ 32 ] ~seed:5 ~kind:Kind.Huffman
      ~classes:Injector.all_classes ~rates:[ 0.; 1e-3; 1e-2 ]
      ~policies:[ Dtb.Tagged; Dtb.Flush_on_switch ]
      ~configs:[ Dtb.paper_config ]
      (List.map compile [ "fact_iter"; "gcd" ])
  in
  let mid_install =
    FExp.fault_grid ~domains:1 ~quanta:[ 64 ] ~seed:1 ~kind:Kind.Huffman
      ~classes:[ Injector.Mem_word ] ~rates:[ 1e-4; 1e-3 ]
      ~policies:[ Dtb.Flush_on_switch; Dtb.Tagged ]
      ~configs:[ Dtb.paper_config ]
      (List.map compile [ "fact_iter"; "gcd"; "flat_straightline" ])
  in
  List.mapi (fun i p -> fault_line (Printf.sprintf "campaign/%02d" i) p) campaign
  @ List.mapi
      (fun i p -> fault_line (Printf.sprintf "mid-install/%02d" i) p)
      mid_install

let test_fault_grid () = check_file "faults.txt" (fault_points ())

(* -- Closed mixes ---------------------------------------------------------------- *)

let mix_programs =
  lazy (algol_templates [ "fact_iter"; "gcd"; "fib_rec" ])

let mix_run ~config (label, policy, scheduler, quantum) =
  mix_line label
    (Mix.run_encoded ~scheduler ~policy ~quantum ~config
       (Lazy.force mix_programs))

let mix_cells =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun (sname, scheduler) ->
          List.map
            (fun (qname, quantum) ->
              ( Printf.sprintf "%s/%s/%s" (Dtb.policy_name policy) sname qname,
                policy,
                scheduler,
                quantum ))
            [ ("q7", 7); ("q32", 32); ("solo", Mix.solo_quantum) ])
        schedulers)
    policies

let test_mix_runs () =
  check_file "mix.txt"
    (List.map (mix_run ~config:small_config) mix_cells
    @ [
        mix_run ~config:Dtb.paper_config
          ("paper/tagged/rr/q32", Dtb.Tagged, Scheduler.Round_robin, 32);
      ])

let suite =
  ( "frozen",
    [
      Alcotest.test_case "serve grid and directed cases" `Quick test_serve_grid;
      Alcotest.test_case "chaos runs" `Quick test_chaos_runs;
      Alcotest.test_case "resilient fault-grid cells" `Quick test_fault_grid;
    ] )

(* The closed mixes run on the multiprogramming runner, which has the
   shortest suites, so the runners stay balanced. *)
let mix_suite =
  ("frozen", [ Alcotest.test_case "closed mixes" `Quick test_mix_runs ])
