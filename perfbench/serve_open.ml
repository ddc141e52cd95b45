(* The open-loop workload, open in simulated time: seeded Poisson
   streams over a mixed Algol-S/Fortran-S pool with heavy-tailed
   template weights go through [Serve.run] (tagged DTB, a few slots) at
   one offered rate below saturation; every third stream also goes
   through it at a rate above saturation, and every sixth goes again
   through [Chaos.run] at the lower rate with faults, a deadline and job
   retries.  Host calls are closed loop, one at a time.

   The offered load is [streams] independent streams of [jobs] arrivals
   each (every stream served from an empty system), so one run yields
   a few hundred host-time samples and pools 7680 jobs into the
   below-saturation sojourn percentiles.  With 2560 the p99 of ten seeds
   spread by 0.08 to 0.15 of its median. *)

open Common
module Dtb = Uhm_core.Dtb
module Serve = Uhm_serve.Serve
module Chaos = Uhm_serve.Chaos
module Arrival = Uhm_serve.Arrival
module Trace = Uhm_sched.Trace

(* Light templates first: the weights make most jobs short and a few
   long (service times from ~13k to ~420k cycles). *)
let pool =
  [ "ftn_banner"; "fact_iter"; "ftn_pascal"; "string_out"; "nested_scopes";
    "ftn_sieve"; "quicksort"; "sieve" ]

let weights =
  Arrival.heavy_tailed ~templates:(List.length pool) ~heavy:[ (0, 6.0); (1, 6.0) ]

let streams = 240
let jobs = 32
let slots = 4
let quantum = 64
let config = Dtb.paper_config

(* offered rates, jobs per million cycles, either side of the pool's
   service capacity of about 8; at 3 the below-saturation p99 jumped
   between seeds whenever a burst piled heavy jobs up *)
let rate_below = 2.0
let rate_above = 12.0
let fault_rate = 1e-4

(* bounds an attempt that a fault sent into a loop; far above any
   template's solo cost *)
let fuel = 4_000_000

(* per-call trace ring, as in the repo's load and resilience grids *)
let trace_capacity = 4096

(* no arrival is ever refused: the queue holds a whole stream *)
let admission = { Serve.queue_capacity = jobs; shed_above = None }

(* Which streams also go through the above-saturation and the faulted
   pass: 80 and 40 of them, as many as the throughput and the SLO
   attainment need to settle. *)
let above_every = 3
let faulted_every = 6

type stream = {
  index : int;
  below : Arrival.arrival list;
  above : Arrival.arrival list;  (* [] where the stream skips that pass *)
  fconfig : Chaos.config;
}

type setup = {
  programs : program array;
  templates : (string * Codec.encoded) list;
  rep_bits : int list;
  streams : stream list;
}

let make_setup ~seed () =
  let programs = Array.of_list (load_named pool) in
  let templates =
    Array.to_list (Array.map (fun p -> (p.name, p.encoded)) programs)
  in
  (* each template's representation under the service's DTB, from one
     solo run (which must also pass the output check) *)
  let rep_bits =
    Array.to_list
      (Array.map
         (fun p ->
           let r = Uhm.run_encoded ~strategy:(Uhm.Dtb_strategy config) p.encoded in
           if r.Uhm.status <> Machine.Halted || r.Uhm.output <> p.reference then
             failwith ("serve_open: solo reference run of " ^ p.name ^ " is wrong");
           r.Uhm.static_size_bits + r.Uhm.support_size_bits)
         programs)
  in
  let streams =
    List.init streams (fun index ->
        let seed = (seed * streams) + index in
        let gen rate =
          Span.with_span "arrival.generate" (fun () ->
              Arrival.generate ~weights ~seed ~templates:(Array.length programs)
                ~jobs (Arrival.Poisson { rate }))
        in
        {
          index;
          below = gen rate_below;
          above = (if index mod above_every = 0 then gen rate_above else []);
          fconfig =
            Uhm_serve.Experiment.resilience_fconfig ~deadline:slo_cycles
              ~fault_seed:seed fault_rate;
        })
  in
  { programs; templates; rep_bits; streams }

type pass = Below | Above | Faulted

let pass_name = function Below -> "below" | Above -> "above" | Faulted -> "faulted"

let serve st arrivals =
  Span.with_span "serve.run" (fun () ->
      Serve.run ~trace_capacity ~admission ~policy:Dtb.Tagged ~quantum ~config ~slots
        ~templates:st.templates ~arrivals ())

let chaos st s =
  Span.with_span "chaos.run" (fun () ->
      Chaos.run ~fuel ~trace_capacity ~admission ~policy:Dtb.Tagged ~quantum ~config
        ~fconfig:s.fconfig ~slots ~templates:st.templates ~arrivals:s.below ())

let halted (j : Serve.job) = j.Serve.j_status = Serve.Completed Machine.Halted

(* Per job: served (and verified) or not, and whether the service gave a
   wrong answer.  [Serve] must retire every job [Completed Halted];
   [Chaos] may fail a job (a miss, not a wrong answer) but every
   completion must carry the reference output. *)
let judge st (r : Serve.result) chaos =
  let jobs = r.Serve.sv_jobs in
  match chaos with
  | None ->
      let ok = List.length (List.filter halted jobs) in
      (ok, List.length jobs - ok)
  | Some c ->
      List.fold_left2
        (fun (ok, wrong) (j : Serve.job) (r : Chaos.job_report) ->
          match j.Serve.j_status with
          | Serve.Completed Machine.Halted ->
              if r.Chaos.cj_state_ok
                 && r.Chaos.cj_output = st.programs.(j.Serve.j_template).reference
              then (ok + 1, wrong)
              else (ok, wrong + 1)
          | Serve.Failed _ | Serve.Shed -> (ok, wrong)
          | Serve.Completed _ -> (ok, wrong + 1))
        (0, 0) jobs c.Chaos.cv_reports

let job_signature (j : Serve.job) =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%s" j.Serve.j_template j.Serve.j_arrival
    j.Serve.j_admit j.Serve.j_finish j.Serve.j_asid j.Serve.j_cycles
    (match j.Serve.j_status with
    | Serve.Completed Machine.Halted -> "H"
    | Serve.Completed (Machine.Trapped m) -> "T" ^ m
    | Serve.Completed Machine.Out_of_fuel -> "F"
    | Serve.Completed Machine.Running -> "R"
    | Serve.Shed -> "S"
    | Serve.Failed n -> "X" ^ string_of_int n)

let signature (r : Serve.result) chaos =
  let s = r.Serve.sv_summary in
  let chaos =
    match chaos with
    | None -> ""
    | Some c ->
        let cs = c.Chaos.cv_summary in
        Printf.sprintf "|%d,%d,%d,%d,%d|" cs.Chaos.cs_injected cs.Chaos.cs_detected
          cs.Chaos.cs_job_retries cs.Chaos.cs_rollbacks cs.Chaos.cs_failed_jobs
        ^ String.concat ";"
            (List.map
               (fun r ->
                 Printf.sprintf "%d,%d,%s" r.Chaos.cj_attempts r.Chaos.cj_arch_hash
                   (Digest.to_hex (Digest.string r.Chaos.cj_output)))
               c.Chaos.cv_reports)
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d,%d,%d,%d,%h|%s%s" s.Serve.s_total_cycles s.Serve.s_switches
          s.Serve.s_flushes s.Serve.s_evictions s.Serve.s_hit_ratio
          (String.concat ";" (List.map job_signature r.Serve.sv_jobs))
          chaos))

(* What a round keeps of one call: the service results themselves (every
   job and its trace ring) are dropped as soon as they are judged. *)
type digest = {
  pass : pass;
  summary : Serve.summary;
  total_cycles : int;
  sojourns : int list;  (* of the jobs retired [Halted] *)
  in_slo : int;  (* of those, within the SLO bound *)
  trace_events : int;
  trace_dropped : int;
  chaos : (Chaos.chaos_summary * int) option;  (* and the attempts started *)
}

let digest pass (r : Serve.result) chaos =
  let done_ = List.filter halted r.Serve.sv_jobs in
  let sojourns = List.map (fun j -> j.Serve.j_sojourn) done_ in
  {
    pass;
    summary = r.Serve.sv_summary;
    total_cycles = r.Serve.sv_summary.Serve.s_total_cycles;
    sojourns;
    in_slo = List.length (List.filter (fun c -> c <= slo_cycles) sojourns);
    trace_events = Trace.recorded r.Serve.sv_trace;
    trace_dropped = Trace.dropped r.Serve.sv_trace;
    chaos =
      Option.map
        (fun c ->
          ( c.Chaos.cv_summary,
            sum (List.map (fun r -> r.Chaos.cj_attempts) c.Chaos.cv_reports) ))
        chaos;
  }

let call st s pass =
  Span.set_op s.index;
  let (r, chaos), host_s =
    time (fun () ->
        match pass with
        | Below -> (serve st s.below, None)
        | Above -> (serve st s.above, None)
        | Faulted ->
            let c = chaos st s in
            (c.Chaos.cv_serve, Some c))
  in
  let jobs = r.Serve.sv_jobs in
  let ok, wrong = judge st r chaos in
  let retired = List.filter (fun j -> j.Serve.j_status <> Serve.Shed) jobs in
  ( {
      key = Printf.sprintf "%s/%d" (pass_name pass) s.index;
      host_s;
      per = max 1 (List.length retired);
      sim_cycles = sum (List.map (fun j -> j.Serve.j_cycles) jobs);
      dir_instrs =
        sum
          (List.map
             (fun j -> if halted j then st.programs.(j.Serve.j_template).ref_steps else 0)
             jobs);
      signature = signature r chaos;
      attempted = List.length jobs;
      ok;
      wrong;
      rep_bits = 0;
    },
    digest pass r chaos )

let calls st =
  List.concat_map
    (fun s ->
      List.map (call st s)
        (Below
        :: List.filter_map
             (fun (every, pass) -> if s.index mod every = 0 then Some pass else None)
             [ (above_every, Above); (faulted_every, Faulted) ]))
    st.streams

let of_pass pass round = List.filter_map (fun (_, d) -> if d.pass = pass then Some d else None) round

let exact st round =
  let samples = List.map fst round in
  let below = List.concat_map (fun d -> d.sojourns) (of_pass Below round) in
  let above = of_pass Above round in
  let faulted = of_pass Faulted round in
  let kc = List.map (fun c -> float_of_int c /. 1000.) below in
  {
    cycles_per_dir =
      Stats.ratio_int
        ~part:(sum (List.map (fun s -> s.sim_cycles) samples))
        ~base:(sum (List.map (fun s -> s.dir_instrs) samples));
    rep_kbits = Stats.ratio_int ~part:(sum st.rep_bits) ~base:(List.length st.rep_bits) /. 1000.;
    sojourn_p50_kcyc = Stats.nearest_rank 50. kc;
    sojourn_p99_kcyc = Stats.nearest_rank 99. kc;
    throughput_per_mcyc =
      Stats.ratio_int
        ~part:(sum (List.map (fun d -> List.length d.sojourns) above))
        ~base:(sum (List.map (fun d -> d.total_cycles) above))
      *. 1e6;
    (* over offered jobs: shed and [Failed] jobs are misses *)
    slo_attainment =
      Stats.ratio_int
        ~part:(sum (List.map (fun d -> d.in_slo) faulted))
        ~base:(sum (List.map (fun d -> d.summary.Serve.s_jobs) faulted));
  }

(* Per-layer counts of one pass; they repeat exactly, so every traced
   round writes the same values. *)
let count_layers round =
  let served = of_pass Below round @ of_pass Above round in
  let total f = float_of_int (sum (List.map (fun d -> f d.summary) served)) in
  Hashtbl.replace acc_tbl "serve.cycles"
    (float_of_int
       (sum (List.filter_map (fun (s, d) -> if d.chaos = None then Some s.sim_cycles else None) round)));
  layer "serve.switches" "count" (total (fun s -> s.Serve.s_switches));
  layer "serve.flushes" "count" (total (fun s -> s.Serve.s_flushes));
  layer "serve.evictions" "count" (total (fun s -> s.Serve.s_evictions));
  layer "serve.shed" "count" (total (fun s -> s.Serve.s_shed));
  layer "serve.max_queue_depth" "count"
    (float_of_int (List.fold_left (fun m d -> max m d.summary.Serve.s_max_depth) 0 served));
  (* mean of the per-stream DTB hit ratios at the below-saturation rate *)
  let below = of_pass Below round in
  layer "serve.hit_ratio" "ratio"
    (Stats.ratio
       ~part:(fsum (List.map (fun d -> d.summary.Serve.s_hit_ratio) below))
       ~base:(float_of_int (List.length below)));
  layer "sched.trace_events" "count" (float_of_int (sum (List.map (fun d -> d.trace_events) served)));
  layer "sched.trace_dropped" "count" (float_of_int (sum (List.map (fun d -> d.trace_dropped) served)));
  let faulted = of_pass Faulted round in
  let chaos = List.filter_map (fun d -> d.chaos) faulted in
  let cs f = sum (List.map (fun (c, _) -> f c) chaos) in
  let injected = cs (fun s -> s.Chaos.cs_injected) in
  let detected = cs (fun s -> s.Chaos.cs_detected) in
  layer "fault.injected" "count" (float_of_int injected);
  layer "fault.detected" "count" (float_of_int detected);
  layer "fault.detect_ratio" "ratio"
    (if injected = 0 then 0. else Stats.ratio_int ~part:detected ~base:injected);
  layer "chaos.job_retries" "count" (float_of_int (cs (fun s -> s.Chaos.cs_job_retries)));
  layer "chaos.rollbacks" "count" (float_of_int (cs (fun s -> s.Chaos.cs_rollbacks)));
  layer "chaos.failed" "count" (float_of_int (cs (fun s -> s.Chaos.cs_failed_jobs)));
  layer "chaos.attempt_yield" "ratio"
    (Stats.ratio_int
       ~part:(sum (List.map (fun d -> List.length d.sojourns) faulted))
       ~base:(sum (List.map snd chaos)))

(* Host times per pass over the traced rounds. *)
let time_layers ~passes =
  let per_pass x = x /. float_of_int passes in
  let serve_s = per_pass (Span.total "serve.run") in
  layer "serve.run_s" "s" serve_s;
  layer "serve.ns_per_sim_cycle" "ns"
    (Stats.ratio ~part:(serve_s *. 1e9) ~base:(acc "serve.cycles"));
  layer "chaos.run_s" "s" (per_pass (Span.total "chaos.run"))

(* One timed round: its samples and its simulated metrics. *)
let round ~traced st () =
  let cs = calls st in
  if traced then count_layers cs;
  (List.map fst cs, exact st cs)

let run ~seed ~seconds ~traced =
  Span.enabled := traced;
  let setup_s, st = timed_setup (make_setup ~seed) in
  let samples rs = List.map fst rs in
  let exact_of rs = snd (List.hd rs) in
  if not traced then begin
    let rs = rounds ~seconds (round ~traced:false st) in
    end_to_end ~setup_s ~exact:(exact_of rs) ~extra_failures:[] (samples rs)
  end
  else begin
    setup_layers (Array.to_list st.programs);
    let plain, traced_rs =
      traced_halves ~seconds ~pass:(fun rs -> pass_time (samples rs)) (fun ~traced ->
          round ~traced st)
    in
    time_layers ~passes:(List.length traced_rs);
    let all = plain @ traced_rs in
    end_to_end ~setup_s ~exact:(exact_of all) ~extra_failures:[] (samples all)
  end
