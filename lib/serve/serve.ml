(* The open-arrival serve loop; see serve.mli.

   One loop serves both the plain service and fault-tolerant serving: the
   fault policy ({!Fault_policy.config}) is data, and [run] is the loop at
   [Fault_policy.zero].  The per-attempt fault machinery is
   [Uhm_fault.Engine]'s; this module owns the service around it —
   ingest, admission, slot scrubbing, the cold-ASID economy, dispatch,
   the idle-clock jump — plus the service-level policy: job deadlines,
   bounded job retry after a voided attempt, and the brownout
   controller. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace
module Mix = Uhm_fault.Mix
module Engine = Uhm_fault.Engine
module Injector = Uhm_fault.Injector
module P = Fault_policy

type admission = { queue_capacity : int; shed_above : int option }

let default_admission = { queue_capacity = 64; shed_above = None }

type economy = { evict_min_idle : int; evict_watermark : float }

let default_economy = { evict_min_idle = 256; evict_watermark = 0.75 }

type job_status = Completed of Machine.status | Shed | Failed of int

type job = {
  j_id : int;
  j_template : int;
  j_name : string;
  j_arrival : int;
  j_admit : int;
  j_finish : int;
  j_asid : int;
  j_cycles : int;
  j_queue_delay : int;
  j_sojourn : int;
  j_solo_cycles : int;
  j_slowdown : float;
  j_status : job_status;
}

type summary = {
  s_jobs : int;
  s_completed : int;
  s_failed : int;
  s_shed : int;
  s_total_cycles : int;
  s_throughput : float;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
  s_qd_p50 : int;
  s_qd_p95 : int;
  s_qd_p99 : int;
  s_mean_slowdown : float;
  s_max_depth : int;
  s_evictions : int;
  s_cold_evictions : int;
  s_switches : int;
  s_flushes : int;
  s_hit_ratio : float;
}

type result = {
  sv_policy : Dtb.policy;
  sv_scheduler : Scheduler.policy;
  sv_quantum : int;
  sv_config : Dtb.config;
  sv_slots : int;
  sv_jobs : job list;
  sv_summary : summary;
  sv_trace : Trace.t;
}

(* The summary arithmetic over a finished job list. *)
let summarize ~njobs ~total_cycles ~max_depth ~evictions ~cold_evictions
    ~switches ~flushes ~hit_ratio job_list =
  let retired =
    List.filter
      (fun j ->
        match j.j_status with
        | Completed _ | Failed _ -> true
        | Shed -> false)
      job_list
  in
  let completed =
    List.length
      (List.filter (fun j -> j.j_status = Completed Machine.Halted) retired)
  in
  let shed = List.length job_list - List.length retired in
  let p50, p95, p99 =
    Percentile.summary (List.map (fun j -> j.j_sojourn) retired)
  in
  let qd_p50, qd_p95, qd_p99 =
    Percentile.summary (List.map (fun j -> j.j_queue_delay) retired)
  in
  let mean_slowdown =
    match retired with
    | [] -> 0.
    | _ ->
        List.fold_left (fun a j -> a +. j.j_slowdown) 0. retired
        /. float_of_int (List.length retired)
  in
  {
    s_jobs = njobs;
    s_completed = completed;
    s_failed = List.length retired - completed;
    s_shed = shed;
    s_total_cycles = total_cycles;
    s_throughput =
      (if total_cycles = 0 then 0.
       else float_of_int completed /. float_of_int total_cycles *. 1e6);
    s_p50 = p50;
    s_p95 = p95;
    s_p99 = p99;
    s_qd_p50 = qd_p50;
    s_qd_p95 = qd_p95;
    s_qd_p99 = qd_p99;
    s_mean_slowdown = mean_slowdown;
    s_max_depth = max_depth;
    s_evictions = evictions;
    s_cold_evictions = cold_evictions;
    s_switches = switches;
    s_flushes = flushes;
    s_hit_ratio = hit_ratio;
  }

(* SLO attainment: the exact deadline metric over a finished job list.
   Only jobs that completed with a clean halt can meet the bound; shed
   and failed jobs count against attainment's denominator only through
   their absence from it (they are reported separately). *)
let slo ~bound jobs =
  let completed =
    List.filter (fun j -> j.j_status = Completed Machine.Halted) jobs
  in
  let met = List.filter (fun j -> j.j_sojourn <= bound) completed in
  let n_completed = List.length completed and n_met = List.length met in
  ( n_met,
    n_completed,
    if n_completed = 0 then 0.
    else float_of_int n_met /. float_of_int n_completed )

(* Per-job bookkeeping that survives across attempts. *)
type jstate = {
  js_id : int;
  js_template : int;
  js_name : string;
  js_encoded : Codec.encoded;
  js_arrival : int;
  mutable js_first_admit : int;
  mutable js_cycles : int;
  mutable js_report : P.job_report; (* the job's report so far *)
}

(* One attempt of one job bound to an ASID slot. *)
type tenant = {
  t_js : jstate;
  t_interp0 : bool; (* admitted as pure interpretation (brownout stage 2) *)
  t_total_dir_steps : int;
  t_att : Engine.t;
}

let run_policy ?timing ?fuel ?(layout = Layout.default) ?backend
    ?(trace_capacity = 65536) ?(scheduler = Scheduler.Round_robin)
    ?(admission = default_admission) ?economy ~policy ~quantum ~config
    ~fconfig ~slots ~templates ~arrivals () =
  if templates = [] then invalid_arg "Serve.run: no templates";
  if quantum < 1 then invalid_arg "Serve.run: quantum must be >= 1";
  if slots < 1 then invalid_arg "Serve.run: slots must be >= 1";
  if admission.queue_capacity < 1 then
    invalid_arg "Serve.run: queue capacity must be >= 1";
  if fconfig.P.c_job_retry_limit < 0 then
    invalid_arg "Chaos.run: job retry limit must be >= 0";
  if fconfig.P.c_job_backoff < 0 then
    invalid_arg "Chaos.run: job backoff must be >= 0";
  (match fconfig.P.c_deadline with
  | Some d when d < 1 -> invalid_arg "Chaos.run: deadline must be >= 1"
  | _ -> ());
  let fc = fconfig.P.c_fault in
  (* end-state verification (and thus job retry) only arms when faults
     can actually fire *)
  let verify = not (Injector.is_zero fc.Engine.injector) in
  let tmpl = Array.of_list templates in
  let arr = Array.of_list arrivals in
  let njobs = Array.length arr in
  Array.iteri
    (fun i (a : Arrival.arrival) ->
      if a.Arrival.template < 0 || a.Arrival.template >= Array.length tmpl
      then invalid_arg "Serve.run: template index out of range";
      if i > 0 && a.Arrival.at < arr.(i - 1).Arrival.at then
        invalid_arg "Serve.run: arrivals out of order")
    arr;
  let dtb =
    Dtb.create_shared ~policy ~programs:slots config
      ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
  in
  let trace = Trace.create ~capacity:trace_capacity () in
  let tell at kind = Trace.record trace ~at_cycle:at kind in
  let jobs : job option array = Array.make njobs None in
  let jstates =
    Array.mapi
      (fun i (a : Arrival.arrival) ->
        let name, encoded = tmpl.(a.Arrival.template) in
        {
          js_id = i;
          js_template = a.Arrival.template;
          js_name = name;
          js_encoded = encoded;
          js_arrival = a.Arrival.at;
          js_first_admit = -1;
          js_cycles = 0;
          js_report =
            {
              P.cj_id = i;
              cj_attempts = 0;
              cj_injected = 0;
              cj_detected = 0;
              cj_retries = 0;
              cj_rollbacks = 0;
              cj_downgraded = false;
              cj_interp_admit = false;
              cj_output = "";
              cj_arch_hash = 0;
              cj_state_ok = true;
            };
        })
      arr
  in
  let queue : int Queue.t = Queue.create () in
  let active : tenant option array = Array.make slots None in
  let used = Array.make slots false in
  let next = ref 0 in
  let clock = ref 0 in
  let max_depth = ref 0 in
  let evictions = ref 0 in
  let cold_evictions = ref 0 in
  (* ASID-qualified keys exist exactly when several slots share the tag
     array; with one slot (or Flush_on_switch) keys are raw DIR addrs *)
  let tagged_keys = policy <> Dtb.Flush_on_switch && slots > 1 in
  (* fault-policy state *)
  let pending_retries : (int * int) list ref = ref [] in
  let insert_retry at id =
    let rec ins = function
      | [] -> [ (at, id) ]
      | (a, j) :: rest when (a, j) <= (at, id) -> (a, j) :: ins rest
      | rest -> (at, id) :: rest
    in
    pending_retries := ins !pending_retries
  in
  let stage = ref 0 in
  let bo_window : (int * int) Queue.t = Queue.create () in
  let calm_since = ref (-1) in
  let quarantined_until = Array.make slots 0 in
  let job_retries_n = ref 0 in
  let interp_admits_n = ref 0 in
  let quarantines_n = ref 0 in
  let deadline_misses_n = ref 0 in
  (* detections feed the brownout controller's sliding window *)
  let bo_note ~at ~asid =
    match fconfig.P.c_brownout with
    | None -> ()
    | Some _ -> Queue.push (at, asid) bo_window
  in
  let engine =
    Engine.env ?timing ?fuel ~layout ?backend ~on_detect:bo_note ~dtb ~trace
      ~slots ~tagged_keys fc
  in
  let solo_cache : (int, P.solo_ref) Hashtbl.t = Hashtbl.create 8 in
  let solo_of tidx =
    match Hashtbl.find_opt solo_cache tidx with
    | Some r -> r
    | None ->
        let r =
          P.solo_reference ?timing ?fuel ~layout ?backend ~config tmpl.(tidx)
        in
        Hashtbl.add solo_cache tidx r;
        r
  in

  let shed_job id (a : Arrival.arrival) =
    let name, _ = tmpl.(a.Arrival.template) in
    jobs.(id) <-
      Some
        {
          j_id = id;
          j_template = a.Arrival.template;
          j_name = name;
          j_arrival = a.Arrival.at;
          j_admit = -1;
          j_finish = -1;
          j_asid = -1;
          j_cycles = 0;
          j_queue_delay = 0;
          j_sojourn = 0;
          j_solo_cycles = 0;
          j_slowdown = 0.;
          j_status = Shed;
        }
  in

  (* Pull every arrival the virtual clock has reached into the admission
     queue, shedding per the admission-control config.  Event timestamps
     are the arrival cycles: that is when the queue actually changed. *)
  let ingest () =
    while !next < njobs && arr.(!next).Arrival.at <= !clock do
      let id = !next in
      let a = arr.(id) in
      let depth = Queue.length queue in
      let shed =
        depth >= admission.queue_capacity
        || (match admission.shed_above with
           | Some threshold -> depth >= threshold
           | None -> false)
        ||
        (* brownout stage 1+: shed harder than the configured admission
           policy while the service is degraded *)
        match fconfig.P.c_brownout with
        | Some b when !stage >= 1 -> depth >= b.P.bo_shed_above
        | _ -> false
      in
      if shed then begin
        tell a.Arrival.at (Trace.Job_shed { job = id; depth });
        shed_job id a
      end
      else begin
        Queue.push id queue;
        let depth = depth + 1 in
        if depth > !max_depth then max_depth := depth;
        tell a.Arrival.at (Trace.Job_queued { job = id; depth })
      end;
      incr next
    done
  in

  (* Recycling hygiene: a slot's previous tenant must not leak
     translations to the next one.  With ASID-qualified keys a targeted
     invalidation suffices; with raw keys the hazard only exists when no
     flushing switch can intervene — the slot is still current — and a
     whole-buffer flush is the only tool.  Returns the entries dropped. *)
  let scrub_slot s =
    if tagged_keys then Dtb.invalidate_asid dtb ~asid:s
    else if Dtb.current_asid dtb = s && Dtb.resident_entries dtb > 0 then begin
      let entries = Dtb.resident_entries dtb in
      Dtb.flush dtb;
      entries
    end
    else 0
  in

  let free_slot () =
    let rec scan s =
      if s = slots then None
      else if Option.is_none active.(s) && quarantined_until.(s) <= !clock
      then Some s
      else scan (s + 1)
    in
    scan 0
  in

  (* Retire a job for good with its service-level record. *)
  let finish_job s (js : jstate) status =
    let solo = Mix.solo_cycles ?timing ?fuel ~config js.js_encoded in
    let sojourn = !clock - js.js_arrival in
    jobs.(js.js_id) <-
      Some
        {
          j_id = js.js_id;
          j_template = js.js_template;
          j_name = js.js_name;
          j_arrival = js.js_arrival;
          j_admit = js.js_first_admit;
          j_finish = !clock;
          j_asid = s;
          j_cycles = js.js_cycles;
          j_queue_delay = js.js_first_admit - js.js_arrival;
          j_sojourn = sojourn;
          j_solo_cycles = solo;
          j_slowdown =
            (if solo = 0 then 1. else float_of_int sojourn /. float_of_int solo);
          j_status = status;
        }
  in

  let release s t =
    Machine.recycle t.t_att.Engine.machine;
    active.(s) <- None
  in

  (* Fold one finished (or voided) attempt's machinery stats into the
     job's cross-attempt accumulators. *)
  let absorb t =
    let js = t.t_js and a = t.t_att in
    let r = js.js_report in
    js.js_cycles <- js.js_cycles + Engine.cycles a;
    js.js_report <-
      {
        r with
        P.cj_injected = r.P.cj_injected + a.Engine.injected;
        cj_detected = r.P.cj_detected + a.Engine.detected;
        cj_retries = r.P.cj_retries + a.Engine.retried;
        cj_rollbacks = r.P.cj_rollbacks + a.Engine.rolled_back;
        cj_downgraded =
          r.P.cj_downgraded
          || (a.Engine.mode = Engine.Downgraded && not t.t_interp0);
      }
  in

  (* A voided attempt: the job's answer cannot be trusted (end-state
     mismatch) or its slot was quarantined out from under it.  Charge the
     per-job retry budget and either schedule the re-run after an
     exponential backoff or fail the job for good — the distinct [Failed]
     outcome, never a wrong answer. *)
  let void_attempt s t =
    absorb t;
    let js = t.t_js in
    let attempts = js.js_report.P.cj_attempts in
    if attempts > fconfig.P.c_job_retry_limit then begin
      tell !clock (Trace.Job_failed { job = js.js_id; asid = s; attempts });
      finish_job s js (Failed attempts)
    end
    else begin
      incr job_retries_n;
      let delay =
        fconfig.P.c_job_backoff * (1 lsl min (attempts - 1) 6)
      in
      tell !clock
        (Trace.Job_retry
           { job = js.js_id; asid = s; attempt = attempts + 1 });
      insert_retry (!clock + delay) js.js_id
    end;
    release s t
  in

  let retire s t status =
    let js = t.t_js and a = t.t_att in
    (* a fault-crashed machine can have garbage stack registers; a
       fingerprint that cannot even be computed is a mismatch, not a
       driver crash *)
    let output, hash, intact =
      try
        ( Engine.output a,
          Engine.arch_fingerprint ~layout a.Engine.machine,
          true )
      with
      | (Out_of_memory | Stack_overflow) as e -> raise e
      | _ when verify -> ("", 0, false)
    in
    let ok =
      intact
      && ((not verify)
         ||
         let sr = solo_of js.js_template in
         status = sr.P.sr_status
         && String.equal output sr.P.sr_output
         && hash = sr.P.sr_arch_hash)
    in
    js.js_report <-
      { js.js_report with cj_output = output; cj_arch_hash = hash; cj_state_ok = ok };
    if ok then begin
      absorb t;
      finish_job s js (Completed status);
      let sojourn = !clock - js.js_arrival in
      (match fconfig.P.c_deadline with
      | Some bound when status = Machine.Halted && sojourn > bound ->
          incr deadline_misses_n;
          tell !clock
            (Trace.Deadline_miss { job = js.js_id; asid = s; by = sojourn - bound })
      | _ -> ());
      release s t
    end
    else begin
      (* the attempt ran to completion but its end state is not the
         fault-free answer: a service-level detection, distinct from the
         machinery's per-class detections *)
      js.js_report <-
        { js.js_report with cj_detected = js.js_report.P.cj_detected + 1 };
      tell !clock (Trace.Fault_detected { asid = s; fclass = "end-state" });
      bo_note ~at:!clock ~asid:s;
      void_attempt s t
    end
  in

  let admit_to s id =
    let js = jstates.(id) in
    if used.(s) then begin
      let entries = scrub_slot s in
      if entries > 0 then begin
        incr evictions;
        tell !clock (Trace.Asid_evicted { asid = s; entries; cold = false })
      end
    end;
    let attempt = js.js_report.P.cj_attempts + 1 in
    js.js_report <- { js.js_report with cj_attempts = attempt };
    if js.js_first_admit < 0 then js.js_first_admit <- !clock;
    let interp0 =
      match fconfig.P.c_brownout with Some _ -> !stage >= 2 | None -> false
    in
    (* the injector stream derives from (job, attempt): a re-run is a
       fresh machine whose step counter restarts at 0, so it must be a
       fresh stream — which also means a retry does not deterministically
       re-suffer the schedule that voided its predecessor *)
    let att =
      Engine.create engine ~asid:s
        ~stream:((js.js_id * 131) + (attempt - 1))
        ~interp0 js.js_encoded
    in
    active.(s) <-
      Some
        {
          t_js = js;
          t_interp0 = interp0;
          t_total_dir_steps = U.dir_steps_memoized js.js_encoded.Codec.program;
          t_att = att;
        };
    used.(s) <- true;
    tell !clock
      (Trace.Job_admitted
         { job = id; asid = s; wait = !clock - js.js_arrival;
           depth = Queue.length queue });
    if interp0 then begin
      js.js_report <- { js.js_report with cj_interp_admit = true };
      incr interp_admits_n;
      tell !clock (Trace.Interp_admit { job = id; asid = s })
    end
  in

  let admit () =
    let continue = ref true in
    while !continue do
      (* a job whose backoff has expired re-enters ahead of fresh
         arrivals: it has already waited at least one service attempt *)
      let retry_ready =
        match !pending_retries with
        | (at, _) :: _ when at <= !clock -> true
        | _ -> false
      in
      match (retry_ready, Queue.is_empty queue, free_slot ()) with
      | true, _, Some s ->
          let id = snd (List.hd !pending_retries) in
          pending_retries := List.tl !pending_retries;
          admit_to s id
      | false, false, Some s -> admit_to s (Queue.pop queue)
      | _ -> continue := false
    done
  in

  (* The cold-ASID economy: while the directory is crowded, invalidate
     the idlest sufficiently-idle slot (largest footprint breaks ties) to
     hand its capacity to the tenants actually translating. *)
  let evict_cold () =
    match economy with
    | None -> ()
    | Some _ when not tagged_keys -> ()
    | Some e ->
        let tag_capacity = config.Dtb.sets * config.Dtb.assoc in
        let crowded () =
          float_of_int (Dtb.resident_entries dtb)
          >= e.evict_watermark *. float_of_int tag_capacity
        in
        let continue = ref true in
        while !continue && crowded () do
          let now = Dtb.use_clock dtb in
          let best = ref None in
          for s = 0 to slots - 1 do
            let idle = now - Dtb.asid_last_use dtb ~asid:s in
            if idle >= e.evict_min_idle then begin
              let footprint = Dtb.asid_footprint dtb ~asid:s in
              if footprint > 0 then
                match !best with
                | Some (_, bi, bf) when bi > idle || (bi = idle && bf >= footprint)
                  ->
                    ()
                | _ -> best := Some (s, idle, footprint)
            end
          done;
          match !best with
          | None -> continue := false
          | Some (s, _, _) ->
              let entries = Dtb.invalidate_asid dtb ~asid:s in
              incr evictions;
              incr cold_evictions;
              tell !clock (Trace.Asid_evicted { asid = s; entries; cold = true })
        done
  in

  (* Brownout stage 3: take the slot with the most recent detections out
     of service.  Its current attempt (if any) is voided into the retry
     path, its resident translations are flushed, and the slot sits out
     [bo_quarantine] cycles. *)
  let quarantine_poisoned (b : P.brownout) =
    let per_slot = Array.make slots 0 in
    Queue.iter
      (fun (_, s) ->
        if s >= 0 && s < slots then per_slot.(s) <- per_slot.(s) + 1)
      bo_window;
    let best = ref (-1) and bestc = ref 0 in
    for s = 0 to slots - 1 do
      if per_slot.(s) > !bestc && quarantined_until.(s) <= !clock then begin
        best := s;
        bestc := per_slot.(s)
      end
    done;
    if !best >= 0 then begin
      let s = !best in
      (match active.(s) with Some t -> void_attempt s t | None -> ());
      let entries = scrub_slot s in
      if entries > 0 then incr evictions;
      quarantined_until.(s) <- !clock + b.P.bo_quarantine;
      incr quarantines_n;
      tell !clock
        (Trace.Slot_quarantined { asid = s; entries; until = quarantined_until.(s) })
    end
  in

  (* The controller: watch guard-failure rate over a sliding cycle window
     and head-of-queue delay; escalate a stage at a time while either is
     hot, de-escalate only after both have been calm for a full
     hysteresis period (and re-arm the period per stage shed). *)
  let brownout_tick () =
    match fconfig.P.c_brownout with
    | None -> ()
    | Some b ->
        while
          (not (Queue.is_empty bo_window))
          && fst (Queue.peek bo_window) < !clock - b.P.bo_window
        do
          ignore (Queue.pop bo_window)
        done;
        let detections = Queue.length bo_window in
        let head_wait =
          match Queue.peek_opt queue with
          | Some id -> !clock - arr.(id).Arrival.at
          | None -> 0
        in
        let hot =
          detections >= b.P.bo_hi_detections || head_wait >= b.P.bo_hi_wait
        in
        if hot then begin
          calm_since := -1;
          if !stage < 3 then begin
            let from_stage = !stage in
            stage := !stage + 1;
            tell !clock (Trace.Brownout { from_stage; to_stage = !stage });
            if !stage = 3 then quarantine_poisoned b
          end
        end
        else if !calm_since < 0 then calm_since := !clock
        else if !clock - !calm_since >= b.P.bo_hysteresis && !stage > 0 then begin
          let from_stage = !stage in
          stage := !stage - 1;
          tell !clock (Trace.Brownout { from_stage; to_stage = !stage });
          calm_since := !clock
        end
  in

  let runnable i = Option.is_some active.(i) in
  let remaining i =
    let t = Option.get active.(i) in
    max 0
      (t.t_total_dir_steps
      - (Machine.stats t.t_att.Engine.machine).Machine.interp_count)
  in

  let slice i =
    let t = Option.get active.(i) in
    (* guards-off (or mid-install) corruption can make the machine
       execute garbage and die with a host exception rather than a guest
       trap; with faults armed that is just another voided attempt, not a
       driver crash.  Without faults the exception propagates — a
       zero-config crash is a real bug. *)
    clock :=
      Engine.dispatch ~contain:verify engine t.t_att ~now:!clock ~quantum;
    match t.t_att.Engine.finished with
    | Some status -> retire i t status
    | None -> ()
  in

  let running = ref true in
  while !running do
    ingest ();
    brownout_tick ();
    admit ();
    evict_cold ();
    match Engine.pick engine scheduler ~runnable ~remaining with
    | Some i -> slice i
    | None -> (
        (* nothing resident: jump the clock to the next event that can
           make progress — an arrival, a retry coming off backoff, or a
           quarantined slot coming back while work is waiting *)
        let candidates =
          (if !next < njobs then [ arr.(!next).Arrival.at ] else [])
          (* a retry already due that [admit] could not place (every
             slot quarantined) must not pin the clock in place — the
             quarantine expiries below are the real jump target, and
             when a due retry is unplaceable all slots are quarantined
             past the clock, so that list is never empty *)
          @ (match !pending_retries with
            | (at, _) :: _ when at > !clock -> [ at ]
            | _ -> [])
          @
          if Queue.is_empty queue && List.is_empty !pending_retries then []
          else
            Array.to_list quarantined_until
            |> List.filter (fun u -> u > !clock)
        in
        match candidates with
        | [] -> running := false
        | l -> clock := max !clock (List.fold_left min max_int l))
  done;

  let job_list = List.map Option.get (Array.to_list jobs) in
  let result =
    {
      sv_policy = policy;
      sv_scheduler = scheduler;
      sv_quantum = quantum;
      sv_config = config;
      sv_slots = slots;
      sv_jobs = job_list;
      sv_summary =
        summarize ~njobs ~total_cycles:!clock ~max_depth:!max_depth
          ~evictions:!evictions ~cold_evictions:!cold_evictions
          ~switches:(Engine.switches engine)
          ~flushes:(Engine.flushes engine)
          ~hit_ratio:(Dtb.hit_ratio dtb) job_list;
      sv_trace = trace;
    }
  in
  let reports = List.map (fun js -> js.js_report) (Array.to_list jstates) in
  let slo_bound = Option.value ~default:max_int fconfig.P.c_deadline in
  let met, n_completed, attainment = slo ~bound:slo_bound job_list in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let chaos_summary =
    {
      P.cs_slo_met = met;
      cs_slo_completed = n_completed;
      cs_attainment = (if fconfig.P.c_deadline = None then 1. else attainment);
      cs_goodput =
        (if !clock = 0 then 0.
         else float_of_int met /. float_of_int !clock *. 1e6);
      cs_deadline_misses = !deadline_misses_n;
      cs_failed_jobs =
        List.length
          (List.filter
             (fun j -> match j.j_status with Failed _ -> true | _ -> false)
             job_list);
      cs_job_retries = !job_retries_n;
      cs_injected = sum (fun r -> r.P.cj_injected);
      cs_detected = sum (fun r -> r.P.cj_detected);
      cs_recovery_retries = sum (fun r -> r.P.cj_retries);
      cs_rollbacks = sum (fun r -> r.P.cj_rollbacks);
      cs_downgrades = sum (fun r -> if r.P.cj_downgraded then 1 else 0);
      cs_interp_admits = !interp_admits_n;
      cs_quarantines = !quarantines_n;
      cs_brownout_transitions = Trace.brownout_transitions trace;
      cs_max_stage = Trace.brownout_peak trace;
    }
  in
  (result, reports, chaos_summary)

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ?admission
    ?economy ~policy ~quantum ~config ~slots ~templates ~arrivals () =
  let result, _, _ =
    run_policy ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler
      ?admission ?economy ~policy ~quantum ~config ~fconfig:P.zero ~slots
      ~templates ~arrivals ()
  in
  result
