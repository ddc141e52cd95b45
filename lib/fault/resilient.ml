(* The resilience driver: time-sliced execution over a shared DTB with
   fault injection, guarded translations, checkpoint rollback and
   watchdog downgrade; see resilient.mli.  The per-program machinery and
   the closed loop are {!Engine}'s; this module configures and reports. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler

type config = Engine.config = {
  injector : Injector.spec;
  guards : bool;
  checkpoint_every : int option;
  retry_limit : int;
  backoff_cycles : int;
  watchdog_window : int;
  watchdog_threshold : int;
}

let zero =
  {
    injector = Injector.zero;
    guards = false;
    checkpoint_every = None;
    retry_limit = 3;
    backoff_cycles = 64;
    watchdog_window = 4096;
    watchdog_threshold = 8;
  }

let protected ?(checkpoint_every = 1024) injector =
  {
    zero with
    injector;
    guards = true;
    checkpoint_every =
      (if Injector.can_inject injector Injector.Mem_word then
         Some checkpoint_every
       else None);
  }

type program_report = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;
  pr_slices : int;
  pr_arch_hash : int;
  pr_downgraded : bool;
  pr_injected : int;
  pr_detected : int;
  pr_retries : int;
  pr_rollbacks : int;
}

type result = {
  rr_policy : Dtb.policy;
  rr_quantum : int;
  rr_config : Dtb.config;
  rr_fconfig : config;
  rr_programs : program_report list;
  rr_total_cycles : int;
  rr_switches : int;
  rr_flushes : int;
  rr_trace : Trace.t;
}

let arch_fingerprint = Engine.arch_fingerprint

let run_encoded ?timing ?fuel ?(layout = Layout.default) ?backend
    ?trace_capacity ~policy ~quantum ~config ~fconfig
    (programs : (string * Codec.encoded) list) =
  let e, attempts, clock =
    Engine.run_closed ?timing ?fuel ~layout ?backend ?trace_capacity
      ~scheduler:Scheduler.Round_robin ~policy ~quantum ~config fconfig
      (List.map snd programs)
  in
  let reports =
    List.mapi
      (fun i (name, _) ->
        let p = attempts.(i) in
        let r =
          {
            pr_name = name;
            pr_asid = i;
            pr_status = Option.get p.Engine.finished;
            pr_output = Engine.output p;
            pr_cycles = Engine.cycles p;
            pr_slices = p.Engine.slices;
            pr_arch_hash = arch_fingerprint ~layout p.Engine.machine;
            pr_downgraded = p.Engine.mode = Engine.Downgraded;
            pr_injected = p.Engine.injected;
            pr_detected = p.Engine.detected;
            pr_retries = p.Engine.retried;
            pr_rollbacks = p.Engine.rolled_back;
          }
        in
        Machine.recycle p.Engine.machine;
        r)
      programs
  in
  {
    rr_policy = policy;
    rr_quantum = quantum;
    rr_config = config;
    rr_fconfig = fconfig;
    rr_programs = reports;
    rr_total_cycles = clock;
    rr_switches = Engine.switches e;
    rr_flushes = Engine.flushes e;
    rr_trace = Engine.trace e;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)
