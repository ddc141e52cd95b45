(* The resilience driver: time-sliced execution over a shared DTB with
   fault injection, guarded translations, checkpoint rollback and
   watchdog downgrade; see resilient.mli.  The per-program machinery is
   {!Engine}'s; this module is the round-robin loop around it. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Trace = Uhm_sched.Trace

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
    ?(trace_capacity = 65536) ~policy ~quantum ~config ~fconfig
    (programs : (string * Codec.encoded) list) =
  if programs = [] then invalid_arg "Resilient.run_encoded: no programs";
  if quantum < 1 then
    invalid_arg "Resilient.run_encoded: quantum must be >= 1";
  let n = List.length programs in
  let dtb =
    Dtb.create_shared ~policy ~programs:n config
      ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
  in
  let trace = Trace.create ~capacity:trace_capacity () in
  let e =
    Engine.env ?timing ?fuel ~layout ?backend ~dtb ~trace
      ~tagged_keys:(policy <> Dtb.Flush_on_switch && n > 1)
      fconfig
  in
  let names = Array.of_list (List.map fst programs) in
  let procs =
    Array.of_list
      (List.mapi
         (fun asid (_, encoded) -> Engine.create e ~asid ~stream:asid encoded)
         programs)
  in
  let clock = ref 0 in
  let tell_now kind = Trace.record trace ~at_cycle:!clock kind in
  let switches = ref 0 in
  let flushes0 = Dtb.flushes dtb in
  let last_index = ref (-1) in
  let pick () =
    let rec scan k =
      if k = n then None
      else
        let i = (!last_index + 1 + k) mod n in
        if procs.(i).Engine.finished = None then Some i else scan (k + 1)
    in
    scan 0
  in
  let running = ref true in
  while !running do
    match pick () with
    | None -> running := false
    | Some i ->
        let p = procs.(i) in
        if i <> !last_index then begin
          let from_asid = if !last_index < 0 then None else Some !last_index in
          let before = Dtb.flushes dtb in
          (* downgraded programs no longer consult the DTB, but the switch
             still changes the current address space — under
             Flush_on_switch that flush is part of the policy's cost *)
          Dtb.switch_to dtb ~asid:i;
          incr switches;
          tell_now (Trace.Switch { from_asid; to_asid = i });
          if Dtb.flushes dtb > before then
            tell_now (Trace.Dtb_flush { asid = i })
        end;
        last_index := i;
        clock := !clock + Engine.slice e p ~now:!clock ~quantum;
        (match p.Engine.finished with
        | Some status ->
            tell_now (Trace.Completion { asid = i; ok = status = Machine.Halted })
        | None -> tell_now (Trace.Quantum_expiry { asid = i }))
  done;
  let reports =
    Array.to_list
      (Array.mapi
         (fun i (p : Engine.t) ->
           let r =
             {
               pr_name = names.(i);
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
         procs)
  in
  {
    rr_policy = policy;
    rr_quantum = quantum;
    rr_config = config;
    rr_fconfig = fconfig;
    rr_programs = reports;
    rr_total_cycles = !clock;
    rr_switches = !switches;
    rr_flushes = Dtb.flushes dtb - flushes0;
    rr_trace = trace;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ~policy ~quantum
    ~config ~fconfig
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)
