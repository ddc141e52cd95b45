(* The multiprogramming driver: the closed loop at a silent fault config,
   projected onto per-program and global results; see mix.mli. *)

module Machine = Uhm_machine.Machine
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Scheduler = Uhm_sched.Scheduler
module Trace = Uhm_sched.Trace

type program_result = {
  pr_name : string;
  pr_asid : int;
  pr_status : Machine.status;
  pr_output : string;
  pr_cycles : int;
  pr_dir_steps : int;
  pr_slices : int;
  pr_dtb_hits : int;
  pr_dtb_misses : int;
  pr_dtb_evictions : int;
  pr_hit_ratio : float;
  pr_solo_cycles : int;
  pr_slowdown : float;
}

(* -- Slowdown vs solo --------------------------------------------------------

   The fairness metric: how much longer a program ran inside the mix than
   it would have run alone on the same machine and DTB geometry.  The solo
   cycle count is a plain single-program [Dtb_strategy] run, memoised like
   [Uhm.dir_steps_memoized] — bounded, mutex-protected, keyed physically
   on the program (re-encoding the same source gives a new key) and
   structurally on everything the cycle count depends on.  Races fill the
   same entry twice, which is wasted work but never wrong. *)

type solo_key = {
  sk_program : Uhm_dir.Program.t;  (* compared physically *)
  sk_config : Dtb.config;
  sk_timing : Uhm_machine.Timing.t option;
  sk_fuel : int option;
}

let solo_mutex = Mutex.create ()
let solo_memo : (solo_key * int) list ref = ref []
let solo_memo_max = 128

let solo_cycles ?timing ?fuel ~config (encoded : Codec.encoded) =
  let key =
    { sk_program = encoded.Codec.program; sk_config = config;
      sk_timing = timing; sk_fuel = fuel }
  in
  let same k =
    k.sk_program == key.sk_program
    && k.sk_config = key.sk_config
    && k.sk_timing = key.sk_timing
    && k.sk_fuel = key.sk_fuel
  in
  let cached =
    Mutex.lock solo_mutex;
    let r = List.find_opt (fun (k, _) -> same k) !solo_memo in
    Mutex.unlock solo_mutex;
    r
  in
  match cached with
  | Some (_, cycles) -> cycles
  | None ->
      let r =
        U.run_encoded ?timing ?fuel ~strategy:(U.Dtb_strategy config) encoded
      in
      let cycles = r.U.cycles in
      Mutex.lock solo_mutex;
      let rest =
        let others = List.filter (fun (k, _) -> not (same k)) !solo_memo in
        if List.length others >= solo_memo_max then
          List.filteri (fun i _ -> i < solo_memo_max - 1) others
        else others
      in
      solo_memo := (key, cycles) :: rest;
      Mutex.unlock solo_mutex;
      cycles

type result = {
  mr_policy : Dtb.policy;
  mr_scheduler : Scheduler.policy;
  mr_quantum : int;
  mr_config : Dtb.config;
  mr_programs : program_result list;
  mr_total_cycles : int;
  mr_switches : int;
  mr_flushes : int;
  mr_hit_ratio : float;
  mr_evictions : int;
  mr_trace : Trace.t;
}

let run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity
    ?(scheduler = Scheduler.Round_robin) ~policy ~quantum ~config
    (programs : (string * Codec.encoded) list) =
  let e, attempts, clock =
    Engine.run_closed ?timing ?fuel ?layout ?backend ?trace_capacity
      ~scheduler ~policy ~quantum ~config Resilient.zero
      (List.map snd programs)
  in
  let results =
    List.mapi
      (fun i (name, (encoded : Codec.encoded)) ->
        let p = attempts.(i) in
        let hits, misses, evictions = Engine.slot_dtb e ~asid:i in
        let cycles = Engine.cycles p in
        let solo = solo_cycles ?timing ?fuel ~config encoded in
        let r =
          {
            pr_name = name;
            pr_asid = i;
            pr_status = Option.get p.Engine.finished;
            pr_output = Engine.output p;
            pr_cycles = cycles;
            pr_dir_steps = U.dir_steps_memoized encoded.Codec.program;
            pr_slices = p.Engine.slices;
            pr_dtb_hits = hits;
            pr_dtb_misses = misses;
            pr_dtb_evictions = evictions;
            pr_hit_ratio =
              (if hits + misses = 0 then 0.
               else float_of_int hits /. float_of_int (hits + misses));
            pr_solo_cycles = solo;
            pr_slowdown =
              (if solo = 0 then 1.
               else float_of_int cycles /. float_of_int solo);
          }
        in
        Machine.recycle p.Engine.machine;
        r)
      programs
  in
  let dtb = Engine.dtb e in
  {
    mr_policy = policy;
    mr_scheduler = scheduler;
    mr_quantum = quantum;
    mr_config = config;
    mr_programs = results;
    mr_total_cycles = clock;
    mr_switches = Engine.switches e;
    mr_flushes = Engine.flushes e;
    mr_hit_ratio = Dtb.hit_ratio dtb;
    mr_evictions = Dtb.evictions dtb;
    mr_trace = Engine.trace e;
  }

let run ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ~policy
    ~quantum ~config ~kind programs =
  run_encoded ?timing ?fuel ?layout ?backend ?trace_capacity ?scheduler ~policy
    ~quantum ~config
    (List.map (fun (name, p) -> (name, Codec.encode kind p)) programs)

let solo_quantum = max_int
