(** The per-attempt fault engine: one program's run over a shared DTB
    with fault injection, guarded translations, checkpoint rollback and
    watchdog downgrade threaded through its hook points, and the one
    dispatch step that every driver runs.

    Every driver sits on this module: the closed loop {!run_closed}
    (behind {!Mix.run_encoded} at a silent config and
    {!Resilient.run_encoded}) and the open-arrival service
    ([Uhm_serve.Serve], under [Uhm_serve.Chaos]).  A driver decides who
    may run and owns the virtual clock; {!pick} chooses the next slot
    under round-robin or SRTF, and {!dispatch} switches the DTB to it,
    runs the slice and records the switch, flush, completion and expiry
    events.  The slice itself ({!slice}) runs the quantum and then
    settles the attempt: it aborts a translation left open by a machine
    that died mid-install, rolls back on outstanding memory faults, then
    either downgrades to pure interpretation or takes a periodic
    checkpoint.

    Under a {e silent} config (a zero injector, guards off) no per-INTERP
    fault hook exists at all: attempts are prepared with
    {!Uhm_core.Uhm.prepare_dtb_shared}'s plain INTERP hook, so the
    fault-free path pays nothing for the machinery it does not use. *)

module Machine := Uhm_machine.Machine
module Dtb := Uhm_core.Dtb
module Trace := Uhm_sched.Trace
module Scheduler := Uhm_sched.Scheduler

type config = {
  injector : Injector.spec;
  guards : bool;                  (** verify per-entry checksums on hits *)
  checkpoint_every : int option;  (** DIR steps between checkpoints;
                                      required when the injector can
                                      produce [Mem_word] faults *)
  retry_limit : int;              (** per-DIR-address detections before a
                                      forced downgrade *)
  backoff_cycles : int;           (** base of the exponential recovery
                                      backoff (doubles per attempt,
                                      capped at 64x) *)
  watchdog_window : int;          (** sliding window, in DIR steps *)
  watchdog_threshold : int;       (** recovery events within the window
                                      that trigger a downgrade *)
}

val interp_cycles_per_dir : int
(** How many cycles one DIR instruction of pure interpretation is worth
    when a downgraded attempt's DIR-step quantum is converted into a
    cycle budget. *)

type mode = Translating | Downgraded

type t = private {
  asid : int;                       (** the DTB and trace ASID *)
  encoded : Uhm_encoding.Codec.encoded;
  inj : Injector.t;
  guard : Guard.t;
  retries : (int, int) Hashtbl.t;   (** dir_addr -> recovery attempts *)
  watchdog : int Queue.t;           (** steps of recent recovery events *)
  mutable machine : Machine.t;
  mutable mode : mode;
  mutable translating : int option; (** dir_addr of the open install *)
  mutable doomed : bool;            (** armed translator fault *)
  mutable ck : Machine.checkpoint option;
  mutable ck_step : int;
  mutable outstanding : int list;   (** data addresses hit by [Mem_word] *)
  mutable downgrade_pending : bool;
  mutable finished : Machine.status option;
  mutable out_prefix : string;      (** output produced before downgrade *)
  mutable base_cycles : int;        (** cycles accumulated pre-downgrade *)
  mutable slices : int;
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable rolled_back : int;
}
(** One attempt of one program. *)

type env
(** What one driver run shares across its attempts: the directory, the
    trace, the config, the slice-relative clock and the dispatch state
    (the slot dispatched last, the switch count, each slot's DTB
    activity). *)

val env :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?on_detect:(at:int -> asid:int -> unit) ->
  dtb:Dtb.t ->
  trace:Trace.t ->
  slots:int ->
  tagged_keys:bool ->
  config ->
  env
(** [slots] is the number of ASID slots [dtb] was created for.
    [tagged_keys]: the directory keys carry ASIDs (several programs share
    a [Tagged]/[Partitioned] tag array), so a rollback can invalidate one
    program's entries instead of flushing the buffer.  [on_detect] is
    told the virtual time and ASID of every machinery detection (guard
    failures and scrubbed memory faults).  Raises [Invalid_argument] when
    the injector can produce [Mem_word] faults without a
    [checkpoint_every] cadence. *)

val create : env -> asid:int -> stream:int -> ?interp0:bool ->
  Uhm_encoding.Codec.encoded -> t
(** A fresh attempt in slot [asid], drawing faults from injector stream
    [stream].  [interp0] (default [false]) starts it downgraded, as pure
    interpretation that never touches the DTB. *)

val cycles : t -> int
(** Cycles executed, across a downgrade. *)

val output : t -> string
(** Output produced, across a downgrade. *)

val slice : ?contain:bool -> env -> t -> now:int -> quantum:int -> int
(** Run one slice of [quantum] DIR steps (a downgraded attempt gets the
    equivalent cycle budget) starting at virtual time [now], settle the
    attempt, and return the cycles the slice took.  [finished] is set
    when the machine stopped.  With [contain], a host exception from a
    fault-corrupted machine finishes the attempt as
    [Trapped "machine crash: ..."] instead of propagating. *)

(** {2 Dispatch} *)

val pick :
  env ->
  Scheduler.policy ->
  runnable:(int -> bool) ->
  remaining:(int -> int) ->
  int option
(** The next slot to dispatch, or [None] when no slot is [runnable].
    [Round_robin] scans circularly from the slot after the one
    dispatched last; [Shortest_remaining] takes the runnable slot with
    the smallest [remaining] DIR-step estimate, ties to the lowest slot.
    [remaining] is only called under [Shortest_remaining]. *)

val dispatch : ?contain:bool -> env -> t -> now:int -> quantum:int -> int
(** Dispatch the attempt in slot [t.asid] at virtual time [now]: when it
    is not the slot dispatched last, switch the DTB to it (counting the
    switch and recording [Switch], plus [Dtb_flush] when the switch
    flushed); run {!slice}; add the slice's DTB hits, misses and
    evictions to the slot's totals; record [Completion] or
    [Quantum_expiry].  Returns the clock after the slice. *)

val run_closed :
  ?timing:Uhm_machine.Timing.t ->
  ?fuel:int ->
  ?layout:Uhm_psder.Layout.t ->
  ?backend:Machine.backend ->
  ?trace_capacity:int ->
  scheduler:Scheduler.policy ->
  policy:Dtb.policy ->
  quantum:int ->
  config:Dtb.config ->
  config ->
  Uhm_encoding.Codec.encoded list ->
  env * t array * int
(** The closed loop: one attempt per program in slot (ASID) order over a
    fresh shared DTB, [pick] then [dispatch] until every attempt has
    finished.  Returns the env, the finished attempts (their machines
    not yet recycled) and the final clock.  [trace_capacity] defaults to
    65536.  Raises [Invalid_argument] on an empty list or a quantum
    below 1. *)

val dtb : env -> Dtb.t
val trace : env -> Trace.t

val switches : env -> int
(** Dispatches that switched to a different slot. *)

val flushes : env -> int
(** DTB flushes since the env was created. *)

val slot_dtb : env -> asid:int -> int * int * int
(** DTB hits, misses and evictions during the slices of slot [asid]
    (the victims may have belonged to anyone). *)

val arch_fingerprint : layout:Uhm_psder.Layout.t -> Machine.t -> int
(** Fingerprint of sp/fp/dtop, the live operand stack and the live data
    region — the recovery invariant's state summary. *)
