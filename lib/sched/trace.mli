(** Event-trace observability for the multiprogramming scheduler.

    A bounded ring buffer of typed scheduling events plus per-program
    counter rollups.  The ring keeps the last [capacity] events (older
    ones are {!dropped}); the rollups are maintained on {e every}
    {!record}, so {!counts} stays exact no matter how small the ring.
    Everything is deterministic: same event sequence, same trace. *)

type kind =
  | Switch of { from_asid : int option; to_asid : int }
      (** the scheduler dispatched [to_asid]; [from_asid] is [None] for
          the first dispatch *)
  | Dtb_flush of { asid : int }
      (** the shared DTB was flushed while switching to [asid] *)
  | Translation of { asid : int; dir_addr : int }
      (** [asid] started translating the DIR instruction at [dir_addr] *)
  | Quantum_expiry of { asid : int }
  | Completion of { asid : int; ok : bool }
      (** [ok] is false for traps and fuel exhaustion *)
  | Fault_injected of { asid : int; fclass : string }
      (** the injector applied a fault of class [fclass] (the
          [Injector.class_name]) to [asid]'s state *)
  | Fault_detected of { asid : int; fclass : string }
      (** a guard check or memory scrub caught a fault of class [fclass] *)
  | Recovery_retry of { asid : int; dir_addr : int; attempt : int }
      (** recovery invalidated the guarded translation of [dir_addr] and
          is re-translating; [attempt] counts from 1 *)
  | Rollback of { asid : int; pages : int }
      (** [asid] was rewound to its last checkpoint ([pages] memory pages
          restored) for replay *)
  | Downgrade of { asid : int }
      (** the watchdog demoted [asid] from dynamic translation to pure
          DIR interpretation *)
  | Job_queued of { job : int; depth : int }
      (** the load service accepted arriving job [job] into the admission
          queue; [depth] is the queue length after *)
  | Job_shed of { job : int; depth : int }
      (** admission control refused job [job] (full queue or shed
          threshold); [depth] is the unchanged queue length *)
  | Job_admitted of { job : int; asid : int; wait : int; depth : int }
      (** job [job] left the queue for ASID slot [asid] after [wait]
          cycles of queueing delay; [depth] is the queue length after *)
  | Asid_evicted of { asid : int; entries : int; cold : bool }
      (** the eviction economy invalidated [asid]'s [entries] resident
          translations — [cold] for an idle/footprint-scored eviction,
          not-[cold] for the mandatory invalidation when a slot is
          recycled to a new job *)
  | Deadline_miss of { job : int; asid : int; by : int }
      (** job [job] completed on slot [asid] but [by] cycles past its
          SLO latency bound *)
  | Job_retry of { job : int; asid : int; attempt : int }
      (** a detected fault voided job [job]'s attempt on slot [asid]; the
          service will re-run it from scratch as attempt [attempt]
          (counting from 2) after an exponential-backoff delay *)
  | Job_failed of { job : int; asid : int; attempts : int }
      (** job [job] exhausted its per-job retry budget after [attempts]
          attempts and was retired with the distinct [Failed] outcome —
          the service never reports a corrupted answer *)
  | Interp_admit of { job : int; asid : int }
      (** brownout stage 2: job [job] was admitted in pure-interpretation
          mode, sidestepping the translation fault surface *)
  | Brownout of { from_stage : int; to_stage : int }
      (** the brownout controller moved between degradation stages
          (0 normal, 1 shed harder, 2 admit as interpretation,
          3 quarantine the poisoned slot) *)
  | Slot_quarantined of { asid : int; entries : int; until : int }
      (** brownout stage 3 took slot [asid] out of service until cycle
          [until], flushing its [entries] resident translations *)

type event = { at_cycle : int; kind : kind }
(** [at_cycle] is global virtual time: total cycles executed by all
    programs when the event fired. *)

type counts = {
  c_dispatches : int;
  (** dispatches of this program: quanta where the scheduler switched to
      it.  Deliberately not named "slices" — a program that runs several
      consecutive quanta (e.g. the last survivor under round-robin)
      counts one dispatch but many slices; per-quantum slice counts live
      in the scheduler's per-program results. *)
  c_flushes : int;
  c_translations : int;
  c_expiries : int;
  c_injections : int;
  c_detections : int;
  c_retries : int;
  c_rollbacks : int;
  c_downgrades : int;
  c_admits : int;
  c_evicts : int;
  c_deadline_misses : int;
  c_job_retries : int;
  c_job_failures : int;
  c_interp_admits : int;
  c_quarantines : int;
}

type t

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** [capacity] (default {!default_capacity}) bounds the ring. *)

val capacity : t -> int

val record : t -> at_cycle:int -> kind -> unit

val recorded : t -> int
(** Total events ever recorded. *)

val dropped : t -> int
(** Events pushed out of the ring: [max 0 (recorded - capacity)]. *)

val events : t -> event list
(** The buffered window, oldest first; at most [capacity] events. *)

val counts : t -> int -> counts
(** Exact rollup for one ASID (zero counts if never seen). *)

val tallies : t -> (int * counts) list
(** All rollups, sorted by ASID. *)

val injected_by_class : t -> (string * int) list
(** Exact injection counts per fault class across all ASIDs, sorted by
    class name.  Maintained on every {!record}, independent of ring
    capacity. *)

val detected_by_class : t -> (string * int) list
(** Exact detection counts per fault class across all ASIDs, sorted by
    class name. *)

val queued_total : t -> int
(** Exact count of {!Job_queued} events.  A queued/shed job has no ASID
    yet, so these live beside the per-ASID tallies, maintained on every
    {!record} like them. *)

val shed_total : t -> int
(** Exact count of {!Job_shed} events. *)

val brownout_transitions : t -> int
(** Exact count of {!Brownout} stage transitions.  Stage is global
    service state, not a per-ASID property, so like the queue counters it
    lives beside the tallies. *)

val brownout_peak : t -> int
(** The highest brownout stage ever entered (0 when the controller never
    escalated). *)

val to_chrome : ?pid:int -> names:(int -> string) -> end_cycle:int -> t -> string
(** The Chrome [trace_event] JSON-array document for the buffered window,
    loadable in about://tracing (or ui.perfetto.dev): one timeline row per
    program ([tid] = ASID, named via metadata events), ["X"] complete
    events for scheduler slices (reconstructed from the {!Switch} events;
    the final slice is closed at [end_cycle]), and instant events for
    flushes, translations, quantum expiries, completions, the fault
    lifecycle (injection, detection, retry, rollback, downgrade — in a
    separate ["fault"] category) and the load-service lifecycle (queued,
    shed, admitted, ASID evicted, in a ["serve"] category, plus a
    ["C"]-counter [queue_depth] series so the admission queue's breathing
    is visible as a graph).  The fault-tolerant-serving events land in
    ["slo"]/["chaos"] categories: deadline misses, job retries and
    failures, interpretation admissions, slot quarantines, and a
    ["C"]-counter [brownout_stage] series tracking the controller's
    degradation stage.  When the ring dropped events, a final
    [ring_dropped:N] instant records the truncation in the export
    itself.  Simulated
    cycles are reported as microseconds, so the timeline reads directly
    in cycles.  [names] maps an ASID to its program name. *)
