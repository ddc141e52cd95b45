(** The scheduling disciplines of the multiprogramming drivers.

    The drivers themselves — the closed mix, the fault campaign and the
    open-arrival service — share one dispatch step,
    [Uhm_fault.Engine.pick] and [Uhm_fault.Engine.dispatch], which takes
    one of these policies.  Preemption happens only at INTERP boundaries
    ({!Uhm_machine.Machine.run_dir_quantum}), the points where a shared
    DTB can be flushed or repartitioned safely. *)

type policy =
  | Round_robin         (** cycle through the runnable programs in order *)
  | Shortest_remaining  (** preemptive shortest-remaining-[dir_steps]-first:
                            always dispatch the runnable program with the
                            fewest estimated DIR instructions left *)

val policy_name : policy -> string
(** ["rr"], ["srtf"]. *)
