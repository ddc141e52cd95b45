(* The scheduling disciplines; see scheduler.mli. *)

type policy = Round_robin | Shortest_remaining

let policy_name = function
  | Round_robin -> "rr"
  | Shortest_remaining -> "srtf"
