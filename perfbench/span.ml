(* Host-time spans around calls into the library's layers.

   Off by default: [with_span] is then a plain call.  When on, every span
   records its name, start and end on a monotonic clock, the span that
   was open on the same domain when it started and the op it belongs
   to.  Spans stay in memory until [write] dumps them at the end of the
   run. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* 0: a root span *)
  start_ns : int;
  stop_ns : int;
}

let enabled = ref false
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Closed spans; appended from any domain. *)
let lock = Mutex.create ()
let closed : t list ref = ref []
let next_id = Atomic.make 1

type ctx = { mutable stack : int list; mutable op : int }

let ctx = Domain.DLS.new_key (fun () -> { stack = []; op = 0 })
let set_op op = (Domain.DLS.get ctx).op <- op

let with_span name f =
  if not !enabled then f ()
  else begin
    let c = Domain.DLS.get ctx in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match c.stack with p :: _ -> p | [] -> 0 in
    let op = c.op in
    c.stack <- id :: c.stack;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      c.stack <- List.tl c.stack;
      Mutex.lock lock;
      closed := { id; name; op; parent; start_ns; stop_ns } :: !closed;
      Mutex.unlock lock
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !closed
let clear () = closed := []

let seconds ns = float_of_int ns *. 1e-9

(* Total time inside spans called [name], in seconds. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + (s.stop_ns - s.start_ns) else acc)
    0 !closed
  |> seconds

(* Total self time of the spans called [name]: each one's duration minus
   what its child spans cover. *)
let self_total name =
  let spans = !closed in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_ns, s.stop_ns))
    spans;
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc
        + Stats.self_time ~start:s.start_ns ~stop:s.stop_ns
            (Hashtbl.find_all children s.id)
      else acc)
    0 spans
  |> seconds

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        (if i = 0 then "" else ",")
        s.id s.name s.op s.parent s.start_ns s.stop_ns)
    (all ());
  output_string oc "]\n";
  close_out oc
