(* The host-speed gauge: a fixed reference kernel whose CPU time tells
   how fast the host runs right now.

   On a shared host the same code can run 2 to 2.5 times slower for half
   an hour, in CPU time too.  Within such a spell the speed still swings
   from one second to the next, and the library and the kernel swing
   together, so the library's time divided by the kernel's time next to
   it is steadier than either.  The kernel is a small register
   interpreter (dispatch on a variant, a frame record allocated per
   call, a table written in memory), as the simulator is, and it uses
   no library code, so no change to the library can move it.

   It counts the divisors of every n in 2..600: about a million
   interpreted instructions, a few milliseconds. *)

type ins =
  | Li of int * int  (* r.(d) <- v *)
  | Add of int * int * int
  | Rem of int * int * int
  | Blt of int * int * int  (* if r.(a) < r.(b) goto t *)
  | Beq of int * int * int
  | Jmp of int
  | Call of int
  | Ret
  | St of int * int  (* mem.(r.(a)) <- r.(s) *)
  | Halt

type frame = { ret : int; arg : int }

let program =
  [|
    (* 0 *) Li (1, 2) (* n *);
    (* 1 *) Li (2, 0) (* total *);
    (* 2 *) Li (7, 1);
    (* 3 *) Li (6, 0);
    (* 4 *) Li (9, 600);
    (* 5 *) Blt (9, 1, 10);
    (* 6 *) Call 11;
    (* 7 *) Add (2, 2, 3);
    (* 8 *) Add (1, 1, 7);
    (* 9 *) Jmp 5;
    (* 10 *) Halt;
    (* 11: r3 <- the number of divisors of r1 *) Li (3, 0);
    (* 12 *) Li (4, 1) (* d *);
    (* 13 *) Blt (1, 4, 21);
    (* 14 *) Rem (5, 1, 4);
    (* 15 *) Beq (5, 6, 17);
    (* 16 *) Jmp 18;
    (* 17 *) Add (3, 3, 7);
    (* 18 *) St (4, 5);
    (* 19 *) Add (4, 4, 7);
    (* 20 *) Jmp 13;
    (* 21 *) Ret;
  |]

let mem = Array.make 4096 0

(* The sum of the divisor counts of 2..600. *)
let kernel () =
  let r = Array.make 10 0 in
  let stack = ref [] and pc = ref 0 and running = ref true in
  while !running do
    match program.(!pc) with
    | Li (d, v) -> r.(d) <- v; incr pc
    | Add (d, a, b) -> r.(d) <- r.(a) + r.(b); incr pc
    | Rem (d, a, b) -> r.(d) <- r.(a) mod r.(b); incr pc
    | Blt (a, b, t) -> if r.(a) < r.(b) then pc := t else incr pc
    | Beq (a, b, t) -> if r.(a) = r.(b) then pc := t else incr pc
    | Jmp t -> pc := t
    | Call t ->
        stack := { ret = !pc + 1; arg = r.(1) } :: !stack;
        pc := t
    | Ret -> (
        match !stack with
        | f :: rest ->
            stack := rest;
            r.(1) <- f.arg;
            pc := f.ret
        | [] -> invalid_arg "Calib.kernel: return with no frame")
    | St (a, s) -> mem.(r.(a) land 4095) <- r.(s); incr pc
    | Halt -> running := false
  done;
  r.(2)

(* The unit of calibrated time: a host on which one kernel run takes
   this long.  The value only fixes the unit; changing it would rescale
   every calibrated time by the same factor. *)
let nominal_s = 0.002
