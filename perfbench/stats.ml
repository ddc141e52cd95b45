(* The benchmark's own arithmetic: percentiles, ratios with an explicit
   base, span self time and the exact-repeat check.  Pure functions, so
   test/test_stats.ml can pin every one of them. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are <= it, i.e. the [ceil (p/100 * n)]-th
   smallest (1-based).  [p] in (0, 100]. *)
let nearest_rank p xs =
  if xs = [] then invalid_arg "Stats.nearest_rank: no samples";
  if not (p > 0. && p <= 100.) then
    invalid_arg "Stats.nearest_rank: percentile outside (0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  (* p * n / 100, not p / 100 * n: 45 / 100 * 100 rounds up to 46 *)
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  a.(max 1 (min n rank) - 1)

(* A windowed percentile: the mean of the samples whose nearest rank
   lies between the [lo]-th and the [hi]-th percentile, both included.
   Where the samples come from a few dozen distinct ops with gaps between
   them, a single nearest-rank sample jumps from one op to the next as
   noise reorders them; the window's mean moves by a fraction of that. *)
let window_mean ~lo ~hi xs =
  if xs = [] then invalid_arg "Stats.window_mean: no samples";
  if not (lo > 0. && lo <= hi && hi <= 100.) then
    invalid_arg "Stats.window_mean: need 0 < lo <= hi <= 100";
  let a = sorted xs in
  let n = Array.length a in
  let rank p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n /. 100.)))) in
  let r0 = rank lo and r1 = rank hi in
  let total = ref 0. in
  for i = r0 - 1 to r1 - 1 do
    total := !total +. a.(i)
  done;
  !total /. float_of_int (r1 - r0 + 1)

(* The conventional median: the middle sample, or the mean of the two
   middle samples when the count is even. *)
let median xs =
  if xs = [] then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [part / base]; a ratio whose base is empty is a bug in the caller,
   never a silent 0 or nan in a report. *)
let ratio ~part ~base =
  if not (base > 0.) then
    invalid_arg "Stats.ratio: base must be positive";
  part /. base

let ratio_int ~part ~base = ratio ~part:(float_of_int part) ~base:(float_of_int base)

(* How much slower [measured] is than [baseline], in percent of
   [baseline]. *)
let overhead_pct ~baseline ~measured =
  100. *. ratio ~part:(measured -. baseline) ~base:baseline

(* The length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, max ce e))
        | Some (cs, ce) -> (total + (ce - cs), Some (s, e)))
      (0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total + (e - s)

(* A span's self time: its duration minus the part of it that its
   children cover (children on other domains may overlap each other, so
   the union is subtracted, not the sum). *)
let self_time ~start ~stop children =
  stop - start - covered ~lo:start ~hi:stop children

(* The exact-repeat check: every repeat must give each key exactly the
   value the first repeat gave it, and the same key set.  Returns the
   keys that differ (or appear in only some repeats). *)
let repeat_mismatches repeats =
  match repeats with
  | [] -> []
  | first :: rest ->
      let bad = ref [] in
      let note k = if not (List.mem k !bad) then bad := k :: !bad in
      List.iter
        (fun r ->
          List.iter
            (fun (k, v) ->
              match List.assoc_opt k first with
              | Some v0 when v0 = v -> ()
              | _ -> note k)
            r;
          List.iter (fun (k, _) -> if not (List.mem_assoc k r) then note k) first)
        rest;
      List.rev !bad
