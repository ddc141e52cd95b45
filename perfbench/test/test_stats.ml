(* The benchmark's own arithmetic: nearest-rank percentiles, ratio
   bases, span self time and the exact-repeat check; and the reference
   kernel's result. *)

open Perfbench

let feq = Alcotest.float 1e-12
let ints = List.map float_of_int

let percentiles () =
  let xs = ints [ 15; 20; 35; 40; 50 ] in
  (* the textbook nearest-rank example: ranks ceil(p/100 * 5) *)
  Alcotest.check feq "p5" 15. (Stats.nearest_rank 5. xs);
  Alcotest.check feq "p30" 20. (Stats.nearest_rank 30. xs);
  Alcotest.check feq "p40" 20. (Stats.nearest_rank 40. xs);
  Alcotest.check feq "p50" 35. (Stats.nearest_rank 50. xs);
  Alcotest.check feq "p100" 50. (Stats.nearest_rank 100. xs);
  (* order of the input does not matter, and a sample is always returned *)
  Alcotest.check feq "unsorted" 35. (Stats.nearest_rank 50. (ints [ 50; 15; 40; 35; 20 ]));
  let hundred = ints (List.init 100 (fun i -> 100 - i)) in
  Alcotest.check feq "p90 of 1..100" 90. (Stats.nearest_rank 90. hundred);
  Alcotest.check feq "p99 of 1..100" 99. (Stats.nearest_rank 99. hundred);
  (* rank ceil(45 * 100 / 100) = 45, not the 46 that 0.45 * 100 rounds to *)
  Alcotest.check feq "p45 of 1..100" 45. (Stats.nearest_rank 45. hundred);
  Alcotest.check feq "single" 7. (Stats.nearest_rank 99. [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.nearest_rank: no samples")
    (fun () -> ignore (Stats.nearest_rank 50. []));
  Alcotest.check_raises "p0" (Invalid_argument "Stats.nearest_rank: percentile outside (0, 100]")
    (fun () -> ignore (Stats.nearest_rank 0. [ 1. ]))

let windows () =
  let hundred = ints (List.init 100 (fun i -> i + 1)) in
  (* ranks 45..55 of 1..100 *)
  Alcotest.check feq "p45-55" 50. (Stats.window_mean ~lo:45. ~hi:55. hundred);
  (* ranks 85..95 *)
  Alcotest.check feq "p85-95" 90. (Stats.window_mean ~lo:85. ~hi:95. hundred);
  (* a degenerate window is the nearest-rank percentile *)
  Alcotest.check feq "p50-50" (Stats.nearest_rank 50. hundred)
    (Stats.window_mean ~lo:50. ~hi:50. hundred);
  (* 22 ops: ranks ceil(9.9) = 10 .. ceil(12.1) = 13 *)
  let ops = ints (List.init 22 (fun i -> (i + 1) * 10)) in
  Alcotest.check feq "22 ops" 115. (Stats.window_mean ~lo:45. ~hi:55. ops);
  (* one op moving across the window edge moves the mean by a quarter of
     the gap, not the whole gap *)
  let gap = ints [ 1; 1; 1; 1; 1; 9; 9; 9; 9; 9 ] in
  Alcotest.check feq "gap" 5. (Stats.window_mean ~lo:45. ~hi:55. gap);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.window_mean: no samples")
    (fun () -> ignore (Stats.window_mean ~lo:45. ~hi:55. []));
  Alcotest.check_raises "inverted" (Invalid_argument "Stats.window_mean: need 0 < lo <= hi <= 100")
    (fun () -> ignore (Stats.window_mean ~lo:55. ~hi:45. [ 1. ]))

let medians () =
  Alcotest.check feq "odd" 3. (Stats.median (ints [ 5; 1; 3 ]));
  Alcotest.check feq "even" 2.5 (Stats.median (ints [ 4; 1; 3; 2 ]));
  Alcotest.check feq "two" 1.5 (Stats.median [ 2.; 1. ])

let ratios () =
  Alcotest.check feq "part/base" 0.25 (Stats.ratio ~part:1. ~base:4.);
  Alcotest.check feq "ints" 0.75 (Stats.ratio_int ~part:3 ~base:4);
  Alcotest.check_raises "empty base" (Invalid_argument "Stats.ratio: base must be positive")
    (fun () -> ignore (Stats.ratio_int ~part:0 ~base:0));
  (* overhead is relative to the untraced baseline, not the traced run *)
  Alcotest.check feq "overhead" 25. (Stats.overhead_pct ~baseline:4. ~measured:5.);
  Alcotest.check feq "faster" (-20.) (Stats.overhead_pct ~baseline:5. ~measured:4.)

let self_time () =
  (* no children: the whole span *)
  Alcotest.(check int) "leaf" 10 (Stats.self_time ~start:0 ~stop:10 []);
  (* sequential children are subtracted *)
  Alcotest.(check int) "two children" 4
    (Stats.self_time ~start:0 ~stop:10 [ (1, 3); (5, 9) ]);
  (* overlapping children (other domains) count once *)
  Alcotest.(check int) "overlap" 3
    (Stats.self_time ~start:0 ~stop:10 [ (2, 6); (4, 9) ]);
  (* a child running past its parent is clipped *)
  Alcotest.(check int) "clipped" 5
    (Stats.self_time ~start:0 ~stop:10 [ (5, 20) ]);
  Alcotest.(check int) "nested ok" 7
    (Stats.self_time ~start:0 ~stop:10 [ (1, 4); (2, 3) ])

let repeats () =
  let r = [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check (list string)) "identical" [] (Stats.repeat_mismatches [ r; r; r ]);
  Alcotest.(check (list string)) "one differs" [ "b" ]
    (Stats.repeat_mismatches [ r; [ ("a", "1"); ("b", "3") ]; r ]);
  Alcotest.(check (list string)) "missing key" [ "b" ]
    (Stats.repeat_mismatches [ r; [ ("a", "1") ] ]);
  Alcotest.(check (list string)) "extra key" [ "c" ]
    (Stats.repeat_mismatches [ r; r @ [ ("c", "0") ] ]);
  Alcotest.(check (list string)) "single repeat" [] (Stats.repeat_mismatches [ r ])

let spans () =
  Span.enabled := true;
  Span.clear ();
  let v =
    Span.with_span "outer" (fun () ->
        Span.with_span "inner" (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0)));
        42)
  in
  Alcotest.(check int) "value" 42 v;
  (match Span.all () with
  | [ inner; outer ] ->
      Alcotest.(check string) "closed first" "inner" inner.Span.name;
      Alcotest.(check int) "parent" outer.Span.id inner.Span.parent;
      Alcotest.(check int) "root" 0 outer.Span.parent;
      Alcotest.(check bool) "nested" true
        (outer.Span.start_ns <= inner.Span.start_ns && inner.Span.stop_ns <= outer.Span.stop_ns)
  | _ -> Alcotest.fail "two spans expected");
  Alcotest.(check bool) "self <= total" true
    (Span.self_total "outer" <= Span.total "outer");
  (* a raising call still closes its span *)
  (try Span.with_span "raises" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "closed on raise" true
    (List.exists (fun s -> s.Span.name = "raises") (Span.all ()));
  Span.enabled := false;
  Span.clear ();
  Alcotest.(check int) "off: plain call" 1 (Span.with_span "off" (fun () -> 1));
  Alcotest.(check int) "off: nothing kept" 0 (List.length (Span.all ()))

let calib () =
  (* the divisor counts of 2..600: the kernel computes what it claims *)
  let expected = ref 0 in
  for n = 2 to 600 do
    for d = 1 to n do
      if n mod d = 0 then incr expected
    done
  done;
  Alcotest.(check int) "sum of divisor counts" !expected (Calib.kernel ());
  Alcotest.(check int) "repeats" !expected (Calib.kernel ())

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "windowed percentiles" `Quick windows;
          Alcotest.test_case "median" `Quick medians;
          Alcotest.test_case "ratio bases" `Quick ratios;
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "exact-repeat check" `Quick repeats;
        ] );
      ("span", [ Alcotest.test_case "spans" `Quick spans ]);
      ("calib", [ Alcotest.test_case "reference kernel" `Quick calib ]);
    ]
