(* Tests for the host-machine substrate: caches, short-format words, the
   assembler, and the execution engine's semantics and cycle accounting. *)

module Cache = Uhm_machine.Cache
module SF = Uhm_machine.Short_format
module Asm = Uhm_machine.Asm
module H = Uhm_machine.Host_isa
module R = Uhm_machine.Host_isa.Regs
module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module Writer = Uhm_bitstream.Writer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- Cache ------------------------------------------------------------------ *)

let test_cache_basics () =
  let c = Cache.create ~assoc:2 ~block_words:1 ~capacity_words:4 () in
  check_bool "first access misses" true (Cache.access c 0 = `Miss);
  check_bool "second access hits" true (Cache.access c 0 = `Hit);
  check_bool "same block hits" true
    (let c = Cache.create ~assoc:1 ~block_words:4 ~capacity_words:8 () in
     ignore (Cache.access c 0);
     Cache.access c 3 = `Hit);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2 sets, 2 ways, 1-word blocks; addresses 0,2,4 map to set 0 *)
  let c = Cache.create ~assoc:2 ~block_words:1 ~capacity_words:4 () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 2);
  ignore (Cache.access c 0);          (* 0 is now MRU *)
  ignore (Cache.access c 4);          (* evicts 2 *)
  check_bool "0 resident" true (Cache.contains c 0);
  check_bool "2 evicted" false (Cache.contains c 2);
  check_bool "4 resident" true (Cache.contains c 4)

let test_cache_full_assoc () =
  let c = Cache.create ~assoc:0 ~block_words:1 ~capacity_words:4 () in
  List.iter (fun a -> ignore (Cache.access c a)) [ 0; 1; 2; 3 ];
  ignore (Cache.access c 1);
  ignore (Cache.access c 9);          (* evicts LRU = 0 *)
  check_bool "0 evicted" false (Cache.contains c 0);
  check_bool "1 retained" true (Cache.contains c 1)

let test_cache_bad_geometry () =
  Alcotest.check_raises "non-power-of-two sets"
    (Invalid_argument "Cache.create: set count must be a power of two")
    (fun () -> ignore (Cache.create ~assoc:1 ~block_words:1 ~capacity_words:3 ()))

(* Differential reference: the seed's counter-shuffle LRU, kept verbatim so
   the timestamp-based implementation is pinned to produce the identical
   hit/miss/eviction sequence. *)
module Counter_lru = struct
  type t = {
    tags : int array array;
    order : int array array;  (* 0 = most recent *)
    sets : int;
    assoc : int;
    block_words : int;
  }

  let create ~assoc ~block_words ~capacity_words =
    let blocks = capacity_words / block_words in
    let assoc = if assoc = 0 then blocks else assoc in
    let sets = blocks / assoc in
    {
      tags = Array.make_matrix sets assoc (-1);
      order = Array.init sets (fun _ -> Array.init assoc (fun w -> w));
      sets;
      assoc;
      block_words;
    }

  let touch c set way =
    let order = c.order.(set) in
    let old = order.(way) in
    for w = 0 to c.assoc - 1 do
      if order.(w) < old then order.(w) <- order.(w) + 1
    done;
    order.(way) <- 0

  let access c addr =
    let block = addr / c.block_words in
    let set = block land (c.sets - 1) in
    let tags = c.tags.(set) in
    let rec find w =
      if w >= c.assoc then None
      else if tags.(w) = block then Some w
      else find (w + 1)
    in
    match find 0 with
    | Some way ->
        touch c set way;
        `Hit
    | None ->
        let order = c.order.(set) in
        let victim = ref 0 in
        for w = 1 to c.assoc - 1 do
          if order.(w) > order.(!victim) then victim := w
        done;
        tags.(!victim) <- block;
        touch c set !victim;
        `Miss
end

let prop_timestamp_lru_matches_counter_lru =
  let gen =
    QCheck.Gen.(
      oneofl [ (0, 8); (1, 8); (2, 8); (4, 16); (8, 16) ]
      >>= fun (assoc, capacity) ->
      list_size (int_range 1 400) (int_bound 63)
      >>= fun addrs -> return (assoc, capacity, addrs))
  in
  QCheck.Test.make
    ~name:"timestamp LRU = counter LRU (hit/miss and residency)" ~count:200
    (QCheck.make
       ~print:(fun (a, c, addrs) ->
         Printf.sprintf "assoc=%d cap=%d [%s]" a c
           (String.concat ";" (List.map string_of_int addrs)))
       gen)
    (fun (assoc, capacity, addrs) ->
      let c = Cache.create ~assoc ~block_words:1 ~capacity_words:capacity () in
      let r = Counter_lru.create ~assoc ~block_words:1 ~capacity_words:capacity in
      List.for_all (fun a -> Cache.access c a = Counter_lru.access r a) addrs
      && List.for_all
           (fun a ->
             Cache.contains c a
             = Array.exists (Array.exists (fun t -> t = a)) r.Counter_lru.tags)
           (List.init 64 Fun.id))

(* reference fully-associative LRU *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"fully-associative cache = reference LRU" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 40))
    (fun addrs ->
      let capacity = 8 in
      let c = Cache.create ~assoc:0 ~block_words:1 ~capacity_words:capacity () in
      let reference = ref [] in
      List.for_all
        (fun a ->
          let model_hit = List.mem a !reference in
          reference := a :: List.filter (fun x -> x <> a) !reference;
          if List.length !reference > capacity then
            reference := List.filteri (fun i _ -> i < capacity) !reference;
          let actual = Cache.access c a in
          (actual = `Hit) = model_hit)
        addrs)

(* -- Short format ------------------------------------------------------------ *)

let test_short_pack_known () =
  let w = SF.pack ~ctx:3 SF.Interp_imm 100 in
  let op, ctx, operand = SF.unpack w in
  check_bool "op" true (op = SF.Interp_imm);
  check_int "ctx" 3 ctx;
  check_int "operand" 100 operand

let prop_short_roundtrip =
  let ops =
    [ SF.Push_imm; SF.Push_dir; SF.Push_ind; SF.Pop_dir; SF.Call_long;
      SF.Interp_imm; SF.Interp_stk; SF.Goto; SF.Goto_stk ]
  in
  QCheck.Test.make ~name:"short word pack/unpack round-trip" ~count:300
    QCheck.(
      triple (int_bound (List.length ops - 1)) (int_bound SF.max_ctx)
        (int_range (-1_000_000_000) 1_000_000_000))
    (fun (opi, ctx, operand) ->
      let op = List.nth ops opi in
      let op', ctx', operand' = SF.unpack (SF.pack ~ctx op operand) in
      op = op' && ctx = ctx' && operand = operand')

(* The engine's DTB dispatch path reads fields with the allocation-free
   accessors instead of building [unpack]'s tuple; pin them to it. *)
let prop_unpack_accessors_match_tuple =
  let ops =
    [ SF.Push_imm; SF.Push_dir; SF.Push_ind; SF.Pop_dir; SF.Call_long;
      SF.Interp_imm; SF.Interp_stk; SF.Goto; SF.Goto_stk ]
  in
  QCheck.Test.make ~name:"unpack field accessors = tuple unpack" ~count:500
    QCheck.(
      triple (int_bound (List.length ops - 1)) (int_bound SF.max_ctx)
        (int_range (-1_000_000_000) 1_000_000_000))
    (fun (opi, ctx, operand) ->
      let w = SF.pack ~ctx (List.nth ops opi) operand in
      let op, ctx', operand' = SF.unpack w in
      SF.op_of_int (SF.unpack_op w) = op
      && SF.unpack_ctx w = ctx'
      && SF.unpack_operand w = operand')

(* -- Engine ------------------------------------------------------------------ *)

let default_regions =
  [
    { Machine.rname = "ram"; base = 0; size = 1024; cost = 1 };
    { Machine.rname = "slow"; base = 1024; size = 1024; cost = 10 };
  ]

let machine_of ?(regions = default_regions) build =
  let b = Asm.create () in
  build b;
  Machine.create ~program:(Asm.finish b) ~mem_words:4096 ~regions ()

let run_to_halt m =
  match Machine.run m with
  | Machine.Halted -> ()
  | Machine.Trapped msg -> Alcotest.failf "trapped: %s" msg
  | Machine.Out_of_fuel -> Alcotest.fail "out of fuel"
  | Machine.Running -> assert false

let test_engine_arith () =
  let m =
    machine_of (fun b ->
        Asm.li b 0 6;
        Asm.li b 1 7;
        Asm.alu b H.Mul 2 0 1;
        Asm.out b 2;
        Asm.alui b H.Sub 3 2 40;
        Asm.out b 3;
        Asm.halt b)
  in
  run_to_halt m;
  Alcotest.(check string) "output" "42\n2\n" (Machine.output m)

let test_engine_call_ret () =
  let m =
    machine_of (fun b ->
        let double = Asm.new_label b in
        let start = Asm.new_label b in
        Asm.jmp b start;
        Asm.place b double;
        Asm.pop_op b 0;
        Asm.alu b H.Add 0 0 0;
        Asm.push_op b 0;
        Asm.ret b;
        Asm.place b start;
        Asm.li b R.sp 100;
        Asm.li b R.rsp 200;
        Asm.li b 1 21;
        Asm.push_op b 1;
        Asm.call b double;
        Asm.pop_op b 2;
        Asm.out b 2;
        Asm.halt b)
  in
  run_to_halt m;
  Alcotest.(check string) "output" "42\n" (Machine.output m)

let test_engine_memory_costs () =
  (* Li = 1 cycle; Load from "slow" = 1 + 10; Load from "ram" = 1 + 1 *)
  let m =
    machine_of (fun b ->
        Asm.li b 0 0;
        Asm.load b 1 0 1030;
        Asm.load b 2 0 8;
        Asm.halt b)
  in
  run_to_halt m;
  check_int "cycles" (1 + 11 + 2 + 1) (Machine.stats m).Machine.cycles

let test_engine_unmapped_trap () =
  let m =
    machine_of (fun b ->
        Asm.li b 0 3000;
        Asm.load b 1 0 0;
        Asm.halt b)
  in
  match Machine.run m with
  | Machine.Trapped msg ->
      check_bool "mentions unmapped" true
        (Astring_contains.contains msg "unmapped")
  | _ -> Alcotest.fail "expected trap"

let test_engine_division_trap () =
  let m =
    machine_of (fun b ->
        Asm.li b 0 1;
        Asm.li b 1 0;
        Asm.alu b H.Div 2 0 1;
        Asm.halt b)
  in
  match Machine.run m with
  | Machine.Trapped msg ->
      check_bool "mentions zero" true (Astring_contains.contains msg "zero")
  | _ -> Alcotest.fail "expected trap"

let test_engine_fuel () =
  let b = Asm.create () in
  let loop = Asm.new_label b in
  Asm.place b loop;
  Asm.jmp b loop;
  let m =
    Machine.create ~fuel:1000 ~program:(Asm.finish b) ~mem_words:64
      ~regions:[ { Machine.rname = "ram"; base = 0; size = 64; cost = 1 } ]
      ()
  in
  check_bool "out of fuel" true (Machine.run m = Machine.Out_of_fuel)

let test_engine_get_bits () =
  let w = Writer.create () in
  Writer.put w ~bits:6 0b101010;
  Writer.put w ~bits:10 0b1111000011;
  Writer.put w ~bits:16 0xBEEF;
  let m =
    machine_of (fun b ->
        Asm.get_bits b 0 6;
        Asm.out b 0;
        Asm.get_bits b 1 10;
        Asm.out b 1;
        Asm.get_bits b 2 16;
        Asm.out b 2;
        Asm.halt b)
  in
  Machine.set_dir_stream m ~bits:(Writer.to_reader_input w)
    ~mode:Machine.Dir_uncached;
  Machine.set_reg m R.dpc 0;
  run_to_halt m;
  Alcotest.(check string) "fields"
    (Printf.sprintf "%d\n%d\n%d\n" 0b101010 0b1111000011 0xBEEF)
    (Machine.output m);
  (* the three fields span units 0 and 1 of the stream: two unit fetches *)
  check_int "units fetched" 2 (Machine.stats m).Machine.dir_units_fetched;
  check_int "fetch cycles (uncached)" 20
    (Machine.stats m).Machine.dir_fetch_cycles

let test_engine_short_execution () =
  (* Short code: push 5, push 2, call a long add routine, pop-print via
     long code.  Exercises IU1 <-> IU2 transitions and the tagged return
     stack. *)
  let b = Asm.create () in
  let add = Asm.new_label b in
  let finisher = Asm.new_label b in
  Asm.jmp b finisher;                      (* address 0 unused *)
  Asm.place b add;
  Asm.pop_op b 1;
  Asm.pop_op b 0;
  Asm.alu b H.Add 0 0 1;
  Asm.push_op b 0;
  Asm.ret b;
  Asm.place b finisher;
  Asm.pop_op b 0;
  Asm.out b 0;
  Asm.halt b;
  let b_resolved_add = Asm.resolve b add in
  let b_resolved_fin = Asm.resolve b finisher in
  let m =
    Machine.create ~program:(Asm.finish b) ~mem_words:4096
      ~regions:default_regions ()
  in
  Machine.set_hooks m
    {
      Machine.h_interp = (fun _ ~dir_addr:_ ~dctx:_ -> ());
      h_emit_short = (fun _ _ -> ());
      h_end_trans = (fun _ -> ());
      h_decode_assist = (fun _ -> ());
    };
  Machine.set_reg m R.sp 100;
  Machine.set_reg m R.rsp 200;
  (* short program at 300 *)
  Machine.poke m 300 (SF.pack SF.Push_imm 5);
  Machine.poke m 301 (SF.pack SF.Push_imm 2);
  Machine.poke m 302 (SF.pack SF.Call_long b_resolved_add);
  Machine.poke m 303 (SF.pack SF.Goto 305);
  Machine.poke m 304 (SF.pack SF.Push_imm 999); (* skipped by the goto *)
  Machine.poke m 305 (SF.pack SF.Call_long b_resolved_fin);
  Machine.set_pc_short m 300;
  run_to_halt m;
  Alcotest.(check string) "output" "7\n" (Machine.output m);
  check_int "short instructions" 5 (Machine.stats m).Machine.short_instrs

let test_engine_get_bits_r_and_jneg () =
  let w = Writer.create () in
  Writer.put w ~bits:5 0b10110;
  let m =
    machine_of (fun b ->
        let neg = Asm.new_label b in
        Asm.li b 1 5;
        Asm.get_bits_r b 0 1;      (* width from a register *)
        Asm.out b 0;
        Asm.li b 2 (-3);
        Asm.jneg b 2 neg;
        Asm.out b 2;               (* skipped *)
        Asm.place b neg;
        Asm.li b 3 7;
        Asm.out b 3;
        Asm.halt b)
  in
  Machine.set_dir_stream m ~bits:(Writer.to_reader_input w)
    ~mode:Machine.Dir_uncached;
  Machine.set_reg m R.dpc 0;
  run_to_halt m;
  Alcotest.(check string) "output" "22
7
" (Machine.output m)

let test_engine_call_r () =
  let m =
    machine_of (fun b ->
        let target = Asm.new_label b in
        let start = Asm.new_label b in
        Asm.jmp b start;
        Asm.place b target;
        Asm.li b 5 99;
        Asm.out b 5;
        Asm.ret b;
        Asm.place b start;
        Asm.li b R.rsp 200;
        Asm.li_lbl b 0 target;
        Asm.call_r b 0;
        Asm.halt b)
  in
  run_to_halt m;
  Alcotest.(check string) "output" "99
" (Machine.output m)

let test_engine_emit_and_end_trans_hooks () =
  (* EmitShort and EndTrans are routed through the hooks; a fake buffer
     records the words, and EndTrans redirects to a short HALT stub *)
  let emitted = ref [] in
  let b = Asm.create () in
  Asm.li b 0 1234;
  Asm.emit_short b 0;
  Asm.li b 0 5678;
  Asm.emit_short b 0;
  Asm.end_trans b;
  let halt_routine = Asm.here b in
  Asm.halt b;
  let m =
    Machine.create ~program:(Asm.finish b) ~mem_words:4096
      ~regions:default_regions ()
  in
  Machine.set_hooks m
    {
      Machine.h_interp = (fun _ ~dir_addr:_ ~dctx:_ -> ());
      h_emit_short = (fun _ word -> emitted := word :: !emitted);
      h_end_trans =
        (fun m ->
          (* a one-word short program: call the long halt routine *)
          Machine.poke m 500 (SF.pack SF.Call_long halt_routine);
          Machine.set_pc_short m 500);
      h_decode_assist = (fun _ -> ());
    };
  Machine.set_reg m R.sp 100;
  Machine.set_reg m R.rsp 200;
  run_to_halt m;
  Alcotest.(check (list int)) "emitted words" [ 5678; 1234 ] !emitted

(* Differential test pinning the O(1) region-cost table to the seed's
   first-match linear scan, over random (unaligned, possibly overlapping,
   gappy) region layouts. *)
let prop_mem_cost_matches_linear_scan =
  let mem_words = 2048 in
  let region_gen =
    QCheck.Gen.(
      int_bound (mem_words - 1) >>= fun base ->
      int_bound (mem_words - base) >>= fun size ->
      map (fun cost -> (base, size, cost + 1)) (int_bound 30))
  in
  QCheck.Test.make ~name:"cost-table mem_cost = linear region scan" ~count:200
    (QCheck.make
       ~print:(fun rs ->
         String.concat ";"
           (List.map (fun (b, s, c) -> Printf.sprintf "%d+%d@%d" b s c) rs))
       QCheck.Gen.(list_size (int_range 0 6) region_gen))
    (fun rs ->
      let regions =
        List.mapi
          (fun i (base, size, cost) ->
            { Machine.rname = Printf.sprintf "r%d" i; base; size; cost })
          rs
      in
      let m =
        Machine.create ~program:(Asm.finish (Asm.create ())) ~mem_words
          ~regions ()
      in
      let reference addr =
        List.find_opt (fun r -> addr >= r.Machine.base
                                && addr < r.Machine.base + r.Machine.size)
          regions
        |> Option.map (fun r -> r.Machine.cost)
      in
      List.for_all
        (fun addr ->
          (match Machine.mem_cost m addr with
          | c -> Some c
          | exception Not_found -> None)
          = reference addr)
        (List.init (mem_words + 16) (fun i -> i - 8)))

let test_engine_category_attribution () =
  let b = Asm.create () in
  let sem = Asm.routine b Asm.Semantic (fun () ->
      Asm.li b 0 1;
      Asm.li b 0 2;
      Asm.ret b)
  in
  ignore
    (Asm.routine b Asm.Decode (fun () ->
         Asm.li b 1 0;
         Asm.call_addr b sem;
         Asm.halt b));
  let entry = 3 (* after the 3-instruction semantic routine *) in
  let m =
    Machine.create ~program:(Asm.finish b) ~mem_words:4096
      ~regions:default_regions ()
  in
  Machine.set_reg m R.rsp 200;
  Machine.set_pc_long m entry;
  run_to_halt m;
  let stats = Machine.stats m in
  let decode = stats.Machine.cat_cycles.(Machine.category_index Asm.Decode) in
  let semantic = stats.Machine.cat_cycles.(Machine.category_index Asm.Semantic) in
  check_bool "decode cycles counted" true (decode > 0);
  (* the semantic routine runs 2 Li + Ret (with a stack read) *)
  check_bool "semantic cycles counted" true (semantic >= 3);
  check_int "all cycles attributed" stats.Machine.cycles (decode + semantic)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "machine",
    [
      Alcotest.test_case "cache basics" `Quick test_cache_basics;
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
      Alcotest.test_case "cache full associativity" `Quick test_cache_full_assoc;
      Alcotest.test_case "cache geometry checks" `Quick test_cache_bad_geometry;
      Alcotest.test_case "short word known packing" `Quick test_short_pack_known;
      Alcotest.test_case "engine arithmetic" `Quick test_engine_arith;
      Alcotest.test_case "engine call/ret" `Quick test_engine_call_ret;
      Alcotest.test_case "engine memory costs" `Quick test_engine_memory_costs;
      Alcotest.test_case "engine unmapped trap" `Quick test_engine_unmapped_trap;
      Alcotest.test_case "engine division trap" `Quick test_engine_division_trap;
      Alcotest.test_case "engine fuel" `Quick test_engine_fuel;
      Alcotest.test_case "engine GetBits" `Quick test_engine_get_bits;
      Alcotest.test_case "engine short execution" `Quick
        test_engine_short_execution;
      Alcotest.test_case "engine GetBitsR and Jneg" `Quick
        test_engine_get_bits_r_and_jneg;
      Alcotest.test_case "engine CallR" `Quick test_engine_call_r;
      Alcotest.test_case "engine emit/end-trans hooks" `Quick
        test_engine_emit_and_end_trans_hooks;
      Alcotest.test_case "engine category attribution" `Quick
        test_engine_category_attribution;
      qcheck prop_cache_matches_reference;
      qcheck prop_timestamp_lru_matches_counter_lru;
      qcheck prop_mem_cost_matches_linear_scan;
      qcheck prop_short_roundtrip;
      qcheck prop_unpack_accessors_match_tuple;
    ] )
