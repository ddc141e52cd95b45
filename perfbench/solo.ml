(* The closed-loop workloads: one client, serial calls, every suite
   program in seeded order.

   - solo_dtb: [Dtb_strategy] at the paper geometry and at the starved
     8-set geometry, on both backends.  DTB lookup/install/evict, the
     translator miss path and threaded-closure compile/drop do the work.
   - solo_interp: [Interp], [Cached 4096] and [Der Der_level1] on both
     backends.  Only machine fetch/decode/dispatch works; no DTB exists. *)

open Common
module Dtb = Uhm_core.Dtb

type variant = { vname : string; strategy : Uhm.strategy }

let dtb_variants () =
  [
    { vname = "dtb_paper"; strategy = Uhm.Dtb_strategy Dtb.paper_config };
    {
      vname = "dtb_starved";
      strategy =
        Uhm.Dtb_strategy (List.hd (Uhm_core.Experiment.capacity_configs ()));
    };
  ]

let interp_variants () =
  [
    { vname = "interp"; strategy = Uhm.Interp };
    { vname = "cached"; strategy = Uhm.Cached 4096 };
    { vname = "der"; strategy = Uhm.Der Uhm.Der_level1 };
  ]

let backends = [ (`Decode, "decode"); (`Threaded, "threaded") ]

type op = { prog : program; variant : variant; backend : Machine.backend; bname : string }

let key op = Printf.sprintf "%s/%s/%s" op.prog.name op.variant.vname op.bname

(* What the machine layer did in the last traced runner call. *)
let last_runner = ref (0, 0., 0.)

let traced_runner m =
  Span.with_span "machine.run" (fun () ->
      let mi0, pr0, _ = Gc.counters () in
      let t0 = cpu_s () in
      let st = Machine.run m in
      let dt = int_of_float ((cpu_s () -. t0) *. 1e9) in
      let mi1, pr1, _ = Gc.counters () in
      last_runner := (dt, mi1 -. mi0, pr1 -. pr0);
      st)

let execute ~runner op =
  Span.with_span "uhm.run" (fun () ->
      match op.variant.strategy with
      | Uhm.Der _ as strategy ->
          Uhm.run ?runner ~backend:op.backend ~strategy ~kind:Kind.Digram
            op.prog.dir
      | strategy ->
          Uhm.run_encoded ?runner ~backend:op.backend ~strategy op.prog.encoded)

let opt_int = function Some n -> string_of_int n | None -> "-"
let opt_float = function Some x -> Printf.sprintf "%h" x | None -> "-"

(* Everything simulated about a run; it must not depend on the backend
   or the round. *)
let signature (r : Uhm.result) =
  let s = r.Uhm.machine_stats in
  String.concat "|"
    [
      string_of_int r.Uhm.cycles;
      string_of_int r.Uhm.dir_steps;
      string_of_int s.Machine.host_instrs;
      string_of_int s.Machine.short_instrs;
      string_of_int s.Machine.interp_count;
      opt_float r.Uhm.dtb_hit_ratio;
      opt_int r.Uhm.dtb_misses;
      opt_int r.Uhm.dtb_evictions;
      opt_int r.Uhm.dtb_overflow_allocations;
      opt_int r.Uhm.dtb_emitted_words;
      opt_float r.Uhm.icache_hit_ratio;
      string_of_int r.Uhm.static_size_bits;
      string_of_int r.Uhm.support_size_bits;
      Digest.to_hex (Digest.string r.Uhm.output);
    ]

let checks_out op (r : Uhm.result) =
  r.Uhm.status = Machine.Halted
  && r.Uhm.output = op.prog.reference
  && r.Uhm.dir_steps = op.prog.ref_steps

(* Per-layer accumulators of a traced pass, keyed by variant x backend. *)
let record_layers op (r : Uhm.result) =
  let dt, minor, promoted = !last_runner in
  let combo = op.variant.vname ^ "." ^ op.bname in
  acc_add ("machine.run_ns." ^ combo) (float_of_int dt);
  acc_add ("machine.host_instrs." ^ combo)
    (float_of_int r.Uhm.machine_stats.Machine.host_instrs);
  acc_add ("machine.cycles." ^ combo) (float_of_int r.Uhm.cycles);
  acc_add ("machine.minor_words." ^ combo) minor;
  acc_add ("machine.promoted_words." ^ combo) promoted;
  match (r.Uhm.dtb_misses, r.Uhm.dtb_hit_ratio) with
  | Some misses, Some h ->
      let g = if op.variant.vname = "dtb_paper" then "paper" else "starved" in
      let lookups =
        if h < 1. then Float.round (float_of_int misses /. (1. -. h))
        else float_of_int misses
      in
      let add name v = acc_add ("dtb." ^ name ^ "." ^ g) v in
      add "lookups" lookups;
      add "hits" (Float.round (h *. lookups));
      add "misses" (float_of_int misses);
      add "evictions" (float_of_int (Option.value ~default:0 r.Uhm.dtb_evictions));
      add "overflow_allocations"
        (float_of_int (Option.value ~default:0 r.Uhm.dtb_overflow_allocations));
      add "emitted_words"
        (float_of_int (Option.value ~default:0 r.Uhm.dtb_emitted_words))
  | _ -> ()

let round ~traced ops () =
  let runner = if traced then Some traced_runner else None in
  List.mapi
    (fun i op ->
      Span.set_op i;
      let r, host_s = time (fun () -> execute ~runner op) in
      if traced then record_layers op r;
      let ok = checks_out op r in
      {
        key = key op;
        host_s;
        per = 1;
        sim_cycles = r.Uhm.cycles;
        dir_instrs = r.Uhm.dir_steps;
        signature = signature r;
        attempted = 1;
        ok = Bool.to_int ok;
        wrong = Bool.to_int (not ok);
        rep_bits = r.Uhm.static_size_bits + r.Uhm.support_size_bits;
      })
    ops

(* Decode and threaded must agree on everything simulated. *)
let backend_mismatches first =
  List.filter_map
    (fun s ->
      if String.ends_with ~suffix:"/decode" s.key then
        let tkey = String.sub s.key 0 (String.length s.key - 6) ^ "threaded" in
        match List.find_opt (fun t -> t.key = tkey) first with
        | Some t when t.signature = s.signature -> None
        | _ -> Some ("backend mismatch: " ^ s.key)
      else None)
    first

let exact first =
  (* one representation per distinct program x strategy: the decode run
     stands for the pair (the threaded run's signature is the same) *)
  let decode = List.filter (fun s -> String.ends_with ~suffix:"/decode" s.key) first in
  closed_loop_exact
    ~cycles:(List.map (fun s -> s.sim_cycles) first)
    ~dirs:(List.map (fun s -> s.dir_instrs) first)
    ~rep_bits:(List.map (fun s -> s.rep_bits) decode)

let combos variants =
  List.concat_map
    (fun v -> List.map (fun (_, b) -> v.vname ^ "." ^ b) backends)
    variants

(* Turn the traced accumulators into per-pass layer metrics. *)
let finish_layers ~passes variants =
  let per_pass x = x /. float_of_int passes in
  List.iter
    (fun c ->
      let g n = acc ("machine." ^ n ^ "." ^ c) in
      let run_s = g "run_ns" *. 1e-9 in
      let cycles = g "cycles" in
      layer ("machine.run_s." ^ c) "s" (per_pass run_s);
      layer ("machine.host_instrs_per_s." ^ c) "1/s"
        (Stats.ratio ~part:(g "host_instrs") ~base:run_s);
      layer ("machine.ns_per_sim_cycle." ^ c) "ns"
        (Stats.ratio ~part:(g "run_ns") ~base:cycles);
      layer ("machine.minor_words_per_cycle." ^ c) "words"
        (Stats.ratio ~part:(g "minor_words") ~base:cycles);
      layer ("machine.promoted_words_per_cycle." ^ c) "words"
        (Stats.ratio ~part:(g "promoted_words") ~base:cycles))
    (combos variants);
  layer "psder.prepare_s" "s" (per_pass (Span.self_total "uhm.run"));
  List.iter
    (fun g ->
      let c n = acc ("dtb." ^ n ^ "." ^ g) in
      if c "lookups" > 0. then begin
        layer ("dtb.hit_ratio." ^ g) "ratio" (Stats.ratio ~part:(c "hits") ~base:(c "lookups"));
        layer ("dtb.hits_per_translation." ^ g) "ratio"
          (Stats.ratio ~part:(c "hits") ~base:(c "misses"));
        List.iter
          (fun n -> layer ("dtb." ^ n ^ "." ^ g) "count" (per_pass (c n)))
          [ "misses"; "evictions"; "overflow_allocations"; "emitted_words" ]
      end)
    [ "paper"; "starved" ]

let run ~variants ~seed ~seconds ~traced =
  let setup () =
    let programs = shuffle ~seed (load_all ()) in
    let ops =
      List.concat_map
        (fun prog ->
          List.concat_map
            (fun variant ->
              List.map
                (fun (backend, bname) -> { prog; variant; backend; bname })
                backends)
            variants)
        programs
    in
    (programs, ops)
  in
  Span.enabled := traced;
  let setup_s, (programs, ops) = timed_setup setup in
  if not traced then begin
    let rs = rounds ~seconds (round ~traced:false ops) in
    let first = List.hd rs in
    end_to_end ~setup_s ~exact:(exact first)
      ~extra_failures:(backend_mismatches first) rs
  end
  else begin
    setup_layers programs;
    let plain, traced_rs =
      traced_halves ~seconds ~pass:pass_time (fun ~traced -> round ~traced ops)
    in
    finish_layers ~passes:(List.length traced_rs) variants;
    let all = plain @ traced_rs in
    end_to_end ~setup_s ~exact:(exact (List.hd all))
      ~extra_failures:(backend_mismatches (List.hd all)) all
  end
