(* Host-side throughput measurement of the simulator itself.

   Where the rest of uhm_core measures *simulated* cycles, this module
   measures how fast the host machine chews through them: wall-clock time
   per run, simulated cycles per second, and host instructions per second
   for the representative workloads under each execution strategy.  The
   results feed BENCH_simulator.json so the repo carries a perf trajectory
   across PRs. *)

module Kind = Uhm_encoding.Kind
module Codec = Uhm_encoding.Codec
module Suite = Uhm_workload.Suite

type sample = {
  workload : string;
  strategy : string;
  backend : string;            (* "decode" | "threaded" *)
  encoding : string;
  runs : int;
  wall_seconds : float;        (* total over all runs *)
  sim_cycles : int;            (* per run (deterministic) *)
  host_instrs : int;           (* per run *)
  short_instrs : int;          (* per run *)
  dir_steps : int;             (* per run *)
  sim_cycles_per_sec : float;
  host_instrs_per_sec : float;
  wall_us_per_run : float;
  minor_words_per_cycle : float;    (* nan when not recorded *)
  promoted_words_per_cycle : float;
}

let backend_name = function `Decode -> "decode" | `Threaded -> "threaded"

(* The paper's three machine organisations plus the fully-bound DER corner. *)
let strategies =
  [
    ("interp", Uhm.Interp);
    ("cached", Uhm.Cached 4096);
    ("dtb", Uhm.Dtb_strategy Dtb.paper_config);
    ("der", Uhm.Der Uhm.Der_level1);
  ]

(* One loop-dominated, one call-dominated, one low-locality program: the
   same representatives the bench tables use. *)
let default_workloads = [ "fact_iter"; "fib_rec"; "flat_straightline" ]

let kind = Kind.Huffman

let measure ?(min_runs = 5) ?(min_seconds = 0.2) ?(backend = `Decode)
    ~workload ~strategy_name ~strategy () =
  (* at least one timed run, so the rates are always finite *)
  let min_runs = max 1 min_runs in
  let p = Suite.compile (Suite.find workload) in
  let encoded = Codec.encode kind p in
  let run ?runner () =
    match strategy with
    | Uhm.Psder_static | Uhm.Der _ -> Uhm.run ?runner ~backend ~strategy ~kind p
    | _ -> Uhm.run_encoded ?runner ~backend ~strategy encoded
  in
  (* the machine layer's allocation, summed over the timed runs *)
  let minor = ref 0. and promoted = ref 0. in
  let runner m =
    let minor0, promoted0, _ = Gc.counters () in
    let status = Uhm_machine.Machine.run m in
    let minor1, promoted1, _ = Gc.counters () in
    minor := !minor +. (minor1 -. minor0);
    promoted := !promoted +. (promoted1 -. promoted0);
    status
  in
  (* one warm-up run, also the source of the per-run counters *)
  let r = run () in
  let stats = r.Uhm.machine_stats in
  let runs = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  while !runs < min_runs || elapsed () < min_seconds do
    ignore (Sys.opaque_identity (run ~runner ()));
    incr runs
  done;
  let wall = elapsed () in
  let per_sec count =
    float_of_int (count * !runs) /. (if wall > 0. then wall else epsilon_float)
  in
  let per_cycle words = words /. float_of_int (max 1 (r.Uhm.cycles * !runs)) in
  {
    workload;
    strategy = strategy_name;
    backend = backend_name backend;
    encoding = Kind.name kind;
    runs = !runs;
    wall_seconds = wall;
    sim_cycles = r.Uhm.cycles;
    host_instrs = stats.Uhm_machine.Machine.host_instrs;
    short_instrs = stats.Uhm_machine.Machine.short_instrs;
    dir_steps = r.Uhm.dir_steps;
    sim_cycles_per_sec = per_sec r.Uhm.cycles;
    host_instrs_per_sec = per_sec stats.Uhm_machine.Machine.host_instrs;
    wall_us_per_run = 1e6 *. wall /. float_of_int !runs;
    minor_words_per_cycle = per_cycle !minor;
    promoted_words_per_cycle = per_cycle !promoted;
  }

let run_suite ?(workloads = default_workloads) ?min_runs ?min_seconds
    ?(backends = [ `Decode ]) ?(domains = 1) () =
  (* the sample grid goes through the sweep engine, but wall-clock
     sampling defaults to one domain: concurrent timed runs steal cycles
     from each other and would make the per-sample rates incomparable
     across commits.  Raise [domains] only to smoke-test the plumbing. *)
  let jobs =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun (strategy_name, strategy) ->
            List.map
              (fun backend -> (workload, strategy_name, strategy, backend))
              backends)
          strategies)
      workloads
  in
  Sweep.map ~domains
    (fun (workload, strategy_name, strategy, backend) ->
      measure ?min_runs ?min_seconds ~backend ~workload ~strategy_name
        ~strategy ())
    jobs

(* -- Backend comparison (schema v3's "backend" section) ---------------------- *)

type backend_pair = {
  bp_workload : string;
  bp_strategy : string;
  bp_decode_us : float;        (* wall_us_per_run, decode backend *)
  bp_threaded_us : float;      (* wall_us_per_run, threaded backend *)
  bp_speedup : float;          (* decode / threaded host wall time *)
}

let backend_pairs samples =
  List.filter_map
    (fun s ->
      if s.backend <> "decode" then None
      else
        match
          List.find_opt
            (fun s' ->
              s'.backend = "threaded" && s'.workload = s.workload
              && s'.strategy = s.strategy)
            samples
        with
        | None -> None
        | Some s' ->
            Some
              {
                bp_workload = s.workload;
                bp_strategy = s.strategy;
                bp_decode_us = s.wall_us_per_run;
                bp_threaded_us = s'.wall_us_per_run;
                bp_speedup =
                  (if s'.wall_us_per_run > 0. then
                     s.wall_us_per_run /. s'.wall_us_per_run
                   else 0.);
              })
    samples

(* -- The parallel-sweep benchmark ------------------------------------------- *)

type sweep_bench = {
  sweep_points : int;          (* grid points in the summary sweep *)
  sweep_domains : int;         (* domain count of the parallel run *)
  sweep_wall_1 : float;        (* seconds, best of [repeats], 1 domain *)
  sweep_wall_n : float;        (* seconds, best of [repeats], N domains *)
  sweep_speedup : float;       (* wall_1 / wall_n *)
  sweep_identical : bool;      (* 1-domain and N-domain results compared equal *)
}

let measure_sweep ?domains ?(repeats = 2) () =
  let domains =
    match domains with Some d -> max 1 d | None -> Sweep.default_domains ()
  in
  let time_rows d =
    let t0 = Unix.gettimeofday () in
    let rows = Experiment.summary_rows ~domains:d () in
    (Unix.gettimeofday () -. t0, rows)
  in
  let best d =
    let rec go best_wall rows n =
      if n = 0 then (best_wall, rows)
      else
        let wall, r = time_rows d in
        go (min best_wall wall) r (n - 1)
    in
    let wall, rows = time_rows d in
    go wall rows (max 0 (repeats - 1))
  in
  let wall_1, rows_1 = best 1 in
  let wall_n, rows_n = best domains in
  {
    sweep_points = 3 * List.length rows_1;  (* three strategies per row *)
    sweep_domains = domains;
    sweep_wall_1 = wall_1;
    sweep_wall_n = wall_n;
    sweep_speedup = (if wall_n > 0. then wall_1 /. wall_n else 0.);
    sweep_identical = rows_1 = rows_n;
  }

(* -- JSON ------------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A float that may be absent: older documents did not record it. *)
let json_float_opt x = if Float.is_nan x then "null" else Printf.sprintf "%.6g" x

let sample_to_json s =
  Printf.sprintf
    "    {\n\
    \      \"workload\": \"%s\",\n\
    \      \"strategy\": \"%s\",\n\
    \      \"backend\": \"%s\",\n\
    \      \"encoding\": \"%s\",\n\
    \      \"runs\": %d,\n\
    \      \"wall_seconds\": %.6f,\n\
    \      \"wall_us_per_run\": %.2f,\n\
    \      \"sim_cycles\": %d,\n\
    \      \"host_instrs\": %d,\n\
    \      \"short_instrs\": %d,\n\
    \      \"dir_steps\": %d,\n\
    \      \"sim_cycles_per_sec\": %.1f,\n\
    \      \"host_instrs_per_sec\": %.1f,\n\
    \      \"minor_words_per_cycle\": %s,\n\
    \      \"promoted_words_per_cycle\": %s\n\
    \    }"
    (json_escape s.workload) (json_escape s.strategy) (json_escape s.backend)
    (json_escape s.encoding) s.runs s.wall_seconds s.wall_us_per_run
    s.sim_cycles s.host_instrs s.short_instrs s.dir_steps s.sim_cycles_per_sec
    s.host_instrs_per_sec
    (json_float_opt s.minor_words_per_cycle)
    (json_float_opt s.promoted_words_per_cycle)

let sweep_to_json (s : sweep_bench) =
  Printf.sprintf
    "  \"sweep\": {\n\
    \    \"points\": %d,\n\
    \    \"domains\": %d,\n\
    \    \"wall_seconds_1\": %.6f,\n\
    \    \"wall_seconds_n\": %.6f,\n\
    \    \"speedup\": %.3f,\n\
    \    \"identical\": %b\n\
    \  },\n"
    s.sweep_points s.sweep_domains s.sweep_wall_1 s.sweep_wall_n
    s.sweep_speedup s.sweep_identical

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

(* The schema-v3 "backend" section: per-(workload, strategy) host
   wall-time speedups of the threaded backend over decode, from the
   paired samples of the same document. *)
let backend_to_json samples =
  match backend_pairs samples with
  | [] -> ""
  | pairs ->
      let pair_json p =
        Printf.sprintf
          "      {\n\
          \        \"workload\": \"%s\",\n\
          \        \"strategy\": \"%s\",\n\
          \        \"decode_us_per_run\": %.2f,\n\
          \        \"threaded_us_per_run\": %.2f,\n\
          \        \"speedup\": %.3f\n\
          \      }"
          (json_escape p.bp_workload) (json_escape p.bp_strategy)
          p.bp_decode_us p.bp_threaded_us p.bp_speedup
      in
      let speedups = List.filter_map
          (fun p -> if p.bp_speedup > 0. then Some p.bp_speedup else None)
          pairs
      in
      Printf.sprintf
        "  \"backend\": {\n\
        \    \"geomean_speedup\": %.3f,\n\
        \    \"pairs\": [\n%s\n    ]\n\
        \  },\n"
        (geomean speedups)
        (String.concat ",\n" (List.map pair_json pairs))

(* -- The open-arrival load section (schema v4) ------------------------------- *)

type load_point = {
  lp_policy : string;          (* "flush" | "tagged" | "partitioned" *)
  lp_rate : float;             (* offered load, jobs per million cycles *)
  lp_quantum : int;
  lp_jobs : int;               (* arrivals offered *)
  lp_completed : int;
  lp_shed : int;
  lp_throughput : float;       (* completions per million cycles *)
  lp_p50 : int;                (* sojourn percentiles, cycles *)
  lp_p95 : int;
  lp_p99 : int;
  lp_mean_slowdown : float;
}

type load_bench = {
  load_seed : int;
  load_slots : int;
  load_points : load_point list;
}

let load_point_to_json p =
  Printf.sprintf
    "      {\n\
    \        \"policy\": \"%s\",\n\
    \        \"rate\": %g,\n\
    \        \"quantum\": %d,\n\
    \        \"jobs\": %d,\n\
    \        \"completed\": %d,\n\
    \        \"shed\": %d,\n\
    \        \"throughput_per_mcycle\": %.3f,\n\
    \        \"sojourn_p50\": %d,\n\
    \        \"sojourn_p95\": %d,\n\
    \        \"sojourn_p99\": %d,\n\
    \        \"mean_slowdown\": %.3f\n\
    \      }"
    (json_escape p.lp_policy) p.lp_rate p.lp_quantum p.lp_jobs p.lp_completed
    p.lp_shed p.lp_throughput p.lp_p50 p.lp_p95 p.lp_p99 p.lp_mean_slowdown

let load_to_json (l : load_bench) =
  Printf.sprintf
    "  \"load\": {\n\
    \    \"seed\": %d,\n\
    \    \"slots\": %d,\n\
    \    \"points\": [\n%s\n    ]\n\
    \  },\n"
    l.load_seed l.load_slots
    (String.concat ",\n" (List.map load_point_to_json l.load_points))

(* -- The fault-tolerant serving section (schema v5) -------------------------- *)

type resilience_point = {
  rp_policy : string;          (* "flush" | "tagged" | "partitioned" *)
  rp_fault_rate : float;       (* total per-step injection probability *)
  rp_rate : float;             (* offered load, jobs per million cycles *)
  rp_quantum : int;
  rp_jobs : int;               (* arrivals offered *)
  rp_completed : int;          (* verified clean completions *)
  rp_failed : int;             (* retries exhausted *)
  rp_shed : int;
  rp_slo_attainment : float;   (* met / completed, exact *)
  rp_goodput : float;          (* in-SLO completions per million cycles *)
  rp_injected : int;
  rp_detected : int;
  rp_job_retries : int;
  rp_p99 : int;                (* sojourn p99, cycles *)
  rp_p99_degradation : float;  (* p99 / same-column fault-free p99 *)
}

type resilience_bench = {
  res_seed : int;
  res_slots : int;
  res_slo : int;               (* the deadline bound, cycles *)
  res_points : resilience_point list;
}

let resilience_point_to_json p =
  Printf.sprintf
    "      {\n\
    \        \"policy\": \"%s\",\n\
    \        \"fault_rate\": %g,\n\
    \        \"rate\": %g,\n\
    \        \"quantum\": %d,\n\
    \        \"jobs\": %d,\n\
    \        \"completed\": %d,\n\
    \        \"failed\": %d,\n\
    \        \"shed\": %d,\n\
    \        \"slo_attainment\": %.4f,\n\
    \        \"goodput_per_mcycle\": %.3f,\n\
    \        \"injected\": %d,\n\
    \        \"detected\": %d,\n\
    \        \"job_retries\": %d,\n\
    \        \"sojourn_p99\": %d,\n\
    \        \"p99_degradation\": %.3f\n\
    \      }"
    (json_escape p.rp_policy) p.rp_fault_rate p.rp_rate p.rp_quantum p.rp_jobs
    p.rp_completed p.rp_failed p.rp_shed p.rp_slo_attainment p.rp_goodput
    p.rp_injected p.rp_detected p.rp_job_retries p.rp_p99 p.rp_p99_degradation

let resilience_to_json (r : resilience_bench) =
  Printf.sprintf
    "  \"resilience\": {\n\
    \    \"seed\": %d,\n\
    \    \"slots\": %d,\n\
    \    \"slo_bound\": %d,\n\
    \    \"points\": [\n%s\n    ]\n\
    \  },\n"
    r.res_seed r.res_slots r.res_slo
    (String.concat ",\n" (List.map resilience_point_to_json r.res_points))

(* -- The previous run (a before/after pair from one host) -------------------- *)

type run = {
  run_unix_time : float;
  run_host_cores : int option;
  run_samples : sample list;
}

let indent s =
  String.concat "\n"
    (List.map
       (fun l -> if l = "" then l else "  " ^ l)
       (String.split_on_char '\n' s))

let previous_to_json r =
  Printf.sprintf
    "  \"previous\": {\n\
    \    \"unix_time\": %.0f,\n\
    \    \"host_cores\": %s,\n\
     %s\
    \    \"samples\": [\n%s\n    ]\n\
    \  },\n"
    r.run_unix_time
    (match r.run_host_cores with Some n -> string_of_int n | None -> "null")
    (indent (backend_to_json r.run_samples))
    (indent (String.concat ",\n" (List.map sample_to_json r.run_samples)))

let to_json ?sweep ?load ?resilience ?previous samples =
  Printf.sprintf
    "{\n\
    \  \"schema\": \"uhm-bench-simulator/5\",\n\
    \  \"generated_by\": \"bench/main.exe perf\",\n\
    \  \"unix_time\": %.0f,\n\
    \  \"host_cores\": %d,\n\
     %s%s%s%s%s\
    \  \"samples\": [\n%s\n  ]\n}\n"
    (Unix.time ()) (Domain.recommended_domain_count ())
    (match sweep with None -> "" | Some s -> sweep_to_json s)
    (match load with None -> "" | Some l -> load_to_json l)
    (match resilience with None -> "" | Some r -> resilience_to_json r)
    (match previous with None -> "" | Some r -> previous_to_json r)
    (backend_to_json samples)
    (String.concat ",\n" (List.map sample_to_json samples))

let write_json ?sweep ?load ?resilience ?previous ~path samples =
  let oc = open_out path in
  output_string oc (to_json ?sweep ?load ?resilience ?previous samples);
  close_out oc

(* -- Baseline comparison (the CI perf gate) --------------------------------- *)

(* A minimal recursive-descent JSON reader: just enough to read back the
   documents this module writes (and hand-edited variants of them).  Kept
   here rather than pulling in a JSON package — the repo is dependency-free
   beyond the compiler distribution. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Json_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; value)
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* BMP only; fine for our own ASCII output *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); J_arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); J_arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> J_str (string_lit ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | J_obj fields -> List.assoc_opt key fields
  | _ -> None

let read_document ~path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse_json contents

(* Read back the sections this module writes, so one bench target can
   refresh its own section of BENCH_simulator.json without clobbering
   the others (schema v4 documents carry samples, sweep and load). *)

let j_int = function Some (J_num f) -> Some (int_of_float f) | _ -> None
let j_float = function Some (J_num f) -> Some f | _ -> None
let j_str = function Some (J_str s) -> Some s | _ -> None
let j_bool = function Some (J_bool b) -> Some b | _ -> None
let j_arr = function Some (J_arr xs) -> Some xs | _ -> None

(* Field readers for [decode]: a missing [req] field rejects the whole
   record, an [opt] one takes its default (older documents lack it). *)
let req conv key j =
  match conv (member key j) with Some v -> v | None -> raise Exit

let opt conv ~default key j = Option.value ~default (conv (member key j))
let decode f j = try Some (f j) with Exit -> None

let sample_of_json =
  decode (fun j ->
      let int k = opt j_int ~default:0 k j
      and float k = opt j_float ~default:0. k j
      and recorded k = opt j_float ~default:nan k j in
      {
        workload = req j_str "workload" j;
        strategy = req j_str "strategy" j;
        backend = opt j_str ~default:"decode" "backend" j;
        encoding = opt j_str ~default:"huffman" "encoding" j;
        runs = req j_int "runs" j;
        wall_seconds = req j_float "wall_seconds" j;
        sim_cycles = int "sim_cycles";
        host_instrs = int "host_instrs";
        short_instrs = int "short_instrs";
        dir_steps = int "dir_steps";
        sim_cycles_per_sec = float "sim_cycles_per_sec";
        host_instrs_per_sec = float "host_instrs_per_sec";
        wall_us_per_run = float "wall_us_per_run";
        minor_words_per_cycle = recorded "minor_words_per_cycle";
        promoted_words_per_cycle = recorded "promoted_words_per_cycle";
      })

let read_baseline ~path =
  match j_arr (member "samples" (read_document ~path)) with
  | None -> raise (Json_error "no \"samples\" array")
  | Some samples ->
      List.filter_map
        (decode (fun j ->
             let rate = req j_float "sim_cycles_per_sec" j in
             if rate <= 0. then raise Exit;
             (* schema v2 samples carry no backend field: they were all
                recorded on the decode backend *)
             ( ( req j_str "workload" j,
                 req j_str "strategy" j,
                 opt j_str ~default:"decode" "backend" j ),
               rate )))
        samples

let samples_of_json doc =
  List.filter_map sample_of_json (opt j_arr ~default:[] "samples" doc)

let read_samples ~path = samples_of_json (read_document ~path)

let run_of_json =
  decode (fun j ->
      {
        run_unix_time = req j_float "unix_time" j;
        run_host_cores = j_int (member "host_cores" j);
        run_samples = samples_of_json j;
      })

let read_run ~path = run_of_json (read_document ~path)

(* The [name] section of the document at [path], if present and whole. *)
let read_section name of_json ~path =
  Option.bind (member name (read_document ~path)) of_json

let read_previous = read_section "previous" run_of_json

let read_sweep =
  read_section "sweep"
    (decode (fun s ->
         {
           sweep_points = req j_int "points" s;
           sweep_domains = req j_int "domains" s;
           sweep_wall_1 = req j_float "wall_seconds_1" s;
           sweep_wall_n = req j_float "wall_seconds_n" s;
           sweep_speedup = req j_float "speedup" s;
           sweep_identical = req j_bool "identical" s;
         }))

let load_point_of_json =
  decode (fun j ->
      let int k = opt j_int ~default:0 k j in
      {
        lp_policy = req j_str "policy" j;
        lp_rate = req j_float "rate" j;
        lp_quantum = req j_int "quantum" j;
        lp_jobs = req j_int "jobs" j;
        lp_completed = int "completed";
        lp_shed = int "shed";
        lp_throughput = opt j_float ~default:0. "throughput_per_mcycle" j;
        lp_p50 = int "sojourn_p50";
        lp_p95 = int "sojourn_p95";
        lp_p99 = int "sojourn_p99";
        lp_mean_slowdown = opt j_float ~default:0. "mean_slowdown" j;
      })

let read_load =
  read_section "load"
    (decode (fun l ->
         {
           load_seed = opt j_int ~default:0 "seed" l;
           load_slots = opt j_int ~default:0 "slots" l;
           load_points = List.filter_map load_point_of_json (req j_arr "points" l);
         }))

let resilience_point_of_json =
  decode (fun j ->
      let int k = opt j_int ~default:0 k j
      and float k = opt j_float ~default:0. k j in
      {
        rp_policy = req j_str "policy" j;
        rp_fault_rate = req j_float "fault_rate" j;
        rp_rate = req j_float "rate" j;
        rp_quantum = req j_int "quantum" j;
        rp_jobs = int "jobs";
        rp_completed = int "completed";
        rp_failed = int "failed";
        rp_shed = int "shed";
        rp_slo_attainment = float "slo_attainment";
        rp_goodput = float "goodput_per_mcycle";
        rp_injected = int "injected";
        rp_detected = int "detected";
        rp_job_retries = int "job_retries";
        rp_p99 = int "sojourn_p99";
        rp_p99_degradation = float "p99_degradation";
      })

let read_resilience =
  read_section "resilience"
    (decode (fun r ->
         {
           res_seed = opt j_int ~default:0 "seed" r;
           res_slots = opt j_int ~default:0 "slots" r;
           res_slo = opt j_int ~default:0 "slo_bound" r;
           res_points =
             List.filter_map resilience_point_of_json (req j_arr "points" r);
         }))

type regression = {
  reg_workload : string;
  reg_strategy : string;
  reg_backend : string;
  reg_baseline_rel : float;
  reg_current_rel : float;
  reg_drop_pct : float;
}

let check_against_baseline ~max_regression_pct ~baseline samples =
  (* Absolute sim-cycles-per-second depends on the host the baseline was
     recorded on, so compare *relative* rates: each sample normalised by
     the geometric mean of its own file, over the keys the two files
     share.  A uniform host slowdown cancels; a single strategy getting
     slower relative to the others does not. *)
  let current =
    List.filter_map
      (fun s ->
        if s.sim_cycles_per_sec > 0. then
          Some ((s.workload, s.strategy, s.backend), s.sim_cycles_per_sec)
        else None)
      samples
  in
  let shared =
    List.filter_map
      (fun (key, b) ->
        match List.assoc_opt key current with
        | Some c -> Some (key, b, c)
        | None -> None)
      baseline
  in
  match shared with
  | [] ->
      Error
        "no overlapping (workload, strategy, backend) samples with the baseline"
  | _ ->
      let geomean xs =
        exp (List.fold_left (fun a x -> a +. log x) 0. xs
             /. float_of_int (List.length xs))
      in
      let gb = geomean (List.map (fun (_, b, _) -> b) shared) in
      let gc = geomean (List.map (fun (_, _, c) -> c) shared) in
      let regressions =
        List.filter_map
          (fun ((w, s, bk), b, c) ->
            let rb = b /. gb and rc = c /. gc in
            let drop = (rb -. rc) /. rb *. 100. in
            if drop > max_regression_pct then
              Some
                {
                  reg_workload = w;
                  reg_strategy = s;
                  reg_backend = bk;
                  reg_baseline_rel = rb;
                  reg_current_rel = rc;
                  reg_drop_pct = drop;
                }
            else None)
          shared
      in
      Ok regressions
