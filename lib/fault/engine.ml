(* The per-attempt fault engine; see engine.mli. *)

module Machine = Uhm_machine.Machine
module Timing = Uhm_machine.Timing
module SF = Uhm_machine.Short_format
module R = Uhm_machine.Host_isa.Regs
module Dtb = Uhm_core.Dtb
module U = Uhm_core.Uhm
module Codec = Uhm_encoding.Codec
module Layout = Uhm_psder.Layout
module Trace = Uhm_sched.Trace
module Scheduler = Uhm_sched.Scheduler

type config = {
  injector : Injector.spec;
  guards : bool;
  checkpoint_every : int option;
  retry_limit : int;
  backoff_cycles : int;
  watchdog_window : int;
  watchdog_threshold : int;
}

let interp_cycles_per_dir = 64

type mode = Translating | Downgraded

type t = {
  asid : int;
  encoded : Codec.encoded;
  inj : Injector.t;
  guard : Guard.t;
  retries : (int, int) Hashtbl.t;
  watchdog : int Queue.t;
  mutable machine : Machine.t;
  mutable mode : mode;
  mutable translating : int option;
  mutable doomed : bool;
  mutable ck : Machine.checkpoint option;
  mutable ck_step : int;
  mutable outstanding : int list;
  mutable downgrade_pending : bool;
  mutable finished : Machine.status option;
  mutable out_prefix : string;
  mutable base_cycles : int;
  mutable slices : int;
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable rolled_back : int;
}

type env = {
  timing : Timing.t;
  fuel : int option;
  layout : Layout.t;
  backend : Machine.backend option;
  on_detect : at:int -> asid:int -> unit;
  dtb : Dtb.t;
  trace : Trace.t;
  tagged_keys : bool;
  fc : config;
  silent : bool; (* no fault can fire and no guard runs: plain INTERP hook *)
  mem_faults : bool;
  mutable now : int; (* the driver's clock when the current slice began *)
  mutable c0 : int;  (* the sliced attempt's cycles when it began *)
  (* the dispatch state *)
  slots : int;
  flushes0 : int;
  mutable last : int; (* the slot dispatched last; -1 before the first *)
  mutable switches : int;
  slot_hits : int array; (* DTB activity during each slot's slices *)
  slot_misses : int array;
  slot_evictions : int array;
}

let env ?(timing = Timing.paper) ?fuel ?(layout = Layout.default) ?backend
    ?(on_detect = fun ~at:_ ~asid:_ -> ()) ~dtb ~trace ~slots ~tagged_keys fc =
  let mem_faults = Injector.can_inject fc.injector Injector.Mem_word in
  if mem_faults && fc.checkpoint_every = None then
    invalid_arg "Engine.env: Mem_word faults require checkpoint_every";
  {
    timing;
    fuel;
    layout;
    backend;
    on_detect;
    dtb;
    trace;
    tagged_keys;
    fc;
    silent = Injector.is_zero fc.injector && not fc.guards;
    mem_faults;
    now = 0;
    c0 = 0;
    slots;
    flushes0 = Dtb.flushes dtb;
    last = -1;
    switches = 0;
    slot_hits = Array.make slots 0;
    slot_misses = Array.make slots 0;
    slot_evictions = Array.make slots 0;
  }

let dtb e = e.dtb
let trace e = e.trace
let switches e = e.switches
let flushes e = Dtb.flushes e.dtb - e.flushes0

let slot_dtb e ~asid =
  (e.slot_hits.(asid), e.slot_misses.(asid), e.slot_evictions.(asid))

let cycles t = t.base_cycles + (Machine.stats t.machine).Machine.cycles
let output t = t.out_prefix ^ Machine.output t.machine

(* global virtual time mid-slice: the clock at slice start plus what the
   sliced attempt has run since *)
let vtime e t = e.now + cycles t - e.c0
let tell_v e t kind = Trace.record e.trace ~at_cycle:(vtime e t) kind

let recovery_event e t ~step =
  Queue.push step t.watchdog;
  while
    (not (Queue.is_empty t.watchdog))
    && Queue.peek t.watchdog < step - e.fc.watchdog_window
  do
    ignore (Queue.pop t.watchdog)
  done;
  if Queue.length t.watchdog >= e.fc.watchdog_threshold then
    t.downgrade_pending <- true

let note_detection e t ~fclass ~step =
  t.detected <- t.detected + 1;
  tell_v e t (Trace.Fault_detected { asid = t.asid; fclass });
  e.on_detect ~at:(vtime e t) ~asid:t.asid;
  recovery_event e t ~step

(* The INTERP hook and buffer taps of an armed attempt.  [t_of] resolves
   the attempt record, which is built after its machine. *)
let hooks e t_of =
  let dtb = e.dtb and fc = e.fc in
  let t_dtb = e.timing.Timing.t_dtb and t_guard = e.timing.Timing.t_guard in
  let buffer_base = e.layout.Layout.dtb_buffer_base + 1 in
  let buffer_words = Dtb.buffer_words dtb in
  let apply_fault m (f : Injector.fault) =
    let t = t_of () in
    let applied =
      match f.Injector.f_class with
      | Injector.Dtb_tag ->
          Dtb.corrupt_resident_tag dtb ~pick:f.Injector.f_r1
            ~flip:f.Injector.f_r2
          <> None
      | Injector.Psder_word ->
          let addr = buffer_base + (f.Injector.f_r1 mod buffer_words) in
          Machine.poke m addr
            (Machine.peek m addr lxor (1 lsl (f.Injector.f_r2 mod 16)));
          true
      | Injector.Translator ->
          t.doomed <- true;
          true
      | Injector.Mem_word ->
          let base = e.layout.Layout.data_base in
          let dtop = Machine.reg m R.dtop in
          if dtop <= base then false
          else begin
            let addr = base + (f.Injector.f_r1 mod (dtop - base)) in
            Machine.poke m addr
              (Machine.peek m addr lxor (1 lsl (f.Injector.f_r2 mod 31)));
            t.outstanding <- addr :: t.outstanding;
            true
          end
    in
    if applied then begin
      t.injected <- t.injected + 1;
      tell_v e t
        (Trace.Fault_injected
           { asid = t.asid; fclass = Injector.class_name f.Injector.f_class })
    end
  in
  let start_translation m ~translator_entry ~dir_addr ~dctx =
    let t = t_of () in
    tell_v e t (Trace.Translation { asid = t.asid; dir_addr });
    if fc.guards then begin
      Guard.begin_install t.guard;
      Machine.add_cycles m t_guard (* flat checksum-seed cost at install *)
    end;
    t.translating <- Some dir_addr;
    Dtb.begin_translation dtb ~tag:dir_addr;
    Machine.set_reg m R.dpc dir_addr;
    Machine.set_reg m R.dctx dctx;
    Machine.set_pc_long m translator_entry
  in
  let detect m ~translator_entry ~dir_addr ~dctx ~fclass ~checked_words =
    let t = t_of () in
    Machine.add_cycles m (t_guard * max 1 checked_words);
    note_detection e t ~fclass ~step:(Machine.stats m).Machine.interp_count;
    let attempts =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.retries dir_addr)
    in
    Hashtbl.replace t.retries dir_addr attempts;
    if attempts > fc.retry_limit then t.downgrade_pending <- true;
    Machine.add_cycles m (fc.backoff_cycles * (1 lsl min (attempts - 1) 6));
    t.retried <- t.retried + 1;
    tell_v e t
      (Trace.Recovery_retry { asid = t.asid; dir_addr; attempt = attempts });
    ignore (Dtb.invalidate dtb ~tag:dir_addr);
    start_translation m ~translator_entry ~dir_addr ~dctx
  in
  let make_interp ~translator_entry m ~dir_addr ~dctx =
    let t = t_of () in
    let step = (Machine.stats m).Machine.interp_count in
    (match Injector.due t.inj ~step with
    | [] -> ()
    | faults -> List.iter (apply_fault m) faults);
    Machine.add_cycles m t_dtb;
    let buffer_addr = Dtb.probe dtb ~tag:dir_addr in
    if buffer_addr < 0 then start_translation m ~translator_entry ~dir_addr ~dctx
    else if not fc.guards then Machine.set_pc_short m buffer_addr
    else begin
      match
        Guard.check t.guard ~peek:(Machine.peek m) ~dir_addr
          ~start_addr:buffer_addr
      with
      | `Ok words ->
          Machine.add_cycles m (t_guard * words);
          Machine.set_pc_short m buffer_addr
      | `Mismatch | `Unguarded ->
          (* a different (or no) DIR address answered: the tag array
             lied — drop the aliased entry and retranslate *)
          Guard.drop t.guard ~start_addr:buffer_addr;
          detect m ~translator_entry ~dir_addr ~dctx ~fclass:"dtb-tag"
            ~checked_words:1
      | `Corrupt words ->
          Guard.drop t.guard ~start_addr:buffer_addr;
          detect m ~translator_entry ~dir_addr ~dctx ~fclass:"psder-word"
            ~checked_words:words
    end
  in
  let on_emit ~addr ~word =
    if fc.guards then Guard.on_emit (t_of ()).guard ~addr ~word
  in
  let on_end_translation ~start_addr =
    let t = t_of () in
    let dir_addr =
      match t.translating with Some d -> d | None -> assert false
    in
    t.translating <- None;
    if t.doomed then begin
      (* translator failure mid-install: the words are in the buffer and
         the current transfer still executes them, but the directory
         entry is lost — the next INTERP of this DIR address re-misses *)
      t.doomed <- false;
      ignore (Dtb.invalidate dtb ~tag:dir_addr);
      Guard.abandon t.guard;
      Guard.drop t.guard ~start_addr
    end
    else if fc.guards then Guard.finish_install t.guard ~dir_addr ~start_addr
  in
  (make_interp, on_emit, on_end_translation)

let create e ~asid ~stream ?(interp0 = false) encoded =
  let self = ref None in
  let t_of () = match !self with Some t -> t | None -> assert false in
  let timing = e.timing and fuel = e.fuel and layout = e.layout in
  let backend = e.backend in
  let machine =
    if interp0 then U.prepare_interp ~timing ?fuel ~layout ?backend encoded
    else if e.silent then
      U.prepare_dtb_shared ~timing ?fuel ~layout ?backend ~dtb:e.dtb
        ~on_translation:(fun ~dir_addr ->
          tell_v e (t_of ()) (Trace.Translation { asid; dir_addr }))
        encoded
    else
      let make_interp, on_emit, on_end_translation = hooks e t_of in
      fst
        (U.prepare_dtb_custom ~timing ?fuel ~layout ?backend ~on_emit
           ~on_end_translation ~make_interp ~dtb:e.dtb encoded)
  in
  let t =
    {
      asid;
      encoded;
      inj = Injector.create e.fc.injector ~asid:stream;
      guard = Guard.create ();
      retries = Hashtbl.create 16;
      watchdog = Queue.create ();
      machine;
      mode = (if interp0 then Downgraded else Translating);
      translating = None;
      doomed = false;
      ck = None;
      ck_step = 0;
      outstanding = [];
      downgrade_pending = false;
      finished = None;
      out_prefix = "";
      base_cycles = 0;
      slices = 0;
      injected = 0;
      detected = 0;
      retried = 0;
      rolled_back = 0;
    }
  in
  self := Some t;
  t

let take_checkpoint e t =
  let ck = Machine.checkpoint t.machine in
  (* page traffic to stable (level-2) storage *)
  Machine.add_cycles t.machine (e.timing.Timing.t2 * Machine.checkpoint_pages ck);
  t.ck <- Some ck;
  t.ck_step <- (Machine.stats t.machine).Machine.interp_count

let scrub_and_rollback e t =
  if not (List.is_empty t.outstanding) then begin
    let m = t.machine in
    let step = (Machine.stats m).Machine.interp_count in
    List.iter
      (fun _ ->
        note_detection e t ~step
          ~fclass:(Injector.class_name Injector.Mem_word))
      t.outstanding;
    let ck = match t.ck with Some ck -> ck | None -> assert false in
    Machine.restore m ck;
    Machine.add_cycles m (e.timing.Timing.t2 * Machine.checkpoint_pages ck);
    (* the restored memory predates some installed translations: drop
       this attempt's directory entries (and their guards) so every
       working-set entry re-translates against the rewound image *)
    if e.tagged_keys then ignore (Dtb.invalidate_asid e.dtb ~asid:t.asid)
    else Dtb.flush e.dtb;
    Guard.clear t.guard;
    t.outstanding <- [];
    t.finished <- None;
    t.rolled_back <- t.rolled_back + 1;
    tell_v e t
      (Trace.Rollback { asid = t.asid; pages = Machine.checkpoint_pages ck })
  end

(* Graft the architectural state onto a fresh pure-interpretation machine
   (the paper's section 7 crossover as a fallback). *)
let downgrade e t =
  let layout = e.layout in
  let m_old = t.machine in
  (* slice boundaries of a Translating machine rest on an INTERP word *)
  let dir_addr, dctx, sp_pops =
    match Machine.pc m_old with
    | Machine.Short a -> (
        let w = Machine.peek m_old a in
        match SF.op_of_int (SF.unpack_op w) with
        | SF.Interp_imm -> (SF.unpack_operand w, SF.unpack_ctx w, 0)
        | SF.Interp_stk ->
            let sp = Machine.reg m_old R.sp in
            (Machine.peek m_old (sp - 1), Machine.peek m_old (sp - 2), 2)
        | _ -> assert false)
    | Machine.Long _ -> assert false
  in
  let m_new =
    U.prepare_interp ~timing:e.timing ?fuel:e.fuel ~layout ?backend:e.backend
      t.encoded
  in
  let sp = Machine.reg m_old R.sp - sp_pops in
  Machine.set_reg m_new R.sp sp;
  Machine.set_reg m_new R.rsp (Machine.reg m_old R.rsp);
  Machine.set_reg m_new R.fp (Machine.reg m_old R.fp);
  Machine.set_reg m_new R.dtop (Machine.reg m_old R.dtop);
  Machine.set_reg m_new R.ctx (Machine.reg m_old R.ctx);
  Machine.set_reg m_new R.dpc dir_addr;
  Machine.set_reg m_new R.dctx dctx;
  let copy_range base limit =
    for a = base to limit - 1 do
      Machine.poke m_new a (Machine.peek m_old a)
    done
  in
  copy_range layout.Layout.op_stack_base sp;
  copy_range layout.Layout.ret_stack_base (Machine.reg m_old R.rsp);
  copy_range layout.Layout.data_base (Machine.reg m_old R.dtop);
  t.out_prefix <- t.out_prefix ^ Machine.output m_old;
  t.base_cycles <- t.base_cycles + (Machine.stats m_old).Machine.cycles;
  Machine.recycle m_old;
  t.machine <- m_new;
  t.mode <- Downgraded;
  t.downgrade_pending <- false;
  t.ck <- None;
  tell_v e t (Trace.Downgrade { asid = t.asid })

let slice ?(contain = false) e t ~now ~quantum =
  let c0 = cycles t in
  e.now <- now;
  e.c0 <- c0;
  if e.mem_faults && t.mode = Translating && Option.is_none t.ck then
    take_checkpoint e t;
  let outcome =
    try
      match t.mode with
      | Translating -> Machine.run_dir_quantum t.machine ~quantum
      | Downgraded ->
          let budget =
            if quantum > max_int / interp_cycles_per_dir then max_int
            else quantum * interp_cycles_per_dir
          in
          Machine.run_for t.machine ~budget
    with
    | (Out_of_memory | Stack_overflow) as x -> raise x
    | x when contain ->
        let msg =
          match x with
          | Invalid_argument m | Failure m -> m
          | x -> Printexc.to_string x
        in
        Machine.Done (Machine.Trapped ("machine crash: " ^ msg))
  in
  t.slices <- t.slices + 1;
  (match outcome with
  | Machine.Done status -> t.finished <- Some status
  | Machine.Yielded -> ());
  (* A running machine only yields at INTERP boundaries, but a
     fault-corrupted one can die mid-install, leaving the shared
     directory's translation open.  Close it here so the flush or
     invalidate below (or the next Flush_on_switch switch) finds the DTB
     quiescent. *)
  (match t.translating with
  | Some _ ->
      Dtb.abort_translation e.dtb;
      if e.fc.guards then Guard.abandon t.guard;
      t.translating <- None;
      t.doomed <- false
  | None -> ());
  if t.mode = Translating then begin
    scrub_and_rollback e t;
    if Option.is_none t.finished then
      if t.downgrade_pending then downgrade e t
      else if e.mem_faults then
        match e.fc.checkpoint_every with
        | Some every
          when (Machine.stats t.machine).Machine.interp_count - t.ck_step
               >= every ->
            take_checkpoint e t
        | _ -> ()
  end;
  cycles t - c0

(* -- Dispatch ------------------------------------------------------------------ *)

(* SRTF is preemptive: a long program gets the machine only while
   nothing shorter is runnable. *)
let pick e policy ~runnable ~remaining =
  match policy with
  | Scheduler.Round_robin ->
      let rec scan k =
        if k = e.slots then None
        else
          let i = (e.last + 1 + k) mod e.slots in
          if runnable i then Some i else scan (k + 1)
      in
      scan 0
  | Scheduler.Shortest_remaining ->
      let best = ref None in
      for i = 0 to e.slots - 1 do
        if runnable i then
          let r = remaining i in
          match !best with
          | Some (_, b) when b <= r -> ()
          | _ -> best := Some (i, r)
      done;
      Option.map fst !best

let dispatch ?contain e t ~now ~quantum =
  let i = t.asid and dtb = e.dtb in
  let tell at kind = Trace.record e.trace ~at_cycle:at kind in
  if i <> e.last then begin
    let from_asid = if e.last < 0 then None else Some e.last in
    let before = Dtb.flushes dtb in
    (* a downgraded attempt no longer consults the DTB, but the switch
       still changes the current address space — under Flush_on_switch
       that flush is part of the policy's cost *)
    Dtb.switch_to dtb ~asid:i;
    e.switches <- e.switches + 1;
    tell now (Trace.Switch { from_asid; to_asid = i });
    if Dtb.flushes dtb > before then tell now (Trace.Dtb_flush { asid = i })
  end;
  e.last <- i;
  let h0 = Dtb.hits dtb and m0 = Dtb.misses dtb and v0 = Dtb.evictions dtb in
  let now = now + slice ?contain e t ~now ~quantum in
  e.slot_hits.(i) <- e.slot_hits.(i) + Dtb.hits dtb - h0;
  e.slot_misses.(i) <- e.slot_misses.(i) + Dtb.misses dtb - m0;
  e.slot_evictions.(i) <- e.slot_evictions.(i) + Dtb.evictions dtb - v0;
  (match t.finished with
  | Some status ->
      tell now (Trace.Completion { asid = i; ok = status = Machine.Halted })
  | None -> tell now (Trace.Quantum_expiry { asid = i }));
  now

let run_closed ?timing ?fuel ?(layout = Layout.default) ?backend
    ?(trace_capacity = 65536) ~scheduler ~policy ~quantum ~config fc encodeds =
  if encodeds = [] then invalid_arg "Engine.run_closed: no programs";
  if quantum < 1 then invalid_arg "Engine.run_closed: quantum must be >= 1";
  let n = List.length encodeds in
  let dtb =
    Dtb.create_shared ~policy ~programs:n config
      ~buffer_base:(layout.Layout.dtb_buffer_base + 1)
  in
  let e =
    env ?timing ?fuel ~layout ?backend ~dtb
      ~trace:(Trace.create ~capacity:trace_capacity ())
      ~slots:n ~tagged_keys:(policy <> Dtb.Flush_on_switch && n > 1) fc
  in
  let attempts =
    Array.of_list
      (List.mapi (fun asid enc -> create e ~asid ~stream:asid enc) encodeds)
  in
  (* the reference step counts are only needed (and paid for) under SRTF *)
  let total =
    lazy
      (Array.map
         (fun t -> U.dir_steps_memoized t.encoded.Codec.program)
         attempts)
  in
  let remaining i =
    max 0
      ((Lazy.force total).(i)
      - (Machine.stats attempts.(i).machine).Machine.interp_count)
  in
  let runnable i = Option.is_none attempts.(i).finished in
  let rec go now =
    match pick e scheduler ~runnable ~remaining with
    | None -> now
    | Some i -> go (dispatch e attempts.(i) ~now ~quantum)
  in
  let clock = go 0 in
  (e, attempts, clock)

(* The architectural-state fingerprint behind the recovery invariant:
   frame/stack registers plus every live operand-stack and data word.
   Scratch registers and host-side bookkeeping are deliberately excluded;
   a downgraded program's state hashes identically to a translated one's. *)
let fingerprint_mask = (1 lsl 58) - 1

let arch_fingerprint ~(layout : Layout.t) m =
  let mix h v = ((h * 1000003) + v) land fingerprint_mask in
  let sp = Machine.reg m R.sp
  and fp = Machine.reg m R.fp
  and dtop = Machine.reg m R.dtop in
  let h = ref (mix (mix (mix 0 sp) fp) dtop) in
  for a = layout.Layout.op_stack_base to sp - 1 do
    h := mix !h (Machine.peek m a)
  done;
  for a = layout.Layout.data_base to dtop - 1 do
    h := mix !h (Machine.peek m a)
  done;
  !h
