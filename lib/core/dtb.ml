module SF = Uhm_machine.Short_format

type config = {
  sets : int;
  assoc : int;
  unit_words : int;
  overflow_blocks : int;
}

let config_capacity_words c =
  ((c.sets * c.assoc) + c.overflow_blocks) * c.unit_words

(* 4096 bytes of buffer at 16 bits per short word = 2048 words; with 4-word
   units and 4-way sets that is 96 sets of primaries + overflow, rounded to
   the nearest power-of-two set count: 64 sets * 4 ways * 4 words = 1024
   primary words + 256 overflow blocks * 4 = 1024 overflow words. *)
let paper_config = { sets = 64; assoc = 4; unit_words = 4; overflow_blocks = 256 }

(* Multiprogramming ownership policies for a DTB shared between address
   spaces (see dtb.mli). *)
type policy =
  | Flush_on_switch
  | Tagged
  | Partitioned

let policy_name = function
  | Flush_on_switch -> "flush"
  | Tagged -> "tagged"
  | Partitioned -> "partitioned"

(* The directory is flat: entry [i] is way [i mod assoc] of set
   [i / assoc], and owns the primary unit at [buffer_base + i * unit_words].
   Overflow blocks are numbered from 0; block [b] sits at
   [overflow_base + b * unit_words].  A block is always on exactly one
   list — the free list or one entry's chain — so a single [next_block]
   array links both, and no hit, miss, install or eviction allocates. *)
type t = {
  cfg : config;
  buffer_base : int;           (* first primary unit address *)
  tags : int array;            (* lookup key per entry; -1 invalid *)
  stamps : int array;          (* recency timestamp; larger = more recent *)
  chains : int array;          (* the entry's most recently linked overflow
                                  block; -1 = no chain *)
  next_block : int array;      (* per overflow block: the next block of its
                                  chain or of the free list; -1 ends it *)
  mutable free_head : int;     (* first free overflow block; -1 = none *)
  mutable clock : int;         (* recency clock for the replacement array *)
  overflow_base : int;         (* first overflow block address *)
  (* single-entry "last translation" cache in front of the tag array: the
     common hit-again-immediately case (a tight DIR loop re-entering the
     same translation) skips the set hash and the way scan.  Entry tags
     change only in [begin_translation], [flush] and [invalidate_asid],
     all of which refresh or clear this cache, so a matching [last_tag]
     is always authoritative.  [use_last_cache] exists so tests can
     differentially check the shortcut against the plain lookup path. *)
  use_last_cache : bool;
  mutable last_tag : int;      (* -1 = empty; a *key*, i.e. ASID-qualified
                                  under Tagged/Partitioned sharing *)
  mutable last_entry : int;
  (* sharing state; a private DTB is the degenerate single-program case *)
  sharing : policy option;
  programs : int;
  asid_bits : int;             (* 0 when keys are raw DIR addresses *)
  partitions : (int * int) array; (* (first set, set count) per ASID;
                                     empty unless Partitioned *)
  mutable current : int;       (* ASID whose lookups are being served *)
  (* per-ASID activity stamps for the load service's eviction economy:
     the recency-clock value of each ASID's most recent lookup hit or
     installation.  Never reset — [flush] restores the directory, not the
     accounting — so "idle since" comparisons stay monotone. *)
  last_use : int array;
  mutable flushes : int;
  (* open translation state *)
  mutable open_entry : int;    (* -1 = no translation open *)
  mutable cursor : int;        (* next write address *)
  mutable block_end : int;     (* first address past the current block's
                                  payload (the reserved chain slot) *)
  mutable start_addr : int;
  mutable chain_addr : int;    (* the GOTO the last [emit_addr] wrote to
                                  link a block; -1 = none *)
  mutable chain_word : int;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable overflow_allocs : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The canonical free list: every overflow block, in address order. *)
let reset_free_list t =
  let n = Array.length t.next_block in
  for b = 0 to n - 1 do
    t.next_block.(b) <- (if b + 1 < n then b + 1 else -1)
  done;
  t.free_head <- (if n > 0 then 0 else -1)

let create ?(last_cache = true) cfg ~buffer_base =
  if not (is_power_of_two cfg.sets) then
    invalid_arg "Dtb.create: set count must be a power of two";
  if cfg.unit_words < 2 then invalid_arg "Dtb.create: unit too small";
  let assoc = if cfg.assoc = 0 then cfg.sets else cfg.assoc in
  let cfg = { cfg with assoc } in
  let entries = cfg.sets * assoc in
  let t =
    {
      cfg;
      buffer_base;
      tags = Array.make entries (-1);
      (* way 0 most recent, way [assoc-1] first victim *)
      stamps = Array.init entries (fun i -> -(i mod assoc));
      chains = Array.make entries (-1);
      next_block = Array.make cfg.overflow_blocks (-1);
      free_head = -1;
      clock = 0;
      overflow_base = buffer_base + (entries * cfg.unit_words);
      use_last_cache = last_cache;
      last_tag = -1;
      last_entry = 0;
      sharing = None;
      programs = 1;
      asid_bits = 0;
      partitions = [||];
      current = 0;
      last_use = Array.make 1 0;
      flushes = 0;
      open_entry = -1;
      cursor = 0;
      block_end = 0;
      start_addr = 0;
      chain_addr = -1;
      chain_word = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      overflow_allocs = 0;
    }
  in
  reset_free_list t;
  t

let unit_addr t i = t.buffer_base + (i * t.cfg.unit_words)

(* An entry dies (eviction, abort, invalidation): the replacement logic
   returns its overflow chain, most recently linked block first, to the
   front of the free list. *)
let release_chain t i =
  let head = t.chains.(i) in
  if head >= 0 then begin
    let last = ref head in
    while t.next_block.(!last) >= 0 do
      last := t.next_block.(!last)
    done;
    t.next_block.(!last) <- t.free_head;
    t.free_head <- head;
    t.chains.(i) <- -1
  end

let free_entry t i =
  t.tags.(i) <- -1;
  release_chain t i

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

let create_shared ?last_cache ~policy ~programs cfg ~buffer_base =
  if programs < 1 then invalid_arg "Dtb.create_shared: programs must be >= 1";
  (match policy with
  | Partitioned when programs > cfg.sets ->
      invalid_arg "Dtb.create_shared: more programs than sets to partition"
  | _ -> ());
  let t = create ?last_cache cfg ~buffer_base in
  let asid_bits =
    match policy with
    | Flush_on_switch -> 0
    | Tagged | Partitioned -> ceil_log2 programs
  in
  let partitions =
    match policy with
    | Partitioned ->
        (* [sets/programs] sets each, the remainder spread one per ASID
           from ASID 0 up *)
        let k = t.cfg.sets / programs and rem = t.cfg.sets mod programs in
        Array.init programs (fun i ->
            let base = (i * k) + min i rem in
            (base, k + if i < rem then 1 else 0))
    | Flush_on_switch | Tagged -> [||]
  in
  { t with sharing = Some policy; programs; asid_bits; partitions;
    last_use = Array.make programs 0 }

let buffer_words t = config_capacity_words t.cfg

(* The set-selection hash of Figure 2.  DIR addresses are bit addresses, so
   neighbouring instructions differ in the low bits; a simple shift-and-mask
   spreads them well (the hash is a config point for ablations via [sets]).
   [tag] is the raw DIR address: under Tagged sharing the set index ignores
   the ASID (the ASID participates only in the tag match, as in an
   ASID-tagged TLB), so a program's set mapping is identical to the mapping
   it would see on a private DTB.  Under Partitioned sharing the hash is
   folded into the current program's set range instead. *)
let set_of t tag =
  let h = tag lxor (tag lsr 7) in
  if Array.length t.partitions = 0 then h land (t.cfg.sets - 1)
  else
    let base, size = t.partitions.(t.current) in
    base + (h mod size)

(* The key stored in the tag array: the DIR address, ASID-qualified when the
   policy keeps several programs' translations resident at once.  When
   [asid_bits] = 0 the key must be the raw tag even if [current] is nonzero
   (Flush_on_switch tracks the running ASID but relies on the flush, not the
   key, for isolation); folding [current] in with a zero shift would alias
   adjacent DIR addresses, e.g. tags 2k and 2k+1 both keying as 2k lor 1. *)
let key_of t tag =
  if t.asid_bits = 0 then tag else (tag lsl t.asid_bits) lor t.current

(* O(1) timestamp recency in place of the O(assoc) counter shuffle; the
   victim scan in [begin_translation] picks the minimum stamp, which is the
   same entry counter LRU would evict. *)
let touch t i =
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock;
  (* the toucher is always the current ASID: lookup hits and
     installations are the only callers *)
  t.last_use.(t.current) <- t.clock

let probe t ~tag =
  let key = key_of t tag in
  if t.use_last_cache && key = t.last_tag then begin
    (* shortcut hit: identical statistics and recency update to the full
       probe below, so hit/miss/eviction counts cannot drift *)
    t.hits <- t.hits + 1;
    touch t t.last_entry;
    unit_addr t t.last_entry
  end
  else begin
    let first = set_of t tag * t.cfg.assoc in
    let stop = first + t.cfg.assoc in
    let i = ref first in
    while !i < stop && t.tags.(!i) <> key do
      incr i
    done;
    if !i < stop then begin
      t.hits <- t.hits + 1;
      touch t !i;
      t.last_tag <- key;
      t.last_entry <- !i;
      unit_addr t !i
    end
    else begin
      t.misses <- t.misses + 1;
      -1
    end
  end

let lookup t ~tag = match probe t ~tag with -1 -> `Miss | a -> `Hit a

let begin_translation t ~tag =
  if t.open_entry >= 0 then failwith "Dtb: translation already open";
  let key = key_of t tag in
  let first = set_of t tag * t.cfg.assoc in
  let victim = ref first in
  for i = first + 1 to first + t.cfg.assoc - 1 do
    if t.stamps.(i) < t.stamps.(!victim) then victim := i
  done;
  let i = !victim in
  if t.tags.(i) >= 0 then begin
    t.evictions <- t.evictions + 1;
    release_chain t i
  end;
  t.tags.(i) <- key;
  touch t i;
  (* a place a tag changes: point the last-translation cache at the
     entry being (re)installed so it can never go stale *)
  t.last_tag <- key;
  t.last_entry <- i;
  t.open_entry <- i;
  let u = unit_addr t i in
  t.cursor <- u;
  t.block_end <- u + t.cfg.unit_words - 1;
  t.start_addr <- u

let emit_addr t _word =
  if t.open_entry < 0 then failwith "Dtb.emit: no open translation";
  if t.cursor < t.block_end then begin
    let addr = t.cursor in
    t.cursor <- addr + 1;
    t.chain_addr <- -1;
    addr
  end
  else begin
    (* current block full: chain a fresh overflow block through the
       reserved slot *)
    let b = t.free_head in
    if b < 0 then failwith "Dtb.emit: overflow area exhausted";
    let i = t.open_entry in
    t.free_head <- t.next_block.(b);
    t.next_block.(b) <- t.chains.(i);
    t.chains.(i) <- b;
    t.overflow_allocs <- t.overflow_allocs + 1;
    let block = t.overflow_base + (b * t.cfg.unit_words) in
    t.chain_addr <- t.block_end;
    t.chain_word <- SF.pack SF.Goto block;
    t.cursor <- block + 1;
    t.block_end <- block + t.cfg.unit_words - 1;
    block
  end

let chain_addr t = t.chain_addr
let chain_word t = t.chain_word

let emit t word =
  let addr = emit_addr t word in
  (addr, if t.chain_addr < 0 then [] else [ (t.chain_addr, t.chain_word) ])

let end_translation t =
  if t.open_entry < 0 then failwith "Dtb.end_translation: no open translation";
  t.open_entry <- -1;
  t.start_addr

(* A translation that will never complete — the translating machine
   stopped on a fault mid-install — must not leave the directory open:
   every flush/invalidate entry point refuses while a translation is in
   progress.  Aborting drops the half-installed entry (the tag went live
   at [begin_translation]) and returns its overflow chain, leaving the
   directory exactly as if the miss had never been serviced. *)
let abort_translation t =
  let i = t.open_entry in
  if i < 0 then failwith "Dtb.abort_translation: no open translation";
  if t.last_tag = t.tags.(i) then t.last_tag <- -1;
  free_entry t i;
  t.open_entry <- -1

(* -- Multiprogramming --------------------------------------------------------

   [flush] restores the directory to its creation state exactly (tags,
   per-way stamp order, canonical free-block order), so a run after a flush
   is indistinguishable from a run on a fresh DTB: the quantum-to-infinity
   limit of Flush_on_switch scheduling reproduces single-program results
   bit for bit.  Cumulative statistics and the recency clock survive. *)

let flush t =
  if t.open_entry >= 0 then failwith "Dtb.flush: translation open";
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.iteri (fun i _ -> t.stamps.(i) <- -(i mod t.cfg.assoc)) t.stamps;
  Array.fill t.chains 0 (Array.length t.chains) (-1);
  reset_free_list t;
  (* the single-entry shortcut caches an entry index outside the tag
     array; clearing the array without clearing the shortcut would let a
     stale hit survive the flush *)
  t.last_tag <- -1;
  t.flushes <- t.flushes + 1

let invalidate_asid t ~asid =
  if t.asid_bits = 0 && t.sharing <> None then
    invalid_arg "Dtb.invalidate_asid: DTB is not ASID-tagged";
  if t.sharing = None then invalid_arg "Dtb.invalidate_asid: private DTB";
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.invalidate_asid: ASID out of range";
  if t.open_entry >= 0 then failwith "Dtb.invalidate_asid: translation open";
  let mask = (1 lsl t.asid_bits) - 1 in
  let dropped = ref 0 in
  Array.iteri
    (fun i key ->
      if key >= 0 && key land mask = asid then begin
        incr dropped;
        free_entry t i
      end)
    t.tags;
  (* same coherence rule as [flush]: the shortcut must not outlive the
     entries it points at *)
  if t.last_tag >= 0 && t.last_tag land mask = asid then t.last_tag <- -1;
  !dropped

let switch_to t ~asid =
  match t.sharing with
  | None -> invalid_arg "Dtb.switch_to: private DTB"
  | Some policy ->
      if asid < 0 || asid >= t.programs then
        invalid_arg "Dtb.switch_to: ASID out of range";
      if asid <> t.current then begin
        t.current <- asid;
        match policy with
        | Flush_on_switch -> flush t
        | Tagged | Partitioned -> ()
      end

let sharing t = t.sharing
let current_asid t = t.current

let hits t = t.hits
let misses t = t.misses

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let evictions t = t.evictions
let overflow_allocations t = t.overflow_allocs
let flushes t = t.flushes

let resident_entries t =
  Array.fold_left (fun n key -> if key >= 0 then n + 1 else n) 0 t.tags

(* -- Per-ASID idle/footprint accounting --------------------------------------

   The load service's eviction economy scores resident ASIDs by how long
   they have been idle (in recency-clock ticks, the DTB's own notion of
   time) and how much of the directory they hold.  Footprint is an exact
   scan rather than an incrementally maintained counter: it is read a
   handful of times per admission, and a scan cannot drift from the tag
   array under corruption or recovery invalidations. *)

let use_clock t = t.clock

let asid_last_use t ~asid =
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.asid_last_use: ASID out of range";
  t.last_use.(asid)

let asid_footprint t ~asid =
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.asid_footprint: ASID out of range";
  if t.asid_bits = 0 then
    (* untagged keys: everything resident belongs to the current ASID *)
    if asid = t.current then resident_entries t else 0
  else
    let mask = (1 lsl t.asid_bits) - 1 in
    Array.fold_left
      (fun n key -> if key >= 0 && key land mask = asid then n + 1 else n)
      0 t.tags

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.overflow_allocs <- 0

(* -- Resilience hooks --------------------------------------------------------

   [invalidate] is the recovery path's targeted drop: a guard mismatch on a
   hit means the entry the key led to cannot be trusted, so the entry (and,
   after tag corruption, any duplicate carrying the same key) is removed
   and the next INTERP re-misses and retranslates.  [corrupt_resident_tag]
   is the injection side: it models a single-event upset in the associative
   tag array.  The last-translation shortcut mirrors the tag array in both
   directions — corruption updates a mirrored key, invalidation clears it —
   so the shortcut can neither mask nor outlive a fault in the array it
   caches. *)

let invalidate t ~tag =
  if t.open_entry >= 0 then failwith "Dtb.invalidate: translation open";
  let key = key_of t tag in
  let first = set_of t tag * t.cfg.assoc in
  let dropped = ref false in
  for i = first to first + t.cfg.assoc - 1 do
    if t.tags.(i) = key then begin
      dropped := true;
      free_entry t i
    end
  done;
  if t.last_tag = key then t.last_tag <- -1;
  !dropped

(* Key width reachable by a flip: DIR bit addresses stay well under 2^20
   for every suite program, plus the ASID qualifier bits. *)
let key_flip_bits = 20

let corrupt_resident_tag t ~pick ~flip =
  if t.open_entry >= 0 then
    failwith "Dtb.corrupt_resident_tag: translation open";
  let resident = resident_entries t in
  if resident = 0 then None
  else begin
    (* the [target]-th resident entry in set-major, way-minor order *)
    let target = ((pick mod resident) + resident) mod resident in
    let i = ref (-1) and seen = ref (-1) in
    while !seen < target do
      incr i;
      if t.tags.(!i) >= 0 then incr seen
    done;
    let i = !i in
    let bits = key_flip_bits + t.asid_bits in
    let old_key = t.tags.(i) in
    let bit = ((flip mod bits) + bits) mod bits in
    let new_key = old_key lxor (1 lsl bit) in
    t.tags.(i) <- new_key;
    if t.use_last_cache && t.last_entry = i && t.last_tag = old_key then
      t.last_tag <- new_key;
    Some (old_key, new_key)
  end
