type addr = int

(* The per-line record array: off the OCaml heap, so the major GC never
   scans it, and malloc'd, so its 16-byte records never straddle a host
   cache line. *)
type record = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Precise mode: the dirty lines' pending stores (see "pending-store
   journal" below). *)
type journal = {
  mutable entries : int array;
  mutable n : int;
  mutable payload : Bytes.t;
  mutable payload_len : int;
  mutable pending_lines : int;  (* lines with a non-zero count *)
  mutable live : int;  (* sum of the pending counts *)
  mutable live_bytes : int;  (* sum of the pending payload bytes *)
}

type t = {
  cfg : Config.t;
  nlines : int;
  (* Hot-path copies of configuration the fast paths read on every store
     and load. All immutable after [create]: chasing [cfg.cost.field]
     through two records per memory access was measurable (see
     bin/microbench.ml), so the fields are hoisted once here. *)
  size_bytes : int;
  is_precise : bool;
  max_dirty : int;  (* [max_dirty_lines], with [None] as [max_int] *)
  max_line_log_bytes : int;
  op_base_ns : float;
  write_ns : float;
  read_ns : float;
  mem_miss_ns : float;
  clwb_ns : float;
  volatile : Bytes.t;
  lines : record;  (* one record per line, laid out below *)
  rec_shift : int;  (* log2 of the ints per record: 1 Precise, 0 Counting *)
  dirty_list : Util.Ivec.t;  (* line ids, unordered *)
  log : journal;
  undo : Bytes.t;  (* the bytes the store in progress overwrites *)
  pending_wb : Util.Ivec.t;  (* lines clwb'd since the last sfence *)
  evict_rng : Util.Rng.t;
  stats : Stats.t;
  metrics : Obs.Registry.t;
  trace : Obs.Trace.t;
  spans : Obs.Span.t;
  series_tbl : (string, Obs.Series.t) Hashtbl.t;
  stalls : Obs.Stall.t;  (* attributed stall intervals, simulated clock *)
  h_sfence : Obs.Histogram.t;  (* per-sfence latency, ns *)
  h_wbinvd : Obs.Histogram.t;  (* per-wbinvd latency, ns *)
  h_sweep : Obs.Histogram.t;  (* per-sweep-quantum latency, ns *)
  mutable sfence_extra_ns : float;  (* runtime-adjustable emulated latency *)
  (* Direct-mapped LLC: models capacity misses so locality has a price.
     Slot [line land llc_mask] holds a 16-bit partial tag (see
     [touch_llc]); 512 KiB, so the tags stay in a host L2. *)
  llc_tags : Bytes.t;
  (* Optional file-backed shadow of the persisted view (a shared mmap).
     Because the mapping is MAP_SHARED, bytes written here live in the
     kernel page cache and survive the process being SIGKILLed — the
     cross-process analogue of NVM outliving a power failure. Only the
     persisted view is mirrored, and only at the instants it changes, so
     the file always holds exactly what a crash would leave behind. *)
  mutable hi32 : int;  (* high half of the word [read_u64] last loaded *)
  mutable mirror :
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
    option;
}

(* The line geometry as literals: dune's dev profile compiles every
   module [-opaque], so [Config]'s constants would be loaded from memory
   on every access. *)
let line_shift = 6
let line_size = 64
let () = assert (line_shift = Config.line_shift && line_size = Config.line_size)

(* The per-line record: in Precise mode words [2l] and [2l+1] of
   [lines], 16 bytes, so one host cache miss reaches all of a line's
   bookkeeping; in Counting mode word 0 alone, at [l].
   - word 0, bits 0-31 ([pos_mask]): the line's index in [dirty_list] + 1
     (0: clean); bit 32 ([wb_bit]): whether it is in [pending_wb]; bits
     33-62: its pending-store count (Precise mode);
   - word 1: [since], the index of the line's first live journal entry
     (bits 0-41), lor its pending payload bytes lsl [bytes_shift]. *)
let pos_mask = 0xffff_ffff
let wb_bit = 1 lsl 32
let flags_mask = pos_mask lor wb_bit
let count_shift = 33
let since_mask = (1 lsl 42) - 1
let bytes_shift = 42

(* Largest [max_line_log_bytes] the bytes field can count: the bound may
   be exceeded by one store of at most a line. *)
let max_line_log_bytes = (1 lsl 21) - 1 - line_size

(* Index of word 0 of [line]'s record in [lines]. *)
let[@inline] ix t line = line lsl t.rec_shift

let line_of_addr addr = addr lsr line_shift
let same_line a b = line_of_addr a = line_of_addr b

let precise t = t.is_precise

(* 2^18 slots x 64 B = a 16 MiB simulated LLC. *)
let llc_bits = 18
let llc_slots = 1 lsl llc_bits
let llc_mask = llc_slots - 1

external madvise_hugepage : Bytes.t -> unit = "incll_madvise_hugepage"
  [@@noalloc]

(* The volatile image, zero-filled. Advised to use transparent huge pages
   before the fill first touches it, so a random access over a large image
   walks fewer host TLB entries; wall time only, nothing simulated. *)
let fresh_image size =
  let b = Bytes.create size in
  madvise_hugepage b;
  Bytes.fill b 0 size '\000';
  b

let create (cfg : Config.t) =
  if cfg.size_bytes <= 0 || cfg.size_bytes land (line_size - 1) <> 0
  then invalid_arg "Region.create: size must be a positive multiple of 64";
  let nlines = cfg.size_bytes / line_size in
  let rec_shift = if cfg.crash_support = Config.Precise then 1 else 0 in
  if nlines >= pos_mask then invalid_arg "Region.create: region too large";
  if cfg.max_line_log_bytes > max_line_log_bytes then
    invalid_arg "Region.create: max_line_log_bytes too large";
  let metrics = Obs.Registry.create () in
  let stats = Stats.create () in
  let trace = Obs.Trace.create ~capacity:cfg.trace_capacity () in
  let spans =
    Obs.Span.create ~registry:metrics ~trace
      ~wall_clock:(fun () -> Unix.gettimeofday () *. 1e9)
      ~clock:(fun () -> Stats.sim_ns stats)
      ()
  in
  {
    cfg;
    nlines;
    size_bytes = cfg.size_bytes;
    is_precise = cfg.crash_support = Config.Precise;
    max_dirty = Option.value cfg.max_dirty_lines ~default:max_int;
    max_line_log_bytes = cfg.max_line_log_bytes;
    op_base_ns = cfg.cost.Config.op_base_ns;
    write_ns = cfg.cost.Config.write_ns;
    read_ns = cfg.cost.Config.read_ns;
    mem_miss_ns = cfg.cost.Config.mem_miss_ns;
    clwb_ns = cfg.cost.Config.clwb_ns;
    volatile = fresh_image cfg.size_bytes;
    lines =
      (let a =
         Bigarray.Array1.create Bigarray.int Bigarray.c_layout
           (nlines lsl rec_shift)
       in
       Bigarray.Array1.fill a 0;
       a);
    rec_shift;
    dirty_list = Util.Ivec.create ~capacity:1024 ();
    log =
      {
        entries = Array.make 1024 0;
        n = 0;
        payload = Bytes.create 8192;
        payload_len = 0;
        pending_lines = 0;
        live = 0;
        live_bytes = 0;
      };
    undo = Bytes.create line_size;
    pending_wb = Util.Ivec.create ~capacity:64 ();
    evict_rng = Util.Rng.create ~seed:0x5eed_ca5e;
    stats;
    metrics;
    trace;
    spans;
    series_tbl = Hashtbl.create 8;
    stalls = Obs.Stall.create ~registry:metrics ();
    h_sfence = Obs.Registry.histogram metrics "nvm.sfence_ns";
    h_wbinvd = Obs.Registry.histogram metrics "nvm.wbinvd_ns";
    h_sweep = Obs.Registry.histogram metrics "nvm.sweep_ns";
    sfence_extra_ns = cfg.cost.Config.sfence_extra_ns;
    llc_tags = Bytes.make (2 * llc_slots) '\000';
    hi32 = 0;
    mirror = None;
  }

(* --- pending-store journal (Precise mode) ------------------------------ *)

(* PCSO (§2.1) guarantees that two writes to the same cache line reach NVM
   in program order, so a crashed line holds its last write-back plus a
   program-order prefix of the stores made since, independently per
   line. The region therefore keeps no second image: a clean line's
   durable content is its volatile line, and a dirty line's is its base,
   the line just before the store that dirtied it. The journal keeps each
   base piecewise: every pending store is recorded with the bytes it
   overwrote (its undo image), so undoing a line's stores newest first
   turns its volatile line back into its base, and undoing all but the
   first [k] leaves base plus a [k]-store prefix.

   All lines share one flat journal, so the simulator holds no heap block
   per cache line and no pointer per store: each store is one packed int
   (line | off:6 bits | len:7 bits) in [entries], and its undo image is
   appended to [payload]; a store's payload position is the running sum
   of the lengths before it, so every walk reads the journal in order (or
   in reverse). An entry is live iff its line has a non-zero pending count
   and the entry's index is at least the line's [since]; committing a
   line zeroes its count in O(1) and leaves its old entries stale.

   When the last pending line is committed the journal is reset to empty.
   When it is full it is compacted in place if fewer than half of the
   full resource (entries or payload bytes) is live, and grown otherwise,
   so its storage stays within a constant factor of the peak live content
   even when the dirty set never drains. *)

(* Unchecked native-endian word access: copies move 8 bytes per
   load/store pair. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Copy [len] bytes, at most a line, from [src] at [spos] to [dst] at
   [dpos] (ranges already checked): 8 bytes a step, then the tail, with
   no C call, since [Bytes.blit]'s costs more than the copy. *)
let[@inline] copy_small src spos dst dpos len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    set64u dst (dpos + !i) (get64u src (spos + !i));
    i := !i + 8
  done;
  for k = words to len - 1 do
    Bytes.unsafe_set dst (dpos + k) (Bytes.unsafe_get src (spos + k))
  done

let off_shift = 7
let entry_line_shift = 13
let len_mask = 0x7f
let off_mask = 0x3f

let pending_count t line = t.lines.{ix t line} lsr count_shift

let journal_reset j =
  j.n <- 0;
  j.payload_len <- 0

(* Whether entry [i], of [line], is live. *)
let[@inline] entry_live t line i =
  let k = ix t line in
  t.lines.{k} lsr count_shift <> 0 && i >= t.lines.{k + 1} land since_mask

(* Slide the live entries and their payloads to the front, in order. The
   first live entry of a line sits exactly at its [since], so moving that
   one entry re-anchors the line; its later entries all stay live. *)
let compact t =
  let j = t.log and lines = t.lines in
  let entries = j.entries and payload = j.payload in
  let w = ref 0 and wpos = ref 0 and rpos = ref 0 in
  for i = 0 to j.n - 1 do
    let e = entries.(i) in
    let line = e lsr entry_line_shift and len = e land len_mask in
    if entry_live t line i then begin
      let k = ix t line + 1 in
      if i = lines.{k} land since_mask then lines.{k} <- lines.{k} - i + !w;
      entries.(!w) <- e;
      Bytes.blit payload !rpos payload !wpos len;
      incr w;
      wpos := !wpos + len
    end;
    rpos := !rpos + len
  done;
  j.n <- !w;
  j.payload_len <- !wpos

let make_room t len =
  let j = t.log in
  let entries_full = j.n = Array.length j.entries in
  let payload_full = j.payload_len + len > Bytes.length j.payload in
  if
    (entries_full && 2 * j.live < j.n)
    || (payload_full && 2 * j.live_bytes < j.payload_len)
  then compact t;
  if j.n = Array.length j.entries then begin
    let entries = Array.make (2 * j.n) 0 in
    Array.blit j.entries 0 entries 0 j.n;
    j.entries <- entries
  end;
  let needed = j.payload_len + len in
  if needed > Bytes.length j.payload then begin
    let payload = Bytes.create (max needed (2 * Bytes.length j.payload)) in
    Bytes.blit j.payload 0 payload 0 j.payload_len;
    j.payload <- payload
  end

(* Journal a store of [len] bytes at offset [off] of [line] whose undo
   image is [src\[src_pos .. src_pos+len-1\]]. *)
let journal_append t ~line ~off ~src ~src_pos ~len =
  let j = t.log in
  if j.n = Array.length j.entries || j.payload_len + len > Bytes.length j.payload
  then make_room t len;
  let i = ix t line in
  let w0 = t.lines.{i} in
  if w0 lsr count_shift = 0 then begin
    t.lines.{i + 1} <- j.n;
    j.pending_lines <- j.pending_lines + 1
  end;
  t.lines.{i} <- w0 + (1 lsl count_shift);
  t.lines.{i + 1} <- t.lines.{i + 1} + (len lsl bytes_shift);
  j.entries.(j.n) <- (line lsl entry_line_shift) lor (off lsl off_shift) lor len;
  j.n <- j.n + 1;
  copy_small src src_pos j.payload j.payload_len len;
  j.payload_len <- j.payload_len + len;
  j.live <- j.live + 1;
  j.live_bytes <- j.live_bytes + len

(* Drop every pending store of a line (it was written back). *)
let journal_commit t line =
  let j = t.log and i = ix t line in
  let w0 = t.lines.{i} in
  if w0 lsr count_shift <> 0 then begin
    t.lines.{i} <- w0 land flags_mask;
    j.live <- j.live - (w0 lsr count_shift);
    j.live_bytes <- j.live_bytes - (t.lines.{i + 1} lsr bytes_shift);
    t.lines.{i + 1} <- 0;
    j.pending_lines <- j.pending_lines - 1;
    if j.pending_lines = 0 then journal_reset j
  end

(* Walk the journal newest entry first, calling [f e pos] on each live
   entry [e] whose payload starts at [pos]. *)
let iter_live_rev t f =
  let j = t.log in
  let pos = ref j.payload_len in
  for i = j.n - 1 downto 0 do
    let e = j.entries.(i) in
    pos := !pos - (e land len_mask);
    if entry_live t (e lsr entry_line_shift) i then f e !pos
  done

(* [dst] holds the volatile bytes at [addr .. addr + length dst - 1]:
   undo into it, newest first, every pending store, so it holds the
   persisted view of that range. *)
let undo_into t ~dst ~addr =
  let stop = addr + Bytes.length dst in
  iter_live_rev t (fun e pos ->
      let a =
        ((e lsr entry_line_shift) * line_size)
        + ((e lsr off_shift) land off_mask)
      in
      let lo = max a addr and hi = min (a + (e land len_mask)) stop in
      if lo < hi then
        Bytes.blit t.log.payload (pos + lo - a) dst (lo - addr) (hi - lo))

(* Power failure on the journal: walking [dirty_list] from the back, call
   [choose] once per pending line; then, in one pass newest first, undo
   in the volatile image every pending store of each line but its first
   [k], and empty the journal. While this runs, a pending line's count
   field holds the ordinal of its newest store not yet visited, and its
   payload-bytes field how many of its stores persist. *)
let journal_crash t ~choose =
  let lines = t.lines and j = t.log in
  for d = Util.Ivec.length t.dirty_list - 1 downto 0 do
    let line = Util.Ivec.get t.dirty_list d in
    let i = ix t line in
    let n = lines.{i} lsr count_shift in
    let k = choose ~line ~nwrites:n in
    if k < 0 || k > n then invalid_arg "Region.crash_with: bad prefix";
    lines.{i + 1} <- (lines.{i + 1} land since_mask) lor (k lsl bytes_shift)
  done;
  iter_live_rev t (fun e pos ->
      let line = e lsr entry_line_shift in
      let i = ix t line in
      if lines.{i} lsr count_shift > lines.{i + 1} lsr bytes_shift then begin
        let off = (e lsr off_shift) land off_mask in
        Bytes.blit j.payload pos t.volatile ((line * line_size) + off)
          (e land len_mask)
      end;
      (* Past the line's oldest live store the count is 0, so its stale
         entries read as dead. *)
      lines.{i} <- lines.{i} - (1 lsl count_shift));
  for i = 0 to j.n - 1 do
    let k = ix t (j.entries.(i) lsr entry_line_shift) in
    lines.{k} <- lines.{k} land flags_mask;
    lines.{k + 1} <- 0
  done;
  j.pending_lines <- 0;
  j.live <- 0;
  j.live_bytes <- 0;
  journal_reset j

(* --- persisted-view mirror --------------------------------------------- *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external big_get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external big_set64u : bigstring -> int -> int64 -> unit
  = "%caml_bigstring_set64u"

let mirror_words m ~dst src ~src_pos ~len =
  for w = 0 to (len / 8) - 1 do
    big_set64u m (dst + (8 * w)) (get64u src (src_pos + (8 * w)))
  done

(* A line's durable content is its volatile line while it is clean. *)
let mirror_line t line =
  match t.mirror with
  | None -> ()
  | Some m ->
      let pos = line * line_size in
      mirror_words m ~dst:pos t.volatile ~src_pos:pos ~len:line_size

let mirror_all t =
  match t.mirror with
  | None -> ()
  | Some m ->
      let img =
        if Util.Ivec.length t.dirty_list = 0 then t.volatile
        else begin
          let b = Bytes.copy t.volatile in
          undo_into t ~dst:b ~addr:0;
          b
        end
      in
      mirror_words m ~dst:0 img ~src_pos:0 ~len:t.size_bytes

let config t = t.cfg
let stats t = t.stats
let metrics t = t.metrics
let stalls t = t.stalls
let trace t = t.trace
let spans t = t.spans

let trace_event t payload =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.record t.trace ~ts_ns:t.stats.Stats.clock.Stats.ns payload

let tracing t = Obs.Trace.enabled t.trace

let series t name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> s
  | None ->
      let s = Obs.Series.create ~name () in
      Hashtbl.add t.series_tbl name s;
      s

let all_series t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.series_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
let size t = t.cfg.Config.size_bytes
let dirty_line_count t = Util.Ivec.length t.dirty_list
let is_dirty_line t line = t.lines.{ix t line} land pos_mask <> 0

(* --- dirty tracking ------------------------------------------------- *)

(* Write a dirty line back. In Precise mode its durable content becomes
   its volatile line: its pending stores are dropped, nothing is copied
   but the mirror's line. *)
let commit_line t line =
  let i = ix t line in
  let pos = t.lines.{i} land pos_mask in
  if pos <> 0 then begin
    if t.is_precise then begin
      mirror_line t line;
      journal_commit t line
    end;
    t.lines.{i} <- t.lines.{i} land lnot pos_mask;
    let moved = Util.Ivec.swap_remove t.dirty_list (pos - 1) in
    if moved >= 0 then begin
      let m = ix t moved in
      t.lines.{m} <- (t.lines.{m} land lnot pos_mask) lor pos
    end;
    t.stats.Stats.lines_committed <- t.stats.Stats.lines_committed + 1
  end

let evict_some t =
  (* [commit_line] removes exactly one dirty line per call, so the count
     can be threaded through the loop instead of re-read from the vector
     each iteration (the RNG consumes the same bound sequence either
     way). *)
  let n = dirty_line_count t in
  if n > 0 then begin
    let batch = min t.cfg.Config.evict_batch n in
    let remaining = ref n in
    for _ = 1 to batch do
      let victim =
        Util.Ivec.get t.dirty_list (Util.Rng.int t.evict_rng !remaining)
      in
      commit_line t victim;
      decr remaining;
      t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
    done
  end

(* [line] is in range: its address was checked. *)
let[@inline] mark_dirty t line =
  let i = ix t line in
  let w0 = Bigarray.Array1.unsafe_get t.lines i in
  if w0 land pos_mask = 0 then begin
    Bigarray.Array1.unsafe_set t.lines i (w0 lor (Util.Ivec.length t.dirty_list + 1));
    Util.Ivec.push t.dirty_list line;
    if Util.Ivec.length t.dirty_list > t.max_dirty then evict_some t
  end

(* Precise mode, before a store of [len] bytes at [addr] (within one
   line) changes the volatile image: keep the bytes it overwrites, the
   undo image [record_store] journals. *)
let[@inline] save_undo t addr len =
  if t.is_precise then copy_small t.volatile addr t.undo 0 len

(* Record one intra-line store in Precise mode, evicting the line first if
   its pending stores outgrew the configured bound (a legal cache
   behaviour that keeps simulator memory bounded). The store is already in
   the volatile image, so that write-back persists it too: undoing it must
   then leave it in place, and its undo image is what it wrote. *)
let record_store t line ~off ~src_pos ~len =
  if Bigarray.Array1.unsafe_get t.lines (ix t line + 1) lsr bytes_shift
     > t.max_line_log_bytes
  then begin
    commit_line t line;
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
    journal_append t ~line ~off ~src:t.volatile ~src_pos ~len
  end
  else journal_append t ~line ~off ~src:t.undo ~src_pos:0 ~len

(* [len > size - addr], not [addr + len > size]: a length word near
   [max_int] read from a damaged image would wrap the sum. *)
let check_range t addr len =
  if addr < 0 || len < 0 || len > t.size_bytes - addr then
    invalid_arg
      (Printf.sprintf "Region: address range [%d, %d) out of bounds" addr
         (addr + len))

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* The slot fixes a line's low [llc_bits] bits, so its tag is the rest,
   plus one (0: empty). [create] keeps lines below 2^32, so a tag fits in
   16 bits and hits and misses are exactly those of full line-id tags. *)
let[@inline] touch_llc t line =
  let pos = (line land llc_mask) lsl 1 in
  let tag = (line lsr llc_bits) + 1 in
  if get16u t.llc_tags pos <> tag then begin
    set16u t.llc_tags pos tag;
    let st = t.stats in
    st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.mem_miss_ns
  end

(* Accounting for a store whose [len] bytes are already in the volatile
   image at [addr] (and stay within one line), and whose overwritten bytes
   [save_undo] kept: LLC probe, Precise-mode logging, dirty
   tracking, and the stats/clock charges — in the same order as the
   historical blit-from-scratch path, so the charged [sim_ns] is
   bit-identical. Callers write their payload straight into the volatile
   image, with no scratch staging buffer. *)
let[@inline] store_committed t addr len =
  let line = addr lsr line_shift in
  touch_llc t line;
  if t.is_precise then
    record_store t line ~off:(addr land (line_size - 1)) ~src_pos:addr ~len;
  mark_dirty t line;
  let st = t.stats in
  st.Stats.writes <- st.Stats.writes + 1;
  st.Stats.bytes_written <- st.Stats.bytes_written + len;
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.write_ns

(* --- loads and stores ------------------------------------------------ *)

(* Fused read accounting: counter bump, clock charge and LLC probe of the
   line containing [addr], with no intermediate calls. *)
let[@inline] charge_read t addr =
  let st = t.stats in
  st.Stats.reads <- st.Stats.reads + 1;
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.read_ns;
  touch_llc t (addr lsr line_shift)

(* Read side of a multi-byte access: one read + LLC probe per touched
   line (mirrors how the store side splits spans per line). *)
let charge_read_span t addr len =
  if len > 0 then begin
    let st = t.stats in
    let last = (addr + len - 1) lsr line_shift in
    for line = addr lsr line_shift to last do
      st.Stats.reads <- st.Stats.reads + 1;
      st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.read_ns;
      touch_llc t line
    done
  end

(* Unchecked little-endian word access, for callers that have already
   range-checked [addr]. *)
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load64 b i =
  if Sys.big_endian then swap64 (get64u b i) else get64u b i

let[@inline] store64 b i v =
  if Sys.big_endian then set64u b i (swap64 v) else set64u b i v

let read_i64 t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  load64 t.volatile addr

(* Unsigned comparison of the stored word at [addr] against the probe
   whose 32-bit unsigned halves are [hi] and [lo]. Charges exactly like
   {!read_i64} (one read, one LLC probe); works entirely in tagged ints,
   so index-structure searches can compare keys without boxing an Int64
   per probe. *)
let compare_u64 t addr ~hi ~lo =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  let w = load64 t.volatile addr in
  let whi = Int64.to_int (Int64.shift_right_logical w 32) in
  if whi <> hi then (if whi < hi then -1 else 1)
  else begin
    let wlo = Int64.to_int w land 0xffff_ffff in
    if wlo = lo then 0 else if wlo < lo then -1 else 1
  end

let write_i64 t addr v =
  (* Single fused bounds+alignment test on the hot path; the cold branch
     re-derives which precondition failed for the historical message. *)
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_i64: unaligned"
  end;
  save_undo t addr 8;
  store64 t.volatile addr v;
  store_committed t addr 8

(* Tagged-int word accessors: same bytes, same charges as {!read_i64} /
   {!write_i64} composed with [Int64.to_int] / [Int64.of_int]. The int64
   never leaves the expression, so it stays unboxed: one 8-byte load or
   store, nothing allocated (bit 63 is truncated exactly as
   [Int64.to_int] truncates it). *)
let get_int_le b i = Int64.to_int (load64 b i)
let set_int_le b i v = store64 b i (Int64.of_int v)

let read_int t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  get_int_le t.volatile addr

let write_int t addr v =
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_int: unaligned"
  end;
  save_undo t addr 8;
  set_int_le t.volatile addr v;
  store_committed t addr 8

(* Exact 64-bit words as two unsigned 32-bit halves, for the NVM words
   that use bit 63 (epoch word, value InCLL, chunk header): one charged
   load returns the low half and parks the high half in [hi32], so a
   decode reads each word once and boxes nothing. *)
let read_u64 t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  let w = load64 t.volatile addr in
  t.hi32 <- Int64.to_int (Int64.shift_right_logical w 32);
  Int64.to_int w land 0xffff_ffff

let hi32 t = t.hi32

let write_u64 t addr ~hi ~lo =
  if addr land 7 <> 0 || addr < 0 || addr > t.size_bytes - 8 then begin
    check_range t addr 8;
    invalid_arg "Region.write_u64: unaligned"
  end;
  save_undo t addr 8;
  store64 t.volatile addr
    (Int64.logor
       (Int64.shift_left (Int64.of_int hi) 32)
       (Int64.of_int (lo land 0xffff_ffff)));
  store_committed t addr 8

let read_u8 t addr =
  if addr < 0 || addr >= t.size_bytes then check_range t addr 1;
  charge_read t addr;
  Char.code (Bytes.unsafe_get t.volatile addr)

let write_u8 t addr v =
  if addr < 0 || addr >= t.size_bytes then check_range t addr 1;
  save_undo t addr 1;
  Bytes.unsafe_set t.volatile addr (Char.unsafe_chr (v land 0xff));
  store_committed t addr 1

(* Split a multi-line store into per-line stores, in address order: blit
   each line chunk into the volatile image, then account for it. The
   loops are specialised per payload kind (bytes / string / the volatile
   image itself) so none of them allocates. *)
let rec write_span t addr src src_pos len =
  if len > 0 then begin
    let line_end = (addr lor (line_size - 1)) + 1 in
    let chunk = min len (line_end - addr) in
    save_undo t addr chunk;
    Bytes.blit src src_pos t.volatile addr chunk;
    store_committed t addr chunk;
    write_span t (addr + chunk) src (src_pos + chunk) (len - chunk)
  end

let write_bytes t addr b =
  let len = Bytes.length b in
  check_range t addr len;
  write_span t addr b 0 len

let rec string_span t addr s pos len =
  if len > 0 then begin
    let line_end = (addr lor (line_size - 1)) + 1 in
    let chunk = min len (line_end - addr) in
    save_undo t addr chunk;
    Bytes.blit_string s pos t.volatile addr chunk;
    store_committed t addr chunk;
    string_span t (addr + chunk) s (pos + chunk) (len - chunk)
  end

let write_string t addr s =
  let len = String.length s in
  check_range t addr len;
  string_span t addr s 0 len

let read_bytes t addr ~len =
  check_range t addr len;
  charge_read_span t addr len;
  Bytes.sub t.volatile addr len

let read_string t addr ~len =
  check_range t addr len;
  charge_read_span t addr len;
  Bytes.sub_string t.volatile addr len

let read_prefixed_string t addr =
  if addr < 0 || addr > t.size_bytes - 8 then check_range t addr 8;
  charge_read t addr;
  let len = get_int_le t.volatile addr in
  check_range t (addr + 8) len;
  charge_read_span t (addr + 8) len;
  Bytes.sub_string t.volatile (addr + 8) len

(* Host prefetch hints: one C call per hint, nothing charged or counted,
   no LLC tag or image byte changed. The stubs clip their range to the
   image, and [prefetch_deref] reads its address word there itself:
   the only uncharged image read outside the persisted-view accessors.
   They take both lengths from the block headers, which is exact because
   both are multiples of 8 ([create]). *)
external prefetch_stub :
  Bytes.t -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "incll_prefetch_byte" "incll_prefetch"
  [@@noalloc]

external prefetch_deref_stub :
  Bytes.t ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "incll_prefetch_deref_byte" "incll_prefetch_deref"
  [@@noalloc]

let prefetch t addr ~lines = prefetch_stub t.volatile t.llc_tags addr lines

let prefetch_deref t addr ~words ~lines =
  prefetch_deref_stub t.volatile t.llc_tags addr words lines

let blit_within t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  charge_read_span t src len;
  if src + len <= dst || dst + len <= src then
    (* Disjoint ranges: copy straight out of the volatile image, no
       temporary ([Bytes.blit] within one buffer is fine when the chunks
       cannot alias). *)
    let rec loop dst src len =
      if len > 0 then begin
        let line_end = (dst lor (line_size - 1)) + 1 in
        let chunk = min len (line_end - dst) in
        save_undo t dst chunk;
        Bytes.blit t.volatile src t.volatile dst chunk;
        store_committed t dst chunk;
        loop (dst + chunk) (src + chunk) (len - chunk)
      end
    in
    loop dst src len
  else begin
    (* Overlapping: the destination stores must see the pre-copy source
       bytes, so stage them once. *)
    let tmp = Bytes.sub t.volatile src len in
    write_span t dst tmp 0 len
  end

(* --- persistence instructions ---------------------------------------- *)

let pending_wb_count t = Util.Ivec.length t.pending_wb

(* Forget the pending write-back set without committing anything (the
   lines were either just committed or just lost to a crash/flush). *)
let clear_pending_wb t =
  for i = 0 to Util.Ivec.length t.pending_wb - 1 do
    let w = ix t (Util.Ivec.get t.pending_wb i) in
    t.lines.{w} <- t.lines.{w} land lnot wb_bit
  done;
  Util.Ivec.clear t.pending_wb

let clwb t addr =
  check_range t addr 1;
  let line = line_of_addr addr in
  (* Re-flushing an already-pending line is a no-op at the next fence;
     pushing it again would grow the vector and re-commit redundantly. *)
  let i = ix t line in
  let w0 = t.lines.{i} in
  if w0 land wb_bit = 0 then begin
    t.lines.{i} <- w0 lor wb_bit;
    Util.Ivec.push t.pending_wb line
  end;
  t.stats.Stats.clwb <- t.stats.Stats.clwb + 1;
  Stats.add_ns t.stats t.clwb_ns;
  if tracing t then trace_event t (Obs.Trace.Clwb { line })

let sfence t =
  (* Fault-injection hook: an armed chaos plan can kill the process at
     the moment the drain would start, i.e. with every clwb issued but
     nothing yet guaranteed persistent. *)
  Chaos.Plan.fire Chaos.Site.Sfence;
  let drained = Util.Ivec.length t.pending_wb in
  for i = 0 to drained - 1 do
    commit_line t (Util.Ivec.get t.pending_wb i)
  done;
  clear_pending_wb t;
  t.stats.Stats.sfence <- t.stats.Stats.sfence + 1;
  let c = t.cfg.Config.cost in
  let cost = c.Config.sfence_ns +. t.sfence_extra_ns in
  Stats.add_ns t.stats cost;
  Obs.Histogram.record t.h_sfence cost;
  (* A free-standing fence is a clwb-sweep stall; inside a coarser scope
     (epoch flush, extlog seal, txn fence) the scope owns this time. *)
  Obs.Stall.leaf t.stalls Obs.Stall.Clwb_sweep
    ~start_ns:(Stats.sim_ns t.stats -. cost)
    ~dur_ns:cost;
  if tracing t then trace_event t (Obs.Trace.Sfence { drained; dur_ns = cost })

let release_fence t =
  (* Same-line ordering is already program order in this simulator; the
     release fence exists so call sites mirror the paper's Listing 3. *)
  t.stats.Stats.release_fence <- t.stats.Stats.release_fence + 1

let wbinvd t =
  let ndirty = dirty_line_count t in
  (* commit_line swap-removes from the list; drain from the back. *)
  while dirty_line_count t > 0 do
    let line = Util.Ivec.get t.dirty_list (dirty_line_count t - 1) in
    commit_line t line
  done;
  clear_pending_wb t;
  (* Real wbinvd also invalidates, but the post-flush refill of a 19 MB
     L3 over a 64 ms epoch costs the paper's machine ~1%; at this
     simulator's compressed epoch scale the same modelling would charge
     10-20%, so the invalidation side effect is deliberately not
     modelled (see DESIGN.md "scaling trilemma"). *)
  t.stats.Stats.wbinvd <- t.stats.Stats.wbinvd + 1;
  t.stats.Stats.wbinvd_lines <- t.stats.Stats.wbinvd_lines + ndirty;
  let c = t.cfg.Config.cost in
  let cost =
    c.Config.wbinvd_base_ns
    +. (float_of_int ndirty *. c.Config.wbinvd_per_line_ns)
  in
  Stats.add_ns t.stats cost;
  Obs.Histogram.record t.h_wbinvd cost;
  Obs.Stall.leaf t.stalls Obs.Stall.Epoch_advance
    ~start_ns:(Stats.sim_ns t.stats -. cost)
    ~dur_ns:cost;
  trace_event t (Obs.Trace.Wbinvd { lines = ndirty; dur_ns = cost })

(* One bounded quantum of the incremental epoch flush (DESIGN.md §15):
   commit up to [budget_lines] dirty lines via clwb and drain them with
   one fence, instead of the stop-the-world [wbinvd]. Draining from the
   back of [dirty_list] costs O(budget) regardless of how many lines are
   dirty. Committing an epoch-[e] line before the epoch boundary is
   always legal — capacity evictions already do exactly that, and
   recovery rolls the whole failed epoch back regardless of how much of
   it persisted. A committed line may still sit in the pending-wb set
   from an earlier clwb; the later fence re-commits it as a no-op
   ([commit_line] checks the dirty byte), so no separate bookkeeping is
   needed. Returns the number of dirty lines remaining. *)
let flush_some t ~budget_lines =
  if budget_lines <= 0 then invalid_arg "Region.flush_some: budget_lines";
  let n = min budget_lines (dirty_line_count t) in
  if n = 0 then 0
  else begin
    for _ = 1 to n do
      let line = Util.Ivec.get t.dirty_list (dirty_line_count t - 1) in
      commit_line t line
    done;
    t.stats.Stats.clwb <- t.stats.Stats.clwb + n;
    t.stats.Stats.sfence <- t.stats.Stats.sfence + 1;
    t.stats.Stats.sweep_quanta <- t.stats.Stats.sweep_quanta + 1;
    t.stats.Stats.sweep_lines <- t.stats.Stats.sweep_lines + n;
    let c = t.cfg.Config.cost in
    let cost =
      (float_of_int n *. t.clwb_ns) +. c.Config.sfence_ns +. t.sfence_extra_ns
    in
    Stats.add_ns t.stats cost;
    Obs.Histogram.record t.h_sweep cost;
    (* The quantum is the clwb-sweep stall the cause enum reserved; when a
       forced synchronous advance drains inside the Epoch_advance scope,
       the leaf is suppressed and the scope owns the time. *)
    Obs.Stall.leaf t.stalls Obs.Stall.Clwb_sweep
      ~start_ns:(Stats.sim_ns t.stats -. cost)
      ~dur_ns:cost;
    trace_event t (Obs.Trace.Sweep { lines = n; dur_ns = cost });
    dirty_line_count t
  end

let charge_op t =
  let st = t.stats in
  st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.op_base_ns

let set_sfence_extra_ns t ns = t.sfence_extra_ns <- ns
let advance_clock t ns = Stats.add_ns t.stats ns

(* --- crash injection -------------------------------------------------- *)

let crash_with t ~choose =
  if not (precise t) then
    failwith "Region.crash: region was created in Counting mode";
  (* Each dirty line's stores past the chosen prefix are undone in the
     volatile image; clean lines already hold their durable content.
     Then the dirty set empties without a write-back. *)
  journal_crash t ~choose;
  Util.Ivec.iter
    (fun line ->
      let i = ix t line in
      t.lines.{i} <- t.lines.{i} land lnot pos_mask;
      mirror_line t line)
    t.dirty_list;
  Util.Ivec.clear t.dirty_list;
  clear_pending_wb t;
  (* Power is gone: the LLC is cold. Without this, post-crash recovery
     reads of pre-crash-hot lines were never charged [mem_miss_ns]. *)
  Bytes.fill t.llc_tags 0 (Bytes.length t.llc_tags) '\000';
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  trace_event t Obs.Trace.Crash

let crash t rng =
  crash_with t ~choose:(fun ~line:_ ~nwrites -> Util.Rng.int rng (nwrites + 1))

let crash_persist_none t = crash_with t ~choose:(fun ~line:_ ~nwrites:_ -> 0)
let crash_persist_all t = crash_with t ~choose:(fun ~line:_ ~nwrites -> nwrites)

(* Install a reboot image: the image is the region's content, durable
   and volatile alike, cache empty. Used by Image.load; not part of the
   simulated instruction set. *)
let install_image t image =
  if not (precise t) then failwith "Region.install_image: Counting mode";
  let n = Bytes.length image in
  if n > Bytes.length t.volatile || dirty_line_count t > 0 then
    invalid_arg "Region.install_image";
  Bytes.blit image 0 t.volatile 0 n;
  mirror_all t;
  Bytes.fill t.llc_tags 0 (Bytes.length t.llc_tags) '\000'

let pending_writes t =
  if not (precise t) then failwith "Region.pending_writes: Counting mode";
  let acc = ref [] in
  Util.Ivec.iter
    (fun line ->
      acc := (line, pending_count t line) :: !acc)
    t.dirty_list;
  List.sort compare !acc

type journal_footprint = {
  live_entries : int;
  entry_slots : int;
  live_bytes : int;
  payload_slots : int;
}

let journal_footprint t =
  {
    live_entries = t.log.live;
    entry_slots = Array.length t.log.entries;
    live_bytes = t.log.live_bytes;
    payload_slots = Bytes.length t.log.payload;
  }

let record_bytes t = 8 * Bigarray.Array1.dim t.lines

let read_persisted t addr ~len =
  if not (precise t) then failwith "Region.read_persisted: Counting mode";
  check_range t addr len;
  let b = Bytes.sub t.volatile addr len in
  undo_into t ~dst:b ~addr;
  b

let read_persisted_i64 t addr =
  Bytes.get_int64_le (read_persisted t addr ~len:8) 0

(* --- cross-process mirror attach/load --------------------------------- *)

let map_mirror_fd fd size =
  Unix.map_file fd Bigarray.char Bigarray.c_layout true [| size |]
  |> Bigarray.array1_of_genarray

let attach_mirror t ~path =
  if not (precise t) then failwith "Region.attach_mirror: Counting mode";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let m =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd t.size_bytes;
        map_mirror_fd fd t.size_bytes)
  in
  t.mirror <- Some m;
  mirror_all t

let load_mirror (cfg : Config.t) ~path =
  if (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size <> cfg.size_bytes
  then None
  else begin
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    let m =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> map_mirror_fd fd cfg.size_bytes)
    in
    let t = create cfg in
    (* Nothing is dirty after a reboot: the mirror is the volatile image. *)
    for w = 0 to (cfg.size_bytes / 8) - 1 do
      set64u t.volatile (8 * w) (big_get64u m (8 * w))
    done;
    t.mirror <- Some m;
    Some t
  end
