(** The simulated persistent region: a byte-addressable NVM address space
    behind a write-back CPU cache.

    The region holds one image, the {e volatile} one (what loads observe —
    cache plus memory, i.e. the most recent stores). Stores update it and
    dirty the containing 64-byte line; a line's content becomes durable
    when it is written back — by [clwb]+[sfence], by a capacity eviction,
    or by the global [wbinvd] flush. The {e persisted} view (what would
    survive a power failure) is derived: a clean line's durable content is
    its volatile line, a dirty line's is its base, the line before the
    store that dirtied it, which the Precise-mode journal keeps as the
    bytes each pending store overwrote. On a {!crash}, each dirty line
    persists an arbitrary program-order prefix of its pending stores (the
    PCSO model, §2.1), every other volatile byte is lost, and execution
    must recover from the persisted view alone.

    Addresses are byte offsets into the region; offset 0 plays the role of
    the null pointer and is never handed out by allocators. A region is
    owned by a single domain (the sharded store gives each domain its own
    region). *)

type t

type addr = int
(** Byte offset into the region. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : Config.t -> t
(** Fresh region, zero-filled, nothing dirty. Raises [Invalid_argument]
    if the size is not a positive multiple of 64, exceeds 2{^32}-1 lines,
    or [max_line_log_bytes] exceeds 2 MiB - 65 (the per-line record
    counts a line's pending bytes in 21 bits). *)

val config : t -> Config.t
val stats : t -> Stats.t
val size : t -> int

val metrics : t -> Obs.Registry.t
(** The region's metric registry. Upper layers (epoch manager, external
    log, InCLL hooks) register their own counters and histograms here,
    so one registry describes the shard. *)

val stalls : t -> Obs.Stall.t
(** The region's interval recorder, on the simulated clock (wall clock
    for named intervals). The region itself records every sfence, wbinvd
    and sweep quantum as a point (["nvm.sfence_ns"], ["nvm.wbinvd_ns"],
    ["nvm.sweep_ns"]; a clwb-sweep stall, an epoch-advance stall and a
    clwb-sweep stall outside every scope). Upper layers open named
    intervals (checkpoint, recovery and its phases) and outermost-wins
    stall scopes (epoch advance, extlog append/wrap, limbo merge, txn
    fences, recovery), so each stalled interval lands under exactly one
    cause. A {!crash} abandons whatever is open. *)

val trace : t -> Obs.Trace.t
(** The region's bounded event ring (disabled by default; capacity from
    [Config.trace_capacity]). The region records {!Obs.Trace.Clwb} and
    {!Obs.Trace.Crash} instants, and {!stalls} its closed intervals as
    slices; upper layers add their instants via {!trace_event}. *)

val trace_event : t -> Obs.Trace.payload -> unit
(** Record an event stamped with the current simulated time. *)

val tracing : t -> bool
(** Whether {!trace} records events: callers on the op path test it
    before building a payload. *)

val series : t -> string -> Obs.Series.t
(** Get or create the named bounded time-series sampler. The epoch
    manager feeds ["epoch.dirty_lines"] / ["epoch.pending_wb"] and the
    external log ["extlog.used_bytes"] here, one point per epoch
    boundary. *)

val all_series : t -> (string * Obs.Series.t) list
(** Sorted by name. *)

val line_of_addr : addr -> int
val same_line : addr -> addr -> bool
val dirty_line_count : t -> int
val is_dirty_line : t -> int -> bool

(** {1 Loads and stores (volatile image)} *)

val read_i64 : t -> addr -> int64
val write_i64 : t -> addr -> int64 -> unit
(** [addr] must be 8-byte aligned, so a word never straddles lines. *)

val read_int : t -> addr -> int
val write_int : t -> addr -> int -> unit
(** Allocation-free word accessors for [int]-valued words (pointers,
    lengths, counters): byte-for-byte and charge-for-charge equivalent to
    {!read_i64} / {!write_i64} composed with [Int64.to_int] /
    [Int64.of_int] (bit 63 truncates), but never allocate a boxed
    [Int64]. [addr] must be 8-byte aligned for {!write_int}. *)

val compare_u64 : t -> addr -> hi:int -> lo:int -> int
(** Unsigned comparison of the stored word at [addr] against the probe
    value whose unsigned 32-bit halves are [hi] and [lo]: the sign of
    [Int64.unsigned_compare (read_i64 t addr) probe]. Charges exactly
    like {!read_i64} and never allocates — the hot comparison of
    index-structure searches. *)

val read_u64 : t -> addr -> int
(** [read_u64 t addr] loads the 64-bit word at [addr] with exactly the
    charges of {!read_i64} and returns its low 32 bits, unsigned; its high
    32 bits are then {!hi32} until the next [read_u64] on [t]. Together
    they decode a word that uses bit 63 exactly, without boxing. *)

val hi32 : t -> int
(** High 32 bits (unsigned) of the word the last {!read_u64} loaded. *)

val write_u64 : t -> addr -> hi:int -> lo:int -> unit
(** Store the word whose unsigned 32-bit halves are [hi] and [lo] (higher
    bits of each are ignored): byte-for-byte and charge-for-charge
    {!write_i64}. [addr] must be 8-byte aligned. *)

val read_u8 : t -> addr -> int
val write_u8 : t -> addr -> int -> unit

val read_bytes : t -> addr -> len:int -> Bytes.t
val write_bytes : t -> addr -> Bytes.t -> unit
(** Multi-line stores are split into per-line stores in address order.
    Symmetrically, multi-byte {e reads} ({!read_bytes}, {!read_string}
    and the source side of {!blit_within}) charge one read
    plus one LLC probe per touched line. *)

val read_string : t -> addr -> len:int -> string
val write_string : t -> addr -> string -> unit
(** Like {!read_bytes} / {!write_bytes} but for [string] payloads, with
    no intermediate [Bytes.t] copy (one allocation for the result of
    {!read_string}, none for {!write_string}). Every access raises
    [Invalid_argument] at once when its range leaves the region, whatever
    the length (no overflowing bound). *)

val read_prefixed_string : t -> addr -> string
(** [read_prefixed_string t addr] is [read_string t (addr + 8) ~len]
    where [len] is [read_int t addr]: one call, with the same range checks
    (and exceptions), the same charges in the same order and the same
    result as the two calls made in turn. Reads a value buffer. *)

(** {1 Host prefetch hints}

    Wall-clock hints with no simulated effect: they charge nothing, count
    nothing, probe no LLC tag and change no image byte, so every later
    charge, counter and image is what it would have been without them.
    They let the host load lines the caller is about to read in parallel
    instead of one miss at a time. Neither raises: any part of the range
    outside the region is ignored. *)

val prefetch : t -> addr -> lines:int -> unit
(** [prefetch t addr ~lines] asks the host to load the [lines] image
    lines from the one holding [addr], and the LLC tag slot of each. *)

val prefetch_deref : t -> addr -> words:int -> lines:int -> unit
(** [prefetch_deref t at ~words ~lines] does [prefetch t a ~lines] for
    each bit [i] set in [words] (bit 0 lowest), where [a] is the 8-byte
    word at [at + 8 * i], read host-side without any charge (as
    {!read_int} would decode it). A word outside the region, or one that
    is no address in it, prefetches nothing. One call covers a node's
    value words: a call per word cost a scan over a cached store twice
    the overhead per pair. *)

val blit_within : t -> src:addr -> dst:addr -> len:int -> unit
(** Volatile-image copy, recorded as stores to the destination lines and
    reads of the source lines. *)

(** {1 Persistence instructions} *)

val clwb : t -> addr -> unit
(** Initiate an asynchronous write-back of the line containing [addr]. The
    line is guaranteed persisted only after the next {!sfence}. *)

val sfence : t -> unit
(** Drain: every line [clwb]'d since the previous fence is committed to the
    persisted view. Expensive — a full NVM round trip (plus the emulated
    extra latency of Figures 3/8). *)

val pending_wb_count : t -> int
(** Distinct lines awaiting the next {!sfence} (repeated [clwb] of one
    line counts once — white-box testing of the write-back set). *)

val release_fence : t -> unit
(** C++11 release fence: restricts compiler reordering only; free at run
    time and {e does not} persist anything (§2.1). Counted for reporting. *)

val wbinvd : t -> unit
(** Global cache flush: commits every dirty line (§4, §6.2). Cost is
    [wbinvd_base_ns + dirty_lines * wbinvd_per_line_ns]. *)

val flush_some : t -> budget_lines:int -> int
(** One bounded quantum of the incremental epoch flush (DESIGN.md §15):
    commit up to [budget_lines] dirty lines (clwb each, one draining
    fence), charging [n*clwb_ns + sfence_ns + sfence_extra_ns] and
    attributing the stall to the [clwb_sweep] cause. Returns the number
    of dirty lines remaining — 0 means the cache is clean and the epoch
    boundary may be fenced. Early write-back of an open epoch's lines is
    always crash-safe (capacity evictions already do it; recovery rolls
    the whole failed epoch back). Raises [Invalid_argument] if
    [budget_lines <= 0]. *)

val clear_pending_wb : t -> unit
(** Forget the pending write-back set without committing anything. Only
    legal when every dirty line has just been committed by other means (a
    completed incremental sweep uses it to mirror {!wbinvd}'s post-flush
    state exactly); stale entries would otherwise be re-committed as
    no-ops at the next fence. *)

val charge_op : t -> unit
(** Advance the simulated clock by the per-operation baseline cost. *)

val set_sfence_extra_ns : t -> float -> unit
(** Adjust the emulated NVM latency at run time (the Figures 3/8 sweeps
    change it between measurement windows on one populated store). *)

val advance_clock : t -> float -> unit

(** {1 Crash injection (Precise mode only)} *)

val crash : t -> Util.Rng.t -> unit
(** Power failure: for each dirty line, an independently chosen uniform
    prefix of its pending stores persists — the stores after it are
    undone in the volatile image, which leaves the line's base plus the
    prefix; all cache state is lost. *)

val crash_with : t -> choose:(line:int -> nwrites:int -> int) -> unit
(** Adversarial crash: [choose ~line ~nwrites] picks how many of the
    pending stores of [line] persist (0..nwrites). *)

val crash_persist_none : t -> unit
(** Deterministic worst case: no pending store persists. *)

val crash_persist_all : t -> unit
(** Deterministic best case: every pending store persists (equivalent to a
    flush followed by a clean restart). *)

val install_image : t -> bigstring -> unit
(** Used by {!Image.load}: make a reboot image the region's content,
    durable and volatile alike, with a cold cache. Precise mode only, on a
    region with no dirty line and no mirror; the image holds exactly the
    region's size. *)

val pending_writes : t -> (int * int) list
(** Dirty lines and their pending-store counts, sorted by line id (drives
    the systematic crash-state enumeration in the tests). *)

type journal_footprint = {
  live_entries : int;  (** pending stores *)
  entry_slots : int;  (** entry slots allocated *)
  live_bytes : int;  (** undo-image bytes of the pending stores *)
  payload_slots : int;  (** undo-image bytes allocated *)
}

val journal_footprint : t -> journal_footprint
(** Live content and allocated storage of the pending-store journal
    (white-box memory-bound testing). *)

val record_bytes : t -> int
(** Host bytes of the per-line record array (16 per line in Precise
    mode, 8 in Counting mode). It lives off the OCaml heap, so
    [Obj.reachable_words] does not count it. *)

val set_mirror : t -> bigstring -> unit
(** Used by {!Image.attach}: write the image into the mapping and keep
    it in sync from now on, at every instant the persisted view changes
    (line commit, simulated crash). Precise mode only, on a region with no
    dirty line; the mapping holds exactly the region's size. *)

val read_persisted : t -> addr -> len:int -> Bytes.t
(** A copy of [len] bytes of the persisted view at [addr], uncharged: the
    volatile bytes with every pending store undone ({!Image.save} reads
    the whole region this way). Precise mode only. *)

val read_persisted_i64 : t -> addr -> int64
(** The little-endian word at [addr] of the persisted view, uncharged
    (white-box testing). *)
