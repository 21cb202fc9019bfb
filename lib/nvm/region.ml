type addr = int

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
  persisted : Bytes.t;  (* unused (length 0) in Counting mode *)
  dirty : Bytes.t;  (* one byte per line: 0 clean, 1 dirty *)
  dirty_list : Util.Ivec.t;  (* line ids, unordered *)
  dirty_pos : int array;  (* line -> index in dirty_list, -1 if clean *)
  log : Line_log.t;  (* Precise mode: pending stores of the dirty lines *)
  pending_wb : Util.Ivec.t;  (* lines clwb'd since the last sfence *)
  wb_pending : Bytes.t;  (* one byte per line: 1 iff in pending_wb *)
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
  (* Direct-mapped LLC tag array: models capacity misses so locality has a
     price. Tag slots hold line ids (+1; 0 = empty). *)
  llc_tags : int array;
  llc_mask : int;
  (* Optional file-backed shadow of the persisted image (a shared mmap).
     Because the mapping is MAP_SHARED, bytes written here live in the
     kernel page cache and survive the process being SIGKILLed — the
     cross-process analogue of NVM outliving a power failure. Only the
     persisted image is mirrored, and only at the instants it changes, so
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

let line_of_addr addr = addr lsr line_shift
let same_line a b = line_of_addr a = line_of_addr b

let precise t = t.is_precise

let create (cfg : Config.t) =
  if cfg.size_bytes <= 0 || cfg.size_bytes land (line_size - 1) <> 0
  then invalid_arg "Region.create: size must be a positive multiple of 64";
  let nlines = cfg.size_bytes / line_size in
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
    volatile = Bytes.make cfg.size_bytes '\000';
    persisted =
      (match cfg.crash_support with
      | Config.Precise -> Bytes.make cfg.size_bytes '\000'
      | Config.Counting -> Bytes.create 0);
    dirty = Bytes.make nlines '\000';
    dirty_list = Util.Ivec.create ~capacity:1024 ();
    dirty_pos = Array.make nlines (-1);
    log =
      Line_log.create
        ~nlines:(if cfg.crash_support = Config.Precise then nlines else 0);
    pending_wb = Util.Ivec.create ~capacity:64 ();
    wb_pending = Bytes.make nlines '\000';
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
    (* 2^18 slots x 64 B = a 16 MiB simulated LLC. *)
    llc_tags = Array.make 262144 0;
    llc_mask = 262143;
    hi32 = 0;
    mirror = None;
  }

(* --- persisted-image mirror ------------------------------------------- *)

let mirror_line t line =
  match t.mirror with
  | None -> ()
  | Some m ->
      let pos = line * line_size in
      for i = 0 to line_size - 1 do
        Bigarray.Array1.unsafe_set m (pos + i)
          (Bytes.unsafe_get t.persisted (pos + i))
      done

let mirror_all t =
  match t.mirror with
  | None -> ()
  | Some m ->
      for i = 0 to Bytes.length t.persisted - 1 do
        Bigarray.Array1.unsafe_set m i (Bytes.unsafe_get t.persisted i)
      done

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
let is_dirty_line t line = Bytes.unsafe_get t.dirty line <> '\000'

(* --- dirty tracking ------------------------------------------------- *)

let commit_line t line =
  if Bytes.unsafe_get t.dirty line = '\001' then begin
    if precise t then begin
      let pos = line * line_size in
      Bytes.blit t.volatile pos t.persisted pos line_size;
      mirror_line t line;
      Line_log.commit t.log line
    end;
    Bytes.unsafe_set t.dirty line '\000';
    let idx = t.dirty_pos.(line) in
    let moved = Util.Ivec.swap_remove t.dirty_list idx in
    if moved >= 0 then t.dirty_pos.(moved) <- idx;
    t.dirty_pos.(line) <- -1;
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

let[@inline] mark_dirty t line =
  if Bytes.unsafe_get t.dirty line = '\000' then begin
    Bytes.unsafe_set t.dirty line '\001';
    t.dirty_pos.(line) <- Util.Ivec.length t.dirty_list;
    Util.Ivec.push t.dirty_list line;
    if Util.Ivec.length t.dirty_list > t.max_dirty then evict_some t
  end

(* Record one intra-line store in Precise mode, evicting the line first if
   its pending stores outgrew the configured bound (a legal cache
   behaviour that keeps simulator memory bounded). *)
let record_store t line ~off ~src ~src_pos ~len =
  if Line_log.payload_bytes t.log line > t.max_line_log_bytes then begin
    commit_line t line;
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1
  end;
  Line_log.append t.log ~line ~off ~src ~src_pos ~len

let check_range t addr len =
  if addr < 0 || len < 0 || addr + len > t.size_bytes then
    invalid_arg
      (Printf.sprintf "Region: address range [%d, %d) out of bounds" addr
         (addr + len))

let[@inline] touch_llc t line =
  let slot = line land t.llc_mask in
  let tag = line + 1 in
  if Array.unsafe_get t.llc_tags slot <> tag then begin
    Array.unsafe_set t.llc_tags slot tag;
    let st = t.stats in
    st.Stats.clock.Stats.ns <- st.Stats.clock.Stats.ns +. t.mem_miss_ns
  end

(* Accounting for a store whose [len] bytes are already in the volatile
   image at [addr] (and stay within one line): LLC probe, Precise-mode
   logging, dirty tracking, and the stats/clock charges — in the same
   order as the historical blit-from-scratch path, so the charged
   [sim_ns] is bit-identical. Logging reads the store's bytes back out of
   the volatile image itself, which lets every caller skip the scratch
   staging buffer (fast paths write their payload directly). *)
let[@inline] store_committed t addr len =
  let line = addr lsr line_shift in
  touch_llc t line;
  if t.is_precise then
    record_store t line
      ~off:(addr land (line_size - 1))
      ~src:t.volatile ~src_pos:addr ~len;
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
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
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
    Bytes.unsafe_set t.wb_pending (Util.Ivec.get t.pending_wb i) '\000'
  done;
  Util.Ivec.clear t.pending_wb

let clwb t addr =
  check_range t addr 1;
  let line = line_of_addr addr in
  (* Re-flushing an already-pending line is a no-op at the next fence;
     pushing it again would grow the vector and re-commit redundantly. *)
  if Bytes.unsafe_get t.wb_pending line = '\000' then begin
    Bytes.unsafe_set t.wb_pending line '\001';
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
  Line_log.crash t.log ~lines:t.dirty_list ~choose ~dst:t.persisted;
  (* Empty the dirty set without committing volatile content. *)
  Util.Ivec.iter
    (fun line ->
      Bytes.unsafe_set t.dirty line '\000';
      t.dirty_pos.(line) <- -1)
    t.dirty_list;
  Util.Ivec.clear t.dirty_list;
  clear_pending_wb t;
  (* Power is gone: the LLC is cold. Without this, post-crash recovery
     reads of pre-crash-hot lines were never charged [mem_miss_ns]. *)
  Array.fill t.llc_tags 0 (Array.length t.llc_tags) 0;
  mirror_all t;
  Bytes.blit t.persisted 0 t.volatile 0 (Bytes.length t.persisted);
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  trace_event t Obs.Trace.Crash

let crash t rng =
  crash_with t ~choose:(fun ~line:_ ~nwrites -> Util.Rng.int rng (nwrites + 1))

let crash_persist_none t = crash_with t ~choose:(fun ~line:_ ~nwrites:_ -> 0)
let crash_persist_all t = crash_with t ~choose:(fun ~line:_ ~nwrites -> nwrites)

(* Install a reboot image: both views equal [image], cache empty. Used by
   Image.load; not part of the simulated instruction set. *)
let install_image t image =
  if not (precise t) then failwith "Region.install_image: Counting mode";
  let n = Bytes.length image in
  if n > Bytes.length t.volatile then invalid_arg "Region.install_image";
  Bytes.blit image 0 t.volatile 0 n;
  Bytes.blit image 0 t.persisted 0 n;
  mirror_all t;
  Array.fill t.llc_tags 0 (Array.length t.llc_tags) 0

let pending_writes t =
  if not (precise t) then failwith "Region.pending_writes: Counting mode";
  let acc = ref [] in
  Util.Ivec.iter
    (fun line ->
      acc := (line, Line_log.count t.log line) :: !acc)
    t.dirty_list;
  List.sort compare !acc

let journal_footprint t = Line_log.footprint t.log

let read_persisted_i64 t addr =
  if not (precise t) then
    failwith "Region.read_persisted_i64: Counting mode";
  Bytes.get_int64_le t.persisted addr

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
    let img = Bytes.create cfg.size_bytes in
    for i = 0 to cfg.size_bytes - 1 do
      Bytes.unsafe_set img i (Bigarray.Array1.unsafe_get m i)
    done;
    install_image t img;
    t.mirror <- Some m;
    Some t
  end
