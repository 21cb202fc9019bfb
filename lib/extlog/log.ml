exception Log_full

let entry_magic = 0xE10C_11E0_1234_5678L
let header_bytes = 48

(* Entry kinds. [Node] entries are the §4.2 undo images replay copies
   back; the txn kinds are WAL-style commit-protocol records that replay
   must *not* copy anywhere (their addr field carries a txn id, not a
   home address). *)
let kind_node = 0
let kind_txn_prepare = 1
let kind_txn_commit = 2

(* Session dedup records (DESIGN.md Â§17): the addr field carries the
   session id, the payload a serialized (seqno, status, op) tuple. *)
let kind_session = 3

(* The first line of the log slice is a header holding the durable
   truncation epoch: the epoch current when the log was last logically
   discarded. Replay ignores entries tagged with older epochs — they are
   stale survivors of earlier epochs that later, shorter logs did not
   overwrite. *)
let log_header_bytes = 64

type t = {
  region : Nvm.Region.t;
  off : int;  (* first byte of the log slice *)
  len : int;
  mutable tail : int;  (* transient append cursor, relative to [off] *)
  c_appends : int ref;  (* "extlog.appends" registry counter *)
  c_nodes : int ref;  (* "extlog.nodes_logged" registry counter *)
  c_replayed : int ref;  (* "extlog.replayed" registry counter *)
  h_append_bytes : Obs.Histogram.t;  (* payload size per append *)
  s_used : Obs.Series.t;  (* log bytes at each truncation (epoch boundary) *)
}

let attach region =
  let cfg = Nvm.Region.config region in
  let m = Nvm.Region.metrics region in
  {
    region;
    off = Nvm.Layout.extlog_off + log_header_bytes;
    len = cfg.Nvm.Config.extlog_bytes - log_header_bytes;
    tail = 0;
    c_appends = Obs.Registry.counter m "extlog.appends";
    c_nodes = Obs.Registry.counter m "extlog.nodes_logged";
    c_replayed = Obs.Registry.counter m "extlog.replayed";
    h_append_bytes = Obs.Registry.histogram m "extlog.append_bytes";
    s_used = Nvm.Region.series region "extlog.used_bytes";
  }

let capacity t = t.len
let used t = t.tail
let nodes_logged t = !(t.c_nodes)

let truncation_epoch t =
  Int64.to_int (Nvm.Region.read_i64 t.region Nvm.Layout.extlog_off)

(* Durable: the truncation epoch must be persisted before this epoch's
   entries are appended (one extra fence per checkpoint). *)
let truncate t ~epoch =
  (* Log growth over the ending epoch — sampled before the reset, one
     point per checkpoint (the §6.3 worst-case-recovery quantity). *)
  let now = Nvm.Stats.sim_ns (Nvm.Region.stats t.region) in
  Obs.Series.sample t.s_used ~ts_ns:now ~value:(float_of_int t.tail);
  let stalls = Nvm.Region.stalls t.region in
  Obs.Stall.enter stalls Obs.Stall.Extlog;
  t.tail <- 0;
  Nvm.Region.write_i64 t.region Nvm.Layout.extlog_off (Int64.of_int epoch);
  Nvm.Region.clwb t.region Nvm.Layout.extlog_off;
  Nvm.Region.sfence t.region;
  Obs.Stall.exit stalls

(* Checksum: xor of the payload words folded with the header fields, so a
   torn entry (header persisted, payload not, or vice versa) is detected. *)
let checksum region ~payload_off ~size ~kind ~epoch ~addr =
  let acc = ref (Int64.of_int (epoch lxor (kind * 0x51ed))) in
  acc := Int64.logxor !acc (Int64.mul (Int64.of_int addr) 0x9E3779B97F4A7C15L);
  acc := Int64.logxor !acc (Int64.of_int size);
  for i = 0 to (size / 8) - 1 do
    (* Each word read as halves and reassembled in place: the sum stays
       unboxed, one charged load per word as with [read_i64]. *)
    let lo = Nvm.Region.read_u64 region (payload_off + (8 * i)) in
    let w =
      Int64.logor
        (Int64.shift_left (Int64.of_int (Nvm.Region.hi32 region)) 32)
        (Int64.of_int lo)
    in
    (* Mix the position in so swapped words change the sum. *)
    acc :=
      Int64.logxor !acc
        (Int64.mul (Int64.add w (Int64.of_int (i + 1))) 0xC4CEB9FE1A85EC53L)
  done;
  !acc

(* Shared tail-append: the payload writer has already placed [size] bytes
   at [entry + header_bytes]; seal the entry (header + checksum), write
   back every line, fence once. *)
let seal_entry t ~entry ~kind ~epoch ~addr ~size =
  let payload_off = entry + header_bytes in
  Nvm.Region.write_int t.region (entry + 8) kind;
  Nvm.Region.write_int t.region (entry + 16) epoch;
  Nvm.Region.write_int t.region (entry + 24) addr;
  Nvm.Region.write_int t.region (entry + 32) size;
  Nvm.Region.write_i64 t.region (entry + 40)
    (checksum t.region ~payload_off ~size ~kind ~epoch ~addr);
  Nvm.Region.write_i64 t.region entry entry_magic;
  (* Write back every line of the entry, then one fence. *)
  let total = header_bytes + size in
  let first_line = entry land lnot (Nvm.Config.line_size - 1) in
  let last = entry + total - 1 in
  let line = ref first_line in
  while !line <= last do
    Nvm.Region.clwb t.region !line;
    line := !line + Nvm.Config.line_size
  done;
  Nvm.Region.sfence t.region;
  t.tail <- t.tail + total;
  incr t.c_appends;
  Obs.Histogram.record t.h_append_bytes (float_of_int size);
  if Nvm.Region.tracing t.region then
    Nvm.Region.trace_event t.region (Obs.Trace.Extlog_append { bytes = size })

let append t ~epoch ~addr ~size =
  if size <= 0 || size land 7 <> 0 then
    invalid_arg "Extlog.append: size must be a positive multiple of 8";
  Chaos.Plan.fire Chaos.Site.Extlog_append;
  let total = header_bytes + size in
  if t.tail + total > t.len then raise Log_full;
  let stalls = Nvm.Region.stalls t.region in
  Obs.Stall.enter stalls Obs.Stall.Extlog;
  let entry = t.off + t.tail in
  (* Payload first, then the header that makes the entry meaningful; the
     checksum validates the pair, so one fence suffices. *)
  Nvm.Region.blit_within t.region ~src:addr ~dst:(entry + header_bytes)
    ~len:size;
  seal_entry t ~entry ~kind:kind_node ~epoch ~addr ~size;
  incr t.c_nodes;
  Obs.Stall.exit stalls

(* Size an [append_record] call will consume, so a commit sequence can
   reserve headroom up front and never hit [Log_full] mid-protocol. *)
let record_bytes ~payload_bytes =
  if payload_bytes < 0 then invalid_arg "Extlog.record_bytes";
  let size = (payload_bytes + 7) land lnot 7 in
  let size = if size = 0 then 8 else size in
  header_bytes + size

(* Txn-protocol record: the payload is volatile bytes (a serialized write
   set), the addr field carries the txn id. Padded to 8 bytes with NULs
   (the deserializer carries explicit lengths). *)
let append_record t ~kind ~epoch ~txn_id ~payload =
  if kind <> kind_txn_prepare && kind <> kind_txn_commit && kind <> kind_session
  then invalid_arg "Extlog.append_record: not a record kind";
  if txn_id < 0 then invalid_arg "Extlog.append_record: negative txn id";
  let size = (String.length payload + 7) land lnot 7 in
  let size = if size = 0 then 8 else size in
  let total = header_bytes + size in
  if t.tail + total > t.len then raise Log_full;
  let stalls = Nvm.Region.stalls t.region in
  Obs.Stall.enter stalls Obs.Stall.Extlog;
  let entry = t.off + t.tail in
  let padded =
    if size = String.length payload then payload
    else payload ^ String.make (size - String.length payload) '\000'
  in
  Nvm.Region.write_string t.region (entry + header_bytes) padded;
  seal_entry t ~entry ~kind ~epoch ~addr:txn_id ~size;
  Obs.Stall.exit stalls

(* Walk the intact-entry prefix, calling [f] on each entry. *)
let fold_entries t f =
  let region_size = Nvm.Region.size t.region in
  let rec loop pos =
    if pos + header_bytes > t.len then ()
    else begin
      let entry = t.off + pos in
      if Nvm.Region.read_i64 t.region entry <> entry_magic then ()
      else begin
        let kind = Int64.to_int (Nvm.Region.read_i64 t.region (entry + 8)) in
        let epoch = Int64.to_int (Nvm.Region.read_i64 t.region (entry + 16)) in
        let addr = Int64.to_int (Nvm.Region.read_i64 t.region (entry + 24)) in
        let size = Int64.to_int (Nvm.Region.read_i64 t.region (entry + 32)) in
        let sum = Nvm.Region.read_i64 t.region (entry + 40) in
        let shape_ok =
          size > 0
          && size land 7 = 0
          && pos + header_bytes + size <= t.len
          && addr >= 0
          && (match kind with
             | k when k = kind_node -> addr + size <= region_size
             | k
               when k = kind_txn_prepare || k = kind_txn_commit
                    || k = kind_session ->
                 true
             | _ -> false)
        in
        if not shape_ok then ()
        else if
          checksum t.region ~payload_off:(entry + header_bytes) ~size ~kind
            ~epoch ~addr
          <> sum
        then ()
        else begin
          f ~kind ~epoch ~addr ~size ~payload_off:(entry + header_bytes);
          loop (pos + header_bytes + size)
        end
      end
    end
  in
  loop 0

let scan_entries t f =
  fold_entries t (fun ~kind ~epoch ~addr ~size ~payload_off:_ ->
      f ~kind ~epoch ~addr ~size)

type record = { kind : int; epoch : int; txn_id : int; payload : string }

(* The live prefix after a crash: intact entries at or above the durable
   truncation floor that belong to a failed (rolled-back) epoch, up to the
   first stale or non-failed entry. One walk over it copies the node
   images home, collects the typed records for recovery to resolve, and
   parks the append cursor just past it: a crash during recovery replays
   the prefix again, so recovery-time appends (transaction redo) must not
   overwrite it before the end-of-recovery checkpoint truncates it. *)
let replay t ~is_failed =
  let floor = truncation_epoch t in
  let live = ref true in
  let applied = ref 0 and records = ref [] and live_end = ref 0 in
  fold_entries t (fun ~kind ~epoch ~addr ~size ~payload_off ->
      if !live && epoch >= floor && is_failed epoch then begin
        if kind = kind_node then begin
          Nvm.Region.blit_within t.region ~src:payload_off ~dst:addr ~len:size;
          incr applied
        end
        else
          records :=
            {
              kind;
              epoch;
              txn_id = addr;
              payload = Nvm.Region.read_string t.region payload_off ~len:size;
            }
            :: !records;
        live_end := !live_end + header_bytes + size
      end
      else live := false);
  t.tail <- !live_end;
  t.c_replayed := !(t.c_replayed) + !applied;
  Nvm.Region.trace_event t.region
    (Obs.Trace.Extlog_replay { entries = !applied });
  (!applied, List.rev !records)

let fold_all_records t f =
  fold_entries t (fun ~kind ~epoch ~addr ~size ~payload_off ->
      if kind <> kind_node then
        f ~kind ~epoch ~txn_id:addr
          ~payload:(Nvm.Region.read_string t.region payload_off ~len:size))
