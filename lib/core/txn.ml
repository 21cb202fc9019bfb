(* The durable-transaction commit protocol: typed records in the external
   log plus a durable commit watermark in the superblock.

   A transaction buffers its writes (no tree mutation until commit), so
   abort is free and an epoch rollback of a partially-committed txn
   automatically undoes the applied writes. Commit is:

   1. reserve log headroom for every record (checkpointing up front if
      needed — never mid-protocol, so no epoch boundary can split the
      commit window on any participant);
   2. append a PREPARE record per participant carrying its write set and
      the coordinator's identity, each individually fenced;
   3. durably advance the coordinator's txn watermark — the single
      store-atomic commit point;
   4. apply the writes through the tree (InCLL/extlog machinery logs the
      old images, so the crashed-epoch rollback also rolls them back).

   Recovery replays the undo log first (all applied writes of the crashed
   epoch vanish), then resolves surviving PREPARE records: a PREPARE
   whose txn id is at or below its coordinator's watermark was committed
   and is redone; otherwise the transaction never committed and the
   record is discarded. PREPARE records cannot outlive their epoch (the
   log is truncated at every checkpoint), so every surviving record
   belongs to the crashed epoch and redo is never stale: either the
   commit's epoch completed a checkpoint (writes durable, record gone) or
   it did not (writes rolled back, record present). *)

type write = { key : string; value : string option }

(* {1 Record payload codec}

   Fixed-width little-endian words with explicit lengths; the extlog pads
   payloads with NULs, which the explicit lengths make harmless. *)

let add_word buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let encode_prepare ~coordinator ~writes =
  let buf = Buffer.create 64 in
  add_word buf coordinator;
  add_word buf (List.length writes);
  List.iter
    (fun { key; value } ->
      add_word buf (String.length key);
      Buffer.add_string buf key;
      match value with
      | None -> add_word buf 0
      | Some v ->
          add_word buf 1;
          add_word buf (String.length v);
          Buffer.add_string buf v)
    writes;
  Buffer.contents buf

let encode_commit ~participants =
  let buf = Buffer.create 32 in
  add_word buf (List.length participants);
  List.iter (add_word buf) participants;
  Buffer.contents buf

(* Defensive decoding: records are checksummed, so a malformed payload
   indicates a writer bug rather than a torn write — but recovery must
   never crash on one, so decoders return [None] instead of raising. *)

let word s pos =
  if pos + 8 > String.length s then None
  else Some (Int64.to_int (String.get_int64_le s pos))

let take s pos len =
  if len < 0 || pos + len > String.length s then None
  else Some (String.sub s pos len)

let decode_prepare payload =
  let ( let* ) = Option.bind in
  let* coordinator = word payload 0 in
  let* n = word payload 8 in
  if n < 0 then None
  else begin
    let rec loop pos k acc =
      if k = 0 then Some (List.rev acc)
      else
        let* klen = word payload pos in
        let* key = take payload (pos + 8) klen in
        let* tag = word payload (pos + 8 + klen) in
        let pos = pos + 16 + klen in
        match tag with
        | 0 -> loop pos (k - 1) ({ key; value = None } :: acc)
        | 1 ->
            let* vlen = word payload pos in
            let* v = take payload (pos + 8) vlen in
            loop (pos + 8 + vlen) (k - 1) ({ key; value = Some v } :: acc)
        | _ -> None
    in
    let* writes = loop 16 n [] in
    Some (coordinator, writes)
  end

let prepare_bytes ~coordinator ~writes =
  Extlog.Log.record_bytes
    ~payload_bytes:(String.length (encode_prepare ~coordinator ~writes))

let commit_bytes ~participants =
  Extlog.Log.record_bytes
    ~payload_bytes:(String.length (encode_commit ~participants))

(* {1 The durable watermark} *)

let watermark region =
  Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_txn_watermark)

(* The commit point: one store-atomic word, flushed and fenced. The
   watermark is outside every node, so neither the undo replay nor the
   InCLL rollback ever moves it backwards. *)
let advance_watermark region ~txn_id =
  Chaos.Plan.fire Chaos.Site.Txn_commit_record;
  let stalls = Nvm.Region.stalls region in
  Obs.Stall.enter stalls Obs.Stall.Txn_fence;
  Nvm.Region.write_i64 region Nvm.Layout.off_txn_watermark
    (Int64.of_int txn_id);
  Nvm.Region.clwb region Nvm.Layout.off_txn_watermark;
  Nvm.Region.sfence region;
  Obs.Stall.exit stalls

(* {1 Commit-window log appends} *)

(* Make room for [bytes] of upcoming records before the window opens; a
   checkpoint here is safe (nothing of the txn is in the log yet) whereas
   one inside the window would truncate earlier PREPAREs. *)
(* A checkpoint forced by log pressure is an extlog-wrap stall, not an
   ordinary periodic epoch advance; scope it so attribution says why. *)
let wrap_advance ctx =
  let stalls = Nvm.Region.stalls ctx.Ctx.region in
  Obs.Stall.enter stalls Obs.Stall.Extlog;
  Epoch.Manager.advance ctx.Ctx.em;
  Obs.Stall.exit stalls

(* Txn-fence scope around a protocol step: swallows the nested extlog
   append / watermark fence so the whole step is one attributed stall. *)
let txn_scope ctx f =
  let region = ctx.Ctx.region in
  let stalls = Nvm.Region.stalls region in
  Obs.Stall.enter stalls Obs.Stall.Txn_fence;
  Fun.protect ~finally:(fun () -> Obs.Stall.exit stalls) f

let reserve ctx ~bytes =
  if bytes > Extlog.Log.capacity ctx.Ctx.log then
    invalid_arg "Txn.reserve: write set exceeds log capacity";
  if Extlog.Log.used ctx.Ctx.log + bytes > Extlog.Log.capacity ctx.Ctx.log
  then wrap_advance ctx

let append_prepare ctx ~txn_id ~coordinator ~writes =
  Chaos.Plan.fire Chaos.Site.Txn_prepare;
  txn_scope ctx (fun () ->
      Extlog.Log.append_record ctx.Ctx.log ~kind:Extlog.Log.kind_txn_prepare
        ~epoch:(Epoch.Manager.current ctx.Ctx.em)
        ~txn_id
        ~payload:(encode_prepare ~coordinator ~writes))

let append_commit_marker ctx ~txn_id ~participants =
  txn_scope ctx (fun () ->
      Extlog.Log.append_record ctx.Ctx.log ~kind:Extlog.Log.kind_txn_commit
        ~epoch:(Epoch.Manager.current ctx.Ctx.em)
        ~txn_id
        ~payload:(encode_commit ~participants))

let rec append_prepare_retry ctx ~txn_id ~coordinator ~writes =
  try append_prepare ctx ~txn_id ~coordinator ~writes
  with Extlog.Log.Log_full ->
    wrap_advance ctx;
    append_prepare_retry ctx ~txn_id ~coordinator ~writes

(* Session dedup record (see [Session]): appended by the serving layer
   after the op applied and before its reply is sent, so an acked op is
   always redoable. Shares the txn-fence stall scope and the
   [Log_full] -> forced-checkpoint retry of the PREPARE path. *)
let append_session ctx ~sid ~seq ~status op =
  txn_scope ctx (fun () ->
      Extlog.Log.append_record ctx.Ctx.log ~kind:Extlog.Log.kind_session
        ~epoch:(Epoch.Manager.current ctx.Ctx.em)
        ~txn_id:sid
        ~payload:(Session.encode ~seq ~status op))

let rec append_session_retry ctx ~sid ~seq ~status op =
  try append_session ctx ~sid ~seq ~status op
  with Extlog.Log.Log_full ->
    wrap_advance ctx;
    append_session_retry ctx ~sid ~seq ~status op

let apply_one tree { key; value } =
  match value with
  | Some v -> Masstree.Tree.put tree ~key ~value:v
  | None -> ignore (Masstree.Tree.remove tree ~key : bool)

(* Worst-case log bytes a single write's node logging should need: one
   image per node on the root path of a structural change. Taking a
   controlled checkpoint when headroom drops below this keeps [Log_full]
   from firing {e inside} a write, where the forced advance would fall
   between a transaction's PREPARE re-arm points. *)
let write_headroom = 8192

let ensure_headroom ctx =
  let log = ctx.Ctx.log in
  if
    Extlog.Log.capacity log - Extlog.Log.used log < write_headroom
    && Extlog.Log.used log > 0
  then wrap_advance ctx

(* Apply a committed write set through the tree (normal hooks, so the
   old images are InCLL- or extlog-protected exactly like untransacted
   ops), preserving redo-ability across epoch boundaries. The tree's own
   logging can force a checkpoint mid-set ([Log_full] → advance), which
   persists the writes applied so far and truncates the PREPARE — a
   crash then would keep a prefix of the transaction with no record to
   finish it from. So on every epoch change, first re-arm a PREPARE for
   whatever part of the set is not yet applied (redo of an applied
   prefix is idempotent: puts and removes re-apply to the same state). *)
let apply_committed ctx tree ~txn_id ~coordinator writes =
  let rec go epoch remaining =
    match remaining with
    | [] -> ()
    | w :: tl ->
        ensure_headroom ctx;
        let now = Epoch.Manager.current ctx.Ctx.em in
        let epoch =
          if now <> epoch then begin
            append_prepare_retry ctx ~txn_id ~coordinator ~writes:remaining;
            Epoch.Manager.current ctx.Ctx.em
          end
          else epoch
        in
        apply_one tree w;
        go epoch tl
  in
  go (Epoch.Manager.current ctx.Ctx.em) writes

(* {1 Recovery-side resolution} *)

(* Resolve the PREPARE records that survived in the crashed epoch's live
   log prefix: redo committed transactions (coordinator watermark covers
   the id), discard the rest. Records are visited in log order, which is
   commit order, so redone write sets land in the original serialization
   order.

   The records were materialized by the replay pass before any redo
   runs: redo writes append node images to the log (past the live prefix
   — the replay parked the cursor there), and a [Log_full]-forced
   truncation mid-redo drops the originals. So a mid-redo epoch change
   re-arms PREPAREs for every transaction not fully redone yet, current
   one included, before continuing. Returns [(redone, aborted)]
   transaction counts. *)
(* A pending redo item: a committed PREPARE's (remaining) write set, or
   a session dedup record. Redone strictly in log order, so a session
   put and a txn write to the same key land in their original
   serialization order. *)
type redo_item =
  | Rtxn of int * int * write list  (* txn_id, coordinator, remaining *)
  | Rsess of int * int * int * Session.op  (* sid, seq, status *)

let resolve ctx tree ~probe records =
  let items = ref [] and aborted = ref 0 in
  let sessions = ref [] in
  List.iter
    (fun { Extlog.Log.kind; txn_id; payload; epoch = _ } ->
      if kind = Extlog.Log.kind_txn_prepare then begin
        match decode_prepare payload with
        | None -> incr aborted (* writer bug; treat as never-committed *)
        | Some (coordinator, writes) ->
            if probe ~coordinator ~txn_id then
              items := Rtxn (txn_id, coordinator, writes) :: !items
            else begin
              Chaos.Plan.fire Chaos.Site.Txn_rollback;
              incr aborted
            end
      end
      else if kind = Extlog.Log.kind_session then begin
        match Session.decode payload with
        | None -> () (* writer bug; drop *)
        | Some (seq, status, op) ->
            sessions := (txn_id, seq, status) :: !sessions;
            items := Rsess (txn_id, seq, status, op) :: !items
      end)
    records;
  let pending = ref (List.rev !items) in
  let redone = ref 0 in
  (* Mid-redo epoch change: re-arm a record for everything not fully
     redone yet (the checkpoint just truncated the originals), both
     kinds, current item included. *)
  let rearm_pending () =
    List.iter
      (fun item ->
        match item with
        | Rtxn (id, coord, ws) ->
            if ws <> [] then
              append_prepare_retry ctx ~txn_id:id ~coordinator:coord ~writes:ws
        | Rsess (sid, seq, status, op) ->
            append_session_retry ctx ~sid ~seq ~status op)
      !pending
  in
  let step epoch apply tail =
    ensure_headroom ctx;
    let now = Epoch.Manager.current ctx.Ctx.em in
    let epoch =
      if now <> epoch then begin
        rearm_pending ();
        Epoch.Manager.current ctx.Ctx.em
      end
      else epoch
    in
    apply ();
    pending := tail;
    epoch
  in
  let rec redo_all epoch =
    match !pending with
    | [] -> ()
    | Rtxn (txn_id, coordinator, writes) :: rest -> (
        match writes with
        | [] ->
            pending := rest;
            incr redone;
            redo_all epoch
        | w :: tl ->
            let epoch =
              step epoch
                (fun () -> apply_one tree w)
                (Rtxn (txn_id, coordinator, tl) :: rest)
            in
            redo_all epoch)
    | Rsess (_sid, _seq, _status, op) :: rest -> (
        match op with
        | Session.Commit _ ->
            (* The write set redoes via its own PREPARE; the record only
               feeds the dedup table (already collected above). *)
            pending := rest;
            redo_all epoch
        | Session.Put { key; value } ->
            let epoch =
              step epoch
                (fun () -> apply_one tree { key; value = Some value })
                rest
            in
            redo_all epoch
        | Session.Remove { key } ->
            let epoch =
              step epoch (fun () -> apply_one tree { key; value = None }) rest
            in
            redo_all epoch)
  in
  redo_all (Epoch.Manager.current ctx.Ctx.em);
  (!redone, !aborted, List.rev !sessions)
