(** The external undo log (§4.2), extended with typed transaction records.

    An object-granularity undo log in its own slice of the persistent
    region. When a node must be logged, its {e entire current image} is
    appended and persisted (one [clwb] chain plus one [sfence]) {e before}
    the node is modified. A node is logged at most once per epoch (the
    caller tracks that via the node's logged-epoch field), so entries are
    mutually independent and can be replayed in any order (§4.3).

    Every entry carries a {e kind}: node entries are the paper's undo
    images; [kind_txn_prepare] / [kind_txn_commit] entries are WAL-style
    commit-protocol records (serialized write sets keyed by a transaction
    id in the header's addr field) that {!replay} hands back uncopied and
    {!Incll.Txn} interprets during recovery.

    The log is logically discarded at every checkpoint: the append cursor is
    transient and truncation resets it to the start, which means the entries
    of the epoch being rolled back always form a contiguous prefix of the
    log area. Each entry carries its epoch and a checksum, so replay applies
    exactly the prefix of intact entries belonging to the crashed epoch and
    stops at the first stale or torn entry. *)

type t

exception Log_full
(** Raised by {!append} / {!append_record} when the entry does not fit;
    the caller reacts by forcing a checkpoint (which truncates the log)
    and retrying. *)

val kind_txn_prepare : int
val kind_txn_commit : int

val kind_session : int
(** Session dedup record (exactly-once serving, DESIGN.md §17): the addr
    field carries the session id, the payload a serialized
    (seqno, status, op) tuple ({!Incll.Session}). Returned uncopied by
    {!replay}, interpreted alongside txn records during recovery. *)

val attach : Nvm.Region.t -> t
(** Attach to the region's log slice with the cursor at the start. Use after
    [create] or at the start of recovery ({!replay} parks the cursor). *)

val append : t -> epoch:int -> addr:int -> size:int -> unit
(** Log the current image of the object at [addr .. addr+size): copy it into
    the log, write the entry header, flush and fence. [size] must be a
    positive multiple of 8. After [append] returns, the entry is durable. *)

val append_record : t -> kind:int -> epoch:int -> txn_id:int -> payload:string -> unit
(** Append a typed record ([kind_txn_prepare], [kind_txn_commit] or
    [kind_session]): [payload] is NUL-padded to 8 bytes, checksummed and
    fenced exactly like a node entry. After it returns, the record is
    durable. For session records [txn_id] carries the session id. *)

val record_bytes : payload_bytes:int -> int
(** Log bytes an {!append_record} with a payload of [payload_bytes] will
    consume (header + padding included), so a commit sequence can reserve
    headroom — force a checkpoint up front — instead of hitting
    {!Log_full} mid-protocol. *)

val truncate : t -> epoch:int -> unit
(** Logically discard the log (run from a checkpoint subscriber): reset the
    cursor and durably record [epoch] as the truncation floor, so stale
    entries of older epochs that the new epoch does not overwrite can never
    be replayed. *)

val truncation_epoch : t -> int

type record = {
  kind : int;
  epoch : int;
  txn_id : int;  (** the session id for [kind_session] *)
  payload : string;  (** NUL-padded to a multiple of 8 bytes *)
}
(** A typed (non-node) entry read back from the log. *)

val replay : t -> is_failed:(int -> bool) -> int * record list
(** Recovery's one pass over the live prefix: the intact entries at or
    above the truncation floor that belong to a failed epoch, up to the
    first entry that is not. Copies every node image back to its home
    address, collects the typed records in log order, and parks the
    append cursor just past the prefix, so recovery-time appends
    (transaction redo) cannot overwrite what a crash during recovery
    would replay again. Returns the number of node images applied and
    the records, which recovery then resolves (redo or discard).
    Idempotent, and writes are not flushed — if recovery crashes, it
    simply runs again (§4.3). *)

val fold_all_records :
  t -> (kind:int -> epoch:int -> txn_id:int -> payload:string -> unit) -> unit
(** Iterate every intact txn record regardless of epoch (diagnostics:
    [incll_fsck] dangling-PREPARE reporting). *)

val scan_entries :
  t -> (kind:int -> epoch:int -> addr:int -> size:int -> unit) -> unit
(** Iterate the intact entry prefix (diagnostics and tests). *)

(** {1 Statistics (Figure 7 measures logged-node counts)} *)

val nodes_logged : t -> int
(** Successful node-image appends (txn records excluded): the region's
    ["extlog.nodes_logged"] counter, which lives as long as the region, so
    it spans recoveries. Every append, records included, also counts in
    ["extlog.appends"] and records its payload bytes in the
    ["extlog.append_bytes"] histogram. *)

val capacity : t -> int
val used : t -> int
