(** The durable multi-key transaction commit protocol.

    Building blocks of [Store.Sharded]'s two-phase commit (a one-shard
    store runs the same protocol): typed PREPARE / COMMIT records in the
    external log, the durable commit watermark, and the recovery-side
    resolution of in-doubt records.

    The protocol in one line: buffer writes, reserve log headroom,
    append a fenced PREPARE per participant, durably advance the
    coordinator's watermark (the store-atomic commit point), then apply
    the writes through the tree. Recovery rolls the crashed epoch back
    first, then redoes the write sets of surviving PREPAREs whose txn id
    the coordinator's watermark covers and discards the rest — so a
    transaction is either fully present or fully absent after any crash.

    Log truncation at every checkpoint bounds record lifetime to one
    epoch: a surviving PREPARE always belongs to the crashed epoch, and a
    committed epoch that completed its checkpoint needs no redo (its
    writes are durable and its records are gone). *)

type write = { key : string; value : string option  (** [None] = remove *) }

(** {1 Record sizes} *)

val prepare_bytes : coordinator:int -> writes:write list -> int
(** Log bytes the PREPARE for [writes] will consume (for {!reserve}). *)

val commit_bytes : participants:int list -> int

(** {1 The durable watermark} *)

val watermark : Nvm.Region.t -> int
(** Highest txn id whose commit decision this region has durably
    recorded as coordinator (0 = none). *)

val advance_watermark : Nvm.Region.t -> txn_id:int -> unit
(** The commit point: durably store [txn_id] in the watermark word (one
    store-atomic write, flushed and fenced). Fires the
    [Txn_commit_record] chaos site first. *)

(** {1 Commit-window log appends} *)

val reserve : Ctx.t -> bytes:int -> unit
(** Ensure [bytes] of log headroom, checkpointing now if needed — before
    the commit window opens, because a checkpoint inside it would
    truncate already-appended PREPAREs. Raises [Invalid_argument] if
    [bytes] exceeds the log capacity outright. *)

val append_prepare :
  Ctx.t -> txn_id:int -> coordinator:int -> writes:write list -> unit
(** Append and fence a participant's PREPARE record. Fires the
    [Txn_prepare] chaos site first. *)

val append_commit_marker : Ctx.t -> txn_id:int -> participants:int list -> unit
(** Append the coordinator's informational COMMIT record (diagnostics:
    [incll_fsck] uses it to distinguish decided from in-doubt txns in a
    post-mortem image; recovery decides by watermark alone). *)

val apply_committed :
  Ctx.t -> Masstree.Tree.t -> txn_id:int -> coordinator:int -> write list -> unit
(** Apply a committed write set through the tree with the normal
    persistence hooks (used both at commit and at recovery redo). If the
    tree's own logging forces a checkpoint mid-set — which persists the
    applied prefix and truncates the PREPARE — a fresh PREPARE covering
    the unapplied remainder is re-armed first, so the transaction stays
    redoable across any crash point. *)

val append_session_retry :
  Ctx.t -> sid:int -> seq:int -> status:int -> Session.op -> unit
(** Append and fence a session dedup record ({!Session}): the serving
    layer calls this after an op applied and before its reply is sent,
    so every acked mutation is redoable after a crash. If the record
    does not fit, forces a checkpoint (which truncates the log) and
    retries. *)

(** {1 Recovery-side resolution} *)

val resolve :
  Ctx.t ->
  Masstree.Tree.t ->
  probe:(coordinator:int -> txn_id:int -> bool) ->
  Extlog.Log.record list ->
  int * int * (int * int * int) list
(** Resolve the records [Extlog.Log.replay] collected from the crashed
    epoch's live log prefix, strictly in log (= serialization) order:
    redo the write sets of PREPAREs [probe] reports committed and the
    ops of session records (their effects were rolled back with the
    crashed epoch; commit-tagged session records are not re-applied —
    their write set redoes via its own PREPARE), discard the rest
    (firing [Txn_rollback] per discarded txn). Returns [(txns_redone, txns_aborted, sessions)] where
    [sessions] lists every surviving session record as
    [(sid, seq, status)] in log order — the serving layer rebuilds its
    dedup table from it. Run after the undo replay and tree reattach,
    before the end-of-recovery checkpoint. *)
