(** A complete durable key-value system instance: region + epoch manager +
    allocator + external log + hooks + Masstree, assembled per variant.

    The four variants of the paper's evaluation (§6):

    - [Mt] — unmodified transient Masstree: general-purpose allocator, no
      epochs, no persistence actions. Not recoverable.
    - [Mt_plus] — the improved baseline: pool allocator and the per-epoch
      global barrier + cache flush adopted from INCLL. Not recoverable
      (nothing is logged).
    - [Logging] — durable via the external undo log alone (the LOGGING
      series of Figures 7/8).
    - [Incll] — the paper's system: fine-grained checkpointing + InCLL +
      external-log fallback (§3-§5), durable allocator included.

    Ops charge the simulated clock and, for epoch-running variants, drive
    the 64 ms checkpoint cadence. *)

type variant = Mt | Mt_plus | Logging | Incll

val variant_name : variant -> string
val variant_of_string : string -> variant

type config = {
  nvm : Nvm.Config.t;
  epoch_len_ns : float;
  val_incll : bool;
      (** [false] = the InCLLp-only ablation (value updates always fall
          back to the external log). *)
}

val default_config : config

type t

val create : ?config:config -> variant -> t
(** Fresh system on a fresh region. *)

val variant : t -> variant
val region : t -> Nvm.Region.t

val metrics : t -> Obs.Registry.t
(** The region's metric registry: the NVM substrate's latency histograms
    plus the epoch, external-log, allocator, tree and InCLL counters
    layered onto it (DESIGN.md §10 lists them). Every event is counted
    here once; the counters live as long as the region. *)

val tree : t -> Masstree.Tree.t
val epoch_manager : t -> Epoch.Manager.t option
val ctx : t -> Ctx.t option
(** InCLL/logging context; [None] for the transient variants. *)

val durable_alloc : t -> Alloc.Durable.t option

(** {1 Operations} *)

val put : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option
val remove : t -> key:string -> bool
val scan : t -> start:string -> n:int -> (string * string) list

val durability_lag_ns : t -> float
(** Simulated time since the last completed checkpoint — the window of
    work a crash right now would lose (§4's tradeoff; bounded by the
    epoch length). [infinity] for the MT variant, which never
    checkpoints. *)

val advance_epoch : t -> unit
(** Force a checkpoint now (benchmarks use it to delimit measurements). *)

(** {1 Crash and recovery (Logging / Incll variants, Precise regions)} *)

val crash : t -> Util.Rng.t -> unit
(** Simulate a power failure (see [Nvm.Region.crash]). The instance must
    be discarded; call {!recover} to obtain a working successor on the
    same region. *)

val crash_with : t -> choose:(line:int -> nwrites:int -> int) -> unit

val recover : ?txn_probe:(coordinator:int -> txn_id:int -> bool) -> t -> t
(** Rebuild a system over the crashed region: replay the external log,
    restore allocator roots, arm lazy node recovery, resolve in-doubt
    transactions, compact the failed-epoch set if it is close to
    capacity, and checkpoint so execution resumes in a fresh epoch.
    Returns the replacement instance ([recover_stats] tells how much
    work it did).

    [txn_probe] decides whether a surviving PREPARE record's transaction
    committed; the default probes this region's own watermark (correct
    for a one-shard store). [Store.Sharded] passes a probe that reads
    the coordinator shard's watermark. *)

val attach :
  ?txn_probe:(coordinator:int -> txn_id:int -> bool) ->
  ?config:config ->
  variant ->
  Nvm.Region.t ->
  t
(** Recover a system from a region obtained elsewhere — typically an NVM
    image reloaded after a process restart ([Nvm.Image.load]). Runs the
    same recovery procedure as {!recover}. The [config]'s cost model and
    epoch length apply to the new instance; its region sizing is ignored
    (the region already exists). *)

type recover_stats = {
  replayed_entries : int;
  recovery_sim_ns : float;
  recovery_wall_ns : float;
  quarantined_chains : int;
      (** Allocator chains found structurally corrupt during this
          recovery ([Alloc.Durable.Corrupt_chain]) and unlinked so the
          store could keep running — their blocks leak. 0 in a healthy
          store. *)
  txns_redone : int;
      (** Committed transactions whose write sets were re-applied from
          surviving PREPARE records during [recover.txn_resolve]. *)
  txns_aborted : int;
      (** In-doubt transactions found uncommitted (coordinator watermark
          below their id) and discarded. *)
  sessions_recovered : int;
      (** Distinct serving sessions whose dedup state was rebuilt from
          surviving session records (see {!recovered_sessions}). *)
  phases : (string * float) list;
      (** Ordered per-phase breakdown of the recovery, in simulated ns:
          [recover.epoch_open] (failed-set load + marker epoch),
          [recover.extlog_replay], [recover.alloc_chains],
          [recover.image_scan] (tree reattach; leaves repair lazily),
          [recover.txn_resolve] (in-doubt transaction redo/rollback),
          [recover.eager_sweep] (only when the failed set was compacted)
          and [recover.checkpoint]. Durations are mark-to-mark, so they
          sum exactly to [recovery_sim_ns]. The table is a view of the
          named intervals the region's {!Obs.Stall} recorder kept for the
          recovery and its phases, which also feed the
          ["span.recover*_ns"] histograms in {!metrics} and the region's
          trace ring. *)
  wall_phases : (string * float) list;
      (** The same phases in the same order, in wall-clock ns of each
          phase's own body. The glue between phases is left out, so they
          sum to at most [recovery_wall_ns]. Set beside [phases], they
          show where the simulator's own recovery time goes against what
          the cost model charges. *)
}

val last_recover_stats : t -> recover_stats option
(** Statistics of the recovery that produced this instance. *)

(** {1 Session dedup records (exactly-once serving, DESIGN.md §17)} *)

val record_session : t -> sid:int -> seq:int -> status:int -> Session.op -> unit
(** Append and fence a session dedup record ({!Session}): called by the
    serving layer after a mutation applied and before its reply is sent,
    so every acked op is redoable after a crash and a retried (sid, seq)
    can be answered without re-applying. Forces a checkpoint and retries
    if the log is full. Fails on variants without a logging context. *)

val recovered_sessions : t -> (int * int * int) list
(** [(sid, last_seq, status)] per session found in the crashed epoch's
    surviving dedup records during the recovery that produced this
    instance (newest record per session wins; unordered). Empty for a
    freshly created system. *)

val nodes_logged : t -> int
(** External-log node appends over the region's life (Figure 7's metric):
    the ["extlog.nodes_logged"] counter of {!metrics}, which survives
    {!recover}; take a difference for a window. *)
