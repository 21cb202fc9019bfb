(** Fine-grained checkpointing (§3, §4): epochs, the per-epoch global cache
    flush, the durable epoch index, and the durable failed-epoch set.

    Execution is partitioned into epochs (64 simulated milliseconds by
    default, like the paper's Masstree reclamation interval). Advancing from
    epoch [e] to [e+1] is the checkpoint:

    + drain — every modification of epoch [e] reaches NVM, either via the
      paper's stop-the-world [wbinvd] or via bounded incremental
      [Region.flush_some] quanta interleaved with op execution (the
      adaptive scheduler of DESIGN.md §15, selected by
      [Nvm.Config.policy]);
    + the durable epoch index is set to [e+1] and flushed;
    + subscribers run in the new epoch (external-log truncation, allocator
      limbo merging).

    Ordering: the epoch-word store is {e issued} strictly after the drain
    completes — that issue ordering, not the fence that follows the word,
    is what makes the index trustworthy. Under PCSO a crash can persist
    an issued store before its clwb+sfence retire, so the word's fence
    cannot order it against the data flush; it only bounds when recovery
    observes [e+1] instead of [e] (both are completed checkpoints, hence
    both legal recovery points). The incremental sweep preserves the same
    invariant — the word is issued only once the dirty set (including the
    failed-epoch slots and the sweep-floor word) is fully committed, and
    [advance] asserts it — so a crash mid-sweep recovers exactly like a
    crash mid-wbinvd: durable index still [e], epoch [e] rolled back.

    If a crash happens while the durable index reads [f], recovery adds [f]
    to the durable failed-epoch set and rolls the structures back to the
    beginning of [f] — i.e. to the most recently completed checkpoint.

    Epoch numbering: 0 and 1 are reserved (0 = never-used, 1 = pre-history);
    a fresh system starts executing in epoch 2. After a crash of epoch [f],
    [f+1] is the {e recovery marker} epoch ([first_epoch_of_run], Listing
    4's [currExecEpoch]): lazily recovered nodes are stamped with it, and
    normal execution resumes in [f+2] via a checkpoint at the end of
    recovery. *)

type t

exception Failed_set_full
(** The durable failed-epoch set is out of slots even after garbage
    collection. Should be unreachable in practice: consecutive failed
    epochs (repeated crash-during-recovery) share one range slot, and
    slots below the sweep floor are reclaimed on demand — overflow needs
    [max_failed_epochs] {e non}-consecutive crashes with no completed
    eager sweep in between, which the eager-sweep trigger prevents. *)

val create : ?epoch_len_ns:float -> Nvm.Region.t -> t
(** Initialise epoch state on a freshly formatted region and durably set the
    epoch index to 2. [epoch_len_ns] is the period before the policy's
    divisor ([Rto] runs a quarter of it; see {!epoch_len_ns}). *)

val open_after_crash : ?epoch_len_ns:float -> Nvm.Region.t -> t
(** Attach to a region that was running when it crashed: load the failed
    set, durably add the crashed epoch to it, and durably enter the
    recovery-marker epoch (so a crash during recovery fails the marker
    epoch and recovery re-runs). Consecutive crashes extend the last
    failed range in place, so crash storms of any length fit the set. *)

val region : t -> Nvm.Region.t
val current : t -> int
(** The epoch new modifications belong to. *)

val first_epoch_of_run : t -> int
(** Listing 4's [currExecEpoch]: nodes whose [nodeEpoch] is below this may
    need lazy recovery. *)

val crashed_epoch : t -> int option
(** After {!open_after_crash}, the epoch that was rolled back ([None] for a
    fresh system). The external log replays exactly this epoch's entries. *)

val is_failed : t -> int -> bool

val failed_count : t -> int
(** Number of failed {e epochs} (not slots). *)

val failed_slots : t -> int
(** Number of occupied durable range slots, out of
    [Nvm.Layout.max_failed_epochs]; the eager-sweep pressure signal. *)

val failed_list : t -> int list

val advance : t -> unit
(** Perform a checkpoint now, synchronously. If an incremental sweep is
    mid-flight (see {!maybe_advance}), its remainder is drained and the
    same boundary fenced — a forced advance (extlog wrap, recovery) never
    starts a second boundary. *)

val maybe_advance : t -> bool
(** The adaptive scheduler's per-op hook; returns whether the epoch
    advanced (a completed, fenced checkpoint — in-flight sweep quanta
    return [false]).

    The region's [Nvm.Config.policy] picks the schedule (the presets
    are tabled in DESIGN.md §15). Under the stop-the-world drain
    ([Throughput]): checkpoint iff the simulated clock has moved
    [epoch_len_ns] past the current epoch's start.

    Under the incremental sweep ([Latency], [Rto]): a trigger — period
    elapsed, the policy's dirty-line count reached, or the external log
    filled to the policy's fraction — records the epoch boundary and
    starts the sweep; each subsequent call runs one bounded
    [Region.flush_some] quantum, so no single stall exceeds the
    policy's sweep budget; the quantum that drains the dirty set fences
    the durable epoch word and completes the checkpoint. A sweep that
    lingers a whole extra period is completed synchronously
    (convergence guard). *)

val sweeping : t -> bool
(** Whether a boundary is recorded with its sweep still in flight. *)

val set_log_pressure : t -> (unit -> float) -> unit
(** Provide the external-log fill fraction (0..1) consulted by the
    policy's log-pressure trigger ([Incll.System] wires this to
    [Extlog.Log.used / capacity]; default constant 0). *)

val epoch_len_ns : t -> float
(** The epoch period in force: the requested one divided by the
    policy's divisor. *)

val epochs_elapsed : t -> int
(** Number of [advance] calls so far (for reporting flush frequency). *)

val epoch_start_ns : t -> float
(** Simulated time at which the current epoch began. *)

val subscribe_post_advance : t -> (unit -> unit) -> unit
(** [f] runs inside every new epoch immediately after the checkpoint, and
    once at the end of [open_after_crash]-driven recovery. Registration
    order is preserved. *)

val clear_failed : t -> unit
(** Durably empty the failed-epoch set. Only legal after an eager recovery
    sweep has re-stamped every node (no lazy restores may remain). *)

val note_swept : t -> floor:int -> unit
(** Durably record that an eager sweep re-stamped every node at epoch
    [floor] (the sweep's recovery marker). Failed ranges entirely below
    [floor] become garbage and are collected when the set runs out of
    slots. *)

(** {1 Epoch-number encodings used by the InCLL words (§4.1.3)} *)

val lower16 : int -> int
val higher : int -> int
val combine : higher:int -> lower16:int -> int
