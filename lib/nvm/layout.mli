(** Map of the persistent region.

    {v
    [ superblock: 4 KiB ][ external log ][ heap ... ]
    v}

    The superblock holds the durable roots of every subsystem. Fields that
    are modified together with their own InCLL undo copy are grouped into a
    single cache line each, because the InCLL technique requires the datum
    and its log to share a line. *)

val superblock_bytes : int

(** {1 Superblock fields (byte offsets)} *)

val off_magic : int
val off_format : int
val off_size : int

val off_extlog_size : int
(** External-log size in bytes, recorded at format time so a saved image
    can be re-attached (e.g. by [incll_fsck]) without knowing the original
    configuration — the heap base depends on it. *)

val off_durable_epoch : int
(** The global epoch index, durably advanced at each checkpoint (§4). Lives
    in its own line so the bump can be flushed independently. *)

val off_failed_count : int
(** Number of occupied failed-set slots. Each slot packs a {e range} of
    consecutive failed epochs (see {!failed_epoch_slot}), so the set
    survives arbitrarily many consecutive crash-during-recovery cycles in
    one slot. *)

val failed_epoch_slot : int -> int
(** Offset of the i-th slot of the durable failed-epoch set. A slot packs
    [lo * 2^16 + (hi - lo)]: the range of consecutive failed epochs
    [lo..hi], with [hi - lo < 2^16]. *)

val max_failed_epochs : int
(** Capacity of the failed set, in slots (ranges). *)

val off_txn_watermark : int
(** Id of the last transaction whose commit decision was durably recorded
    with this region as 2PC coordinator (0 = none). A single 8-byte word:
    the simulated PCSO crash model is store-atomic, so no checksum is
    needed. In-doubt PREPARE records are resolved against it. *)

val off_sweep_floor : int
(** Recovery-marker epoch of the last completed eager sweep. All InCLL
    words were re-stamped at that marker, so failed epochs below it are
    unreferenced and may be dropped from the durable failed set. *)

val off_root : int
(** Root pointer of the durable Masstree; its whole line is protected by the
    external log on structural root changes. *)

val off_root_meta : int
(** Auxiliary root metadata word (same line as the root pointer). *)

val off_bump : int
(** Heap wilderness bump pointer; [off_bump_incll] and [off_bump_epoch]
    share its cache line so bump movements are InCLL-logged (§5). *)

val off_bump_incll : int
val off_bump_epoch : int

val alloc_class_free_line : int -> int
(** Offset of the free-list metadata line of size class [i]:
    head at +0, headInCLL at +8, headEpoch at +16. *)

val alloc_class_limbo_line : int -> int
(** Offset of the limbo-list (epoch-based reclamation) metadata line of size
    class [i]; same field layout as the free line. *)

val max_size_classes : int

(** {1 Region slices} *)

val extlog_off : int
val heap_off : Config.t -> int

val magic : int64
val format_version : int64
