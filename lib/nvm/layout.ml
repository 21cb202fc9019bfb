let superblock_bytes = 4096
let off_magic = 0
let off_format = 8
let off_size = 16
let off_extlog_size = 24

(* Line 1: the durable epoch index. *)
let off_durable_epoch = 64

(* Lines 2-6: durable failed-epoch set (count + up to 31 entries). *)
let off_failed_count = 128
let max_failed_epochs = 31
let failed_epoch_slot i =
  if i < 0 || i >= max_failed_epochs then invalid_arg "failed_epoch_slot";
  136 + (8 * i)

(* Line 7: tree root (whole line is external-logged on root changes). *)
let off_root = 448
let off_root_meta = 456

(* Line 8: heap bump pointer with its InCLL. *)
let off_bump = 512
let off_bump_incll = 520
let off_bump_epoch = 528

(* Lines 16..47: allocator size-class metadata, two lines per class. *)
let max_size_classes = 16

let alloc_class_free_line i =
  if i < 0 || i >= max_size_classes then invalid_arg "alloc_class_free_line";
  1024 + (i * 128)

let alloc_class_limbo_line i = alloc_class_free_line i + 64

(* Line 48: transaction metadata. The watermark is the id of the last
   transaction whose commit decision was durably recorded with this region
   as coordinator (0 = none); 2PC in-doubt resolution probes it. The sweep
   floor is the recovery-marker epoch of the last completed eager sweep:
   failed epochs below it can no longer alias any live InCLL low-epoch and
   are garbage-collectable from the durable failed set. *)
let off_txn_watermark = 3072
let off_sweep_floor = 3080

let extlog_off = superblock_bytes
let heap_off (cfg : Config.t) = extlog_off + cfg.Config.extlog_bytes

let magic = 0x1AC11_0CA41_2019L (* "InCLL OCaml 2019" *)
let format_version = 1L
