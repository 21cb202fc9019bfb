(** NVM image files: an NVM DIMM keeping its contents across a process
    restart. The only module that opens, maps or reads one.

    A 64-byte header (magic, format version 1, payload size, checksum,
    state) precedes the payload, a region's persisted view. The state
    word (offset 32) is 0 for a {e sealed} file, whose checksum holds,
    and 1 for a {e live} one, a running region's mirror. *)

val header_bytes : int

val save : Region.t -> path:string -> unit
(** Write the {e persisted} view (what a power failure would leave
    behind) as a sealed file. Precise mode only. Still-volatile state is
    {e not} saved: call it after a checkpoint, or accept a mid-epoch
    image (recovery handles both, as with a real crash). *)

val load : Config.t -> path:string -> Region.t
(** A region holding the payload of a sealed or live file, nothing dirty:
    the state recovery faces after a reboot. Only reads the file. Raises
    [Failure] naming the file unless the payload holds exactly
    [Config.size_bytes] and, if sealed, matches its checksum. *)

val attach : Region.t -> path:string -> unit
(** Make [path] (created if absent, never truncated) the region's live
    mirror: size it, write the persisted view into its payload, mapped
    [MAP_SHARED] and kept in sync at every instant the view changes, then
    a live header. The page cache keeps the bytes past a SIGKILL, as NVM
    outlives a power failure. After [load] of a live file it rewrites
    only identical bytes. Precise mode only, on a region with no dirty
    line (fresh, just loaded or just checkpointed). *)

val image_size : path:string -> int
(** Payload size of the image at [path] (to build a matching config). *)

val is_live : path:string -> bool
