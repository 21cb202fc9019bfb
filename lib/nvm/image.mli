(** Saving and loading the persisted image — the moral equivalent of an
    NVM DIMM keeping its contents across a process restart.

    [save] serialises the {e persisted} view of a region (what a power
    failure would leave behind) to a file; [load] reconstructs a region
    whose image is the file contents, with nothing dirty — exactly the state recovery code faces after a reboot.
    This lets examples and the CLI demonstrate real restart-across-process
    durability rather than only in-process crash simulation.

    File format: a 64-byte header (magic, format version, image size,
    checksum) followed by the raw image. *)

val save : Region.t -> path:string -> unit
(** Write the persisted image. The region must be in [Precise] mode. Any
    still-volatile (unflushed) state is {e not} saved — call it after a
    checkpoint, or accept that the saved image is mid-epoch (recovery
    handles both, as with a real crash). *)

val load : Config.t -> path:string -> Region.t
(** Rebuild a region from a saved image. [Config.t] must describe at least
    the saved size; raises [Failure] on a corrupt or mismatching file. *)

val image_size : path:string -> int
(** Size of the image stored at [path] (to build a matching config). *)
