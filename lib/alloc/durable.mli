(** The durable NVM allocator (§5): segregated free lists whose state rolls
    back to the beginning of a failed epoch, with no write-backs or fences
    on the allocation critical path.

    Reclamation is epoch-based (like Masstree's): [dealloc] pushes the chunk
    onto a per-class {e limbo} list, which is merged into the free list at
    the next checkpoint, so a chunk can only be re-allocated in an epoch
    after the one that freed it. Rollback therefore never resurrects a chunk
    that live data could have scribbled on, which is why buffer contents
    need no logging (§5).

    Free-list heads live in superblock metadata lines ({!Meta_line});
    chunk [next] pointers carry their own in-line undo copy
    ({!Chunk_header}). Chunk-header recovery is lazy — performed when the
    chunk is next touched — mirroring the paper's lazy node recovery. *)

type t

exception Heap_full

exception
  Corrupt_chain of { head : int; at : int; steps : int; reason : string }
(** A guarded chain walk ({!iter_chain-style} walks inside the limbo
    merge, {!recover_all_chains}, {!free_count} …) found structural
    corruption: a cycle, an out-of-bounds link or a mis-aligned link.
    [head] is the chain's head chunk, [at] the chunk whose [next] was
    bad, [steps] how many links had been followed. Walks raise this
    instead of hanging; the recovery path converts it into a chain
    quarantine (counted in ["alloc.quarantined_chains"]). *)

val create : Epoch.Manager.t -> t
(** Initialise allocator metadata on a fresh region (after
    [Nvm.Superblock.format]) and subscribe the limbo merge to checkpoints. *)

val open_after_crash : Epoch.Manager.t -> t
(** Recover allocator roots after a crash: restore every metadata line from
    its in-line undo copy, rebuild transient limbo tails, and subscribe the
    limbo merge. Chunk headers recover lazily afterwards. *)

val alloc : ?aligned:bool -> t -> size:int -> int
(** Allocate a payload of at least [size] bytes; returns a 16-byte-aligned
    payload address (cache-line aligned when [aligned] — used for tree
    nodes, whose InCLL lines must coincide with hardware lines). No flush,
    no fence (§5). *)

val dealloc : t -> int -> unit
(** Return a payload pointer obtained from [alloc]. The chunk becomes
    allocatable at the next checkpoint. *)

val payload_capacity_of : t -> int -> int
(** Usable bytes of the chunk backing this payload pointer. *)

val recover_all_chains : t -> unit
(** Eagerly recover every chunk header reachable from the free and limbo
    lists (used before clearing the failed-epoch set). *)

val check_chains : t -> unit
(** Walk every free and limbo list and validate chunk headers; raises
    [Failure] on corruption (testing aid). *)

(** {1 Corruption handling}

    A walk that raises {!Corrupt_chain} during the limbo merge or
    {!recover_all_chains} unlinks the whole chain (its blocks leak) so the
    store can keep running, and bumps the region's
    ["alloc.quarantined_chains"] counter. It stays 0 in a healthy store:
    CI fails red when a chaos run reports otherwise. *)

type chain_error = { cls : int; kind : string; head : int; detail : string }
(** One invariant violation: [kind] is ["free"] or ["limbo"]. *)

type report = {
  free_chunks : int;  (** chunks reachable from all free chains *)
  limbo_chunks : int;  (** chunks reachable from all limbo chains *)
  errors : chain_error list;  (** empty iff the allocator is clean *)
}

val validate : t -> report
(** Full allocator invariant check (the fsck entry point): every free
    and limbo chain acyclic and in-bounds, chunk headers agreeing with
    their chain's size class, every chunk inside [heap start, bump), and
    no chunk reachable from two chains. Collects all violations rather
    than raising. *)

val forget_limbo_tails : t -> unit
(** Drop the transient limbo tail cache, forcing the next limbo merge to
    re-walk each chain as it must after a crash (testing aid for the
    walk's cycle guard). *)

(** {1 Statistics}

    Allocations are counted in the region's ["alloc.allocs"] counter,
    those served from a free list in ["alloc.freelist_allocs"]. *)

val bump_position : t -> int
val free_count : t -> cls:int -> int
(** Length of a class's free list (walks it; testing aid). *)

val limbo_count : t -> cls:int -> int
