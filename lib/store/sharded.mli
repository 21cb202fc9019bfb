(** Range-sharded multi-tree store: the concurrency substitute documented
    in DESIGN.md §1.

    The paper's Masstree uses optimistic concurrency control inside one
    tree; this reproduction instead range-partitions the key space over
    [n] independent durable systems, one per domain. Each shard owns its
    region, cache simulation, epoch clock and external log, so the
    persistence machinery — the paper's contribution — runs unchanged and
    unsynchronised inside every shard.

    Sharding is by the top bits of the first 8-byte key slice; scrambled
    benchmark keys spread uniformly. Shard ranges are ordered, so range
    scans concatenate per-shard scans.

    The store itself is a sequential facade; parallel benchmarks spawn one
    domain per shard and drive the shards directly (see
    [Bench_harness.Runner]). *)

type t

val create : ?config:Incll.System.config -> Incll.System.variant -> shards:int -> t

val attach :
  ?config:Incll.System.config -> Incll.System.variant -> Nvm.Region.t array -> t
(** Recover a store from per-shard regions obtained elsewhere (e.g. NVM
    image files reloaded after a process restart), given in shard
    order: each shard runs [Incll.System.attach], in-doubt transaction
    records are resolved against the coordinator shard's watermark
    exactly as in {!recover}, and the next transaction id resumes above
    every shard's durable watermark. *)

val open_images :
  ?config:Incll.System.config -> Incll.System.variant -> shards:int ->
  dir:string -> t * bool
(** The store mirrored in [dir/shard<i>.img] ({!Nvm.Image.attach}) and
    whether it was recovered (as by {!attach}) from those files, or made
    fresh over an empty [dir]. Raises [Failure] naming a file, before
    writing any, on a partial [dir] (another shard count) or an image of
    another size: an image directory is refused, never wiped. *)

val nshards : t -> int
val shard : t -> int -> Incll.System.t
val shard_of_key : t -> string -> int

val put : t -> key:string -> value:string -> unit
val get : t -> key:string -> string option
val remove : t -> key:string -> bool
val scan : t -> start:string -> n:int -> (string * string) list

(** {1 Cross-shard transactions}

    Durable multi-key transactions with two-phase commit. Writes are
    buffered until {!txn_commit} (reads inside the transaction see
    them); commit appends a fenced PREPARE record per participating
    shard, then durably advances the {e coordinator} shard's (lowest
    participating index) txn watermark — the single store-atomic commit
    point — and applies the writes. After any crash, recovery resolves
    surviving PREPAREs against the coordinator's watermark, so the
    transaction is either fully present or fully absent across all
    shards. One transaction at a time (the store is a sequential
    facade). *)

val txn_begin : t -> unit
val txn_active : t -> bool

val txn_id : t -> int option
(** Id of the active transaction (differential harnesses correlate it
    with the durable watermark). *)

val txn_put : t -> key:string -> value:string -> unit
val txn_remove : t -> key:string -> unit

val txn_get : t -> key:string -> string option
(** Read-your-writes lookup: buffered writes shadow the shards. *)

val txn_abort : t -> unit
(** Discard the buffered writes; no shard was touched. *)

val txn_commit : t -> unit
(** Run the two-phase commit described above. An empty transaction
    commits without touching any log. Requires a recoverable variant
    ([Logging] / [Incll]). *)

val advance_epochs : t -> unit
(** Checkpoint every shard (the MT+ "global barrier" analogue). *)

val crash : t -> Util.Rng.t -> unit

val recover : t -> (string * float) list
(** Recover every shard, {e in place}: every alias of [t] observes the
    post-recovery shards (the shard array is mutable state, not a
    functional view). In-doubt transaction records are resolved against
    the coordinator shard's watermark (see the transactions section).
    Returns the per-phase time breakdown of the recovery —
    [Incll.System.recover_stats.phases] summed over shards, in
    simulated ns, in procedure order; the sum of the durations is the
    total simulated recovery time across shards. *)

val last_recover_wall_phases : t -> (string * float) list
(** The same breakdown for the shards' last recovery in wall-clock ns
    ([Incll.System.recover_stats.wall_phases] summed over shards). *)

val metrics : t -> Obs.Registry.t
(** Fresh merged copy of every shard's metric registry. *)

val cardinal : t -> int
