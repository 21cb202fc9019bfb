(** The Masstree ordered map (§2.2): a trie of B+ trees over the simulated
    NVM region, parameterised by allocator and persistence hooks.

    Keys are arbitrary byte strings, consumed 8 bytes per trie layer; keys
    that share a full 8-byte slice descend into a nested layer whose root
    is stored as the link slot's value. Values are byte strings stored in
    allocator-managed NVM buffers (a length word followed by the bytes).

    A tree is single-writer (the sharded store gives each domain its own
    tree); durability is entirely delegated to the {!Hooks.t}
    implementation, so the same code runs as transient MT/MT+ or as the
    durable LOGGING/INCLL variants.

    Like stock Masstree, a key's bytes past its slice are kept as an
    inline suffix (ksuf) in the entry's buffer; a nested layer is created
    only when two long keys collide on a full 8-byte slice (the suffix
    entry is then converted, under external logging, into a link to a
    fresh layer holding both). And like stock Masstree, nodes that empty
    are removed (no rebalancing merges): an emptied leaf is unlinked from
    its sibling chain and parent; a parent reduced to one child is spliced
    out; a nested layer whose root collapses to an empty leaf is pruned
    from the layer above. *)

type t

val max_value_bytes : int

val create :
  Nvm.Region.t ->
  Alloc.Api.t ->
  Hooks.t ->
  current_epoch:(unit -> int) ->
  t
(** Build an empty tree on a formatted region: allocates the root leaf and
    durably records it in the superblock root line.

    A tree counts its updates and structural changes in the region's
    metric registry: ["tree.updates"], ["tree.leaf_splits"],
    ["tree.root_splits"], ["tree.layer_creations"],
    ["tree.leaf_removals"], ["tree.internal_splices"],
    ["tree.root_collapses"] and ["tree.layer_prunes"]. *)

val open_existing :
  Nvm.Region.t ->
  Alloc.Api.t ->
  Hooks.t ->
  current_epoch:(unit -> int) ->
  t
(** Attach to the tree recorded in the superblock (after recovery). *)

val region : t -> Nvm.Region.t
val root : t -> int

(** {1 Operations} *)

val put : t -> key:string -> value:string -> unit
(** Insert, or overwrite the value of an existing key. *)

val get : t -> key:string -> string option
val mem : t -> key:string -> bool

val remove : t -> key:string -> bool
(** Returns whether the key was present. *)

val fold_from : t -> start:string -> f:(string -> string -> bool) -> unit
(** In-order traversal of all keys [>= start]; [f key value] returns
    whether to continue. *)

val scan : t -> start:string -> n:int -> (string * string) list
(** The YCSB-E operation: up to [n] consecutive key-value pairs starting at
    the smallest key [>= start]. *)

val cardinal : t -> int
val iter : t -> (string -> string -> unit) -> unit

(** {1 Introspection (tests, recovery sweeps, benchmarks)} *)

val validate : t -> unit
(** Walk the whole structure checking ordering, permutation validity,
    separator bounds and layer tagging; raises [Failure] on violation. *)

val iter_nodes : t -> leaf:(int -> unit) -> internal:(int -> unit) -> unit
(** Visit every node of every layer (used by the eager recovery sweep).
    Does {e not} run access hooks. *)

