(** Masstree internal (interior) node: a classic sorted B+-tree node.

    Internal nodes are {e always} protected by the external log (§4.2,
    §6.1 — applying InCLL to them narrowed the nodes and lost performance),
    so their layout needs no embedded logs; it only carries a
    [loggedEpoch] word so a node is logged at most once per epoch (§4.2).

    Layout (384 bytes, cache-line aligned like leaves):

    {v
    line 0 (  0- 63): version | loggedEpoch | flags | nkeys | reserved
    lines 1-2 ( 64-183): keys[0..14]
    lines 3-4 (192-319): children[0..15]
    v}

    Width 15 keys / 16 children, the stock Masstree fanout. Key [i]
    separates child [i] (keys < key[i]) from child [i+1] (keys >= key[i]).
    Separators are 8-byte slices only: splits never cut between two entries
    of the same slice, so slice routing is unambiguous. *)

val width : int
val node_bytes : int

val off_logged_epoch : int
val off_nkeys : int

val create : Alloc.Api.t -> Nvm.Region.t -> layer:int -> int

val nkeys : Nvm.Region.t -> int -> int
val set_nkeys : Nvm.Region.t -> int -> int -> unit
val key : Nvm.Region.t -> int -> i:int -> int
(** Load separator [i] and return its low half; the high half is then
    [Nvm.Region.hi32] (see {!Leaf.key}). *)

val set_key : Nvm.Region.t -> int -> i:int -> hi:int -> lo:int -> unit
val child : Nvm.Region.t -> int -> i:int -> int
val set_child : Nvm.Region.t -> int -> i:int -> int -> unit
val logged_epoch : Nvm.Region.t -> int -> int
val set_logged_epoch : Nvm.Region.t -> int -> int -> unit
val layer : Nvm.Region.t -> int -> int

val search_child : Nvm.Region.t -> int -> hi:int -> lo:int -> int
(** Index of the child to descend into for the slice with halves [hi],
    [lo]. *)

val insert_separator :
  Nvm.Region.t -> int -> at:int -> hi:int -> lo:int -> right:int -> unit
(** Insert the separator slice [hi]/[lo] at key index [at] with [right] as the child to
    its right, shifting later keys/children. The node must not be full and
    must already be logged by the caller. *)

val is_full : Nvm.Region.t -> int -> bool

val remove_child : Nvm.Region.t -> int -> i:int -> unit
(** Drop child [i] and the separator between it and its neighbour,
    shifting later keys/children. Leaves the node with [nkeys - 1] keys —
    possibly zero, in which case the caller splices the single remaining
    child into the grandparent. The node must already be logged. *)
