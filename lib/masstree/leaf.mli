(** Durable Masstree leaf node: layout accessors (Figure 1, Listing 2).

    A leaf is a 384-byte, cache-line-aligned NVM object of six lines:

    {v
    line 0 (  0- 63): version | next | flags | prev | reserved
    line 1 ( 64-127): epochWord(InCLLp) | permutationInCLL | permutation | keys[0..4]
    line 2 (128-191): keys[5..12]
    line 3 (192-255): keys[13] | keylen[0..13] | reserved
    line 4 (256-319): InCLL1 | vals[0..6]
    line 5 (320-383): vals[7..13] | InCLL2
    v}

    Line 1 co-locates [nodeEpoch], [permutationInCLL] and [permutation] —
    the ordering invariant of §4.1.2 depends on it. Lines 4/5 place each
    value InCLL in the same line as the seven value slots it can log
    (§4.1.3). This module is pure layout: the InCLL {e algorithm} lives in
    the [incll] library's hooks.

    Width is 14 (one key/value fewer than stock Masstree — the price of the
    two value InCLLs, §4.1). *)

val width : int
val node_bytes : int

(** {1 Field offsets (for white-box tests and the recovery code)} *)

val off_version : int
val off_next : int
val off_flags : int
val off_prev : int
val off_epoch_word : int
val off_perm_incll : int
val off_perm : int
val key_off : int -> int
val keylen_off : int -> int
val val_off : int -> int
val incll1_off : int
val incll2_off : int

val create :
  Alloc.Api.t -> Nvm.Region.t -> layer:int -> epoch:int -> int
(** Allocate and initialise an empty leaf: empty permutation, InCLLp
    stamped with [epoch], both value InCLLs invalid. Returns the node
    address (64-byte aligned). *)

(** {1 Accessors}

    Words that use bit 63 — the InCLLp word, key slices and the value
    InCLLs — are loaded with {!Nvm.Region.read_u64}: the accessor returns
    one part (or the low half) and the rest of the same word is read back
    from the region right after, before any other [read_u64]. *)

val set_version : Nvm.Region.t -> int -> int -> unit
val next : Nvm.Region.t -> int -> int
val set_next : Nvm.Region.t -> int -> int -> unit
val prev : Nvm.Region.t -> int -> int
val set_prev : Nvm.Region.t -> int -> int -> unit
val layer : Nvm.Region.t -> int -> int
val is_leaf_node : Nvm.Region.t -> int -> bool
(** Discriminate leaf from internal via the flags word (shared offset). *)

val epoch_word : Nvm.Region.t -> int -> int
(** Load the InCLLp word ({!Epoch_word}) and return its [nodeEpoch]; the
    same word's flags are then {!logged} and {!ins_allowed}. *)

val logged : Nvm.Region.t -> bool
val ins_allowed : Nvm.Region.t -> bool
(** Flags of the InCLLp word the last {!epoch_word} loaded. *)

val set_epoch_word :
  Nvm.Region.t -> int -> epoch:int -> ins_allowed:bool -> logged:bool -> unit

val perm_incll : Nvm.Region.t -> int -> Permutation.t
val set_perm_incll : Nvm.Region.t -> int -> Permutation.t -> unit
val perm : Nvm.Region.t -> int -> Permutation.t
val set_perm : Nvm.Region.t -> int -> Permutation.t -> unit

val key : Nvm.Region.t -> int -> slot:int -> int
(** Load [slot]'s key slice and return its low half ({!Key.slice_lo});
    the high half is then [Nvm.Region.hi32]. *)

val set_key : Nvm.Region.t -> int -> slot:int -> hi:int -> lo:int -> unit
val keylen : Nvm.Region.t -> int -> slot:int -> int
val set_keylen : Nvm.Region.t -> int -> slot:int -> int -> unit
val value : Nvm.Region.t -> int -> slot:int -> int
val set_value : Nvm.Region.t -> int -> slot:int -> int -> unit

val incll_index : int -> int
(** Which value InCLL (0 = InCLL1, 1 = InCLL2) covers a slot's line. *)

val incll : Nvm.Region.t -> int -> which:int -> int
(** Load value InCLL [which] and return its [lo] half ({!Val_incll});
    the [hi] half is then [Nvm.Region.hi32]. *)

val set_incll : Nvm.Region.t -> int -> which:int -> hi:int -> lo:int -> unit

val set_incll_invalid : Nvm.Region.t -> int -> which:int -> low_epoch:int -> unit
(** Mark value InCLL [which] unused, stamped with the epoch's low bits. *)

(** {1 Search} *)

val find : Nvm.Region.t -> int -> hi:int -> lo:int -> keylen:int -> int
(** Binary search over the permutation's sorted ranks by
    [(slice, keylen)], the slice given by its halves. Returns the rank
    [r >= 0] of the matching entry, or [lnot r] (negative) when there is
    none and the entry would be inserted at rank [r]. *)

val entry_count : Nvm.Region.t -> int -> int
