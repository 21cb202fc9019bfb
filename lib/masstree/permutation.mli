(** Masstree's 64-bit [permutation] field (§2.2).

    One word encodes both which leaf slots are occupied and the sorted
    order of the occupied slots:

    {v
    bits 0..3     : count of active entries
    bits 4(i+1).. : 4-bit slot index at sorted rank i
    v}

    The first [count] ranks are the active slots in key order; the
    remaining ranks hold the free slots. Insertion takes the free slot at
    rank [count] and rotates it into place; deletion rotates a slot out
    into the free section. Both are single-word updates — that is what lets
    the paper undo {e any} number of same-epoch inserts and deletes by
    restoring this one word from [permutationInCLL] (§4.1.1).

    Width may be at most 15 (14 for the durable leaf, which gives one slot
    up to the two value InCLLs). All functions are pure. *)

type t = int
(** The word's bits 0..59; bits 60..63 are always zero, so it round-trips
    through [Nvm.Region.read_int]/[write_int] exactly. *)

val width : int
(** 14, the durable leaf width (§4.1). *)

val empty : t
(** No active entries; free slots in ascending order. *)

val count : t -> int
val slot_at_rank : t -> int -> int
(** Slot index stored at sorted rank [i] ([0 <= i < width]; ranks at or
    beyond [count] are free slots). *)

val slots_from_rank : t -> rank:int -> int
(** The active slots at sorted ranks [rank] and above, as a bit mask (bit
    [s] for slot [s]): the value words a scan starting at [rank] reads. *)

val is_full : t -> bool

val insert : t -> rank:int -> t * int
(** Activate a free slot at sorted rank [rank] (shifting later ranks);
    returns the new permutation and the slot chosen. The permutation must
    not be full, and [0 <= rank <= count]. *)

val remove : t -> rank:int -> t * int
(** Deactivate the slot at rank [rank]; it becomes the first free slot.
    Returns the new permutation and the freed slot. *)

val active_slots : t -> int list
(** Slots in sorted order (testing aid). *)

val free_slots : t -> int list

val is_valid : t -> bool
(** The 15 slot values are a permutation of [0..width-1] and
    [count <= width] (testing aid). *)

val pp : Format.formatter -> t -> unit
