(** The packed value-InCLL word (§4.1.3, Listing 2's [ValInCLL]).

    One 64-bit word logs one value-pointer overwrite:

    {v
    | lowNodeEpoch (16) | pointer>>4 (44) | idx (4) |
     63               48 47             4 3        0
    v}

    The paper steals the canonical-form upper bits of an x64 pointer and
    the low bits guaranteed by 16-byte alignment; our region offsets are
    16-byte aligned and far below 2^48, so the same packing applies. [idx]
    identifies which of the seven value slots sharing the cache line was
    logged; 15 ([invalid_idx]) means "unused". The 16 epoch bits combine
    with the high bits of the node's [nodeEpoch] (§4.1.3).

    Like {!Epoch_word}, the word is coded as its unsigned 32-bit halves
    [hi] (bits 32..63) and [lo] (bits 0..31). *)

val invalid_idx : int

val idx : lo:int -> int
val ptr : hi:int -> lo:int -> int
val low_epoch : hi:int -> int

val hi : ptr:int -> low_epoch:int -> int
val lo : ptr:int -> idx:int -> int
(** The halves of the word logging [ptr] (16-byte aligned, below 2^48)
    for slot [idx] (0..15) in the epoch whose low bits are [low_epoch].
    Raise [Invalid_argument] on an unaligned [ptr] or a bad [idx]. *)
