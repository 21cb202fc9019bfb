(** The InCLLp control word (§4.1.1): [nodeEpoch] plus the two transient
    booleans, packed into the word at leaf offset 64:

    {v | logged (1) | insAllowed (1) | nodeEpoch (62) | v}

    [insAllowed] and [logged] are "semantically transient and do not
    require persistence ordering" (§4.1.2) — recovery never trusts them —
    so sharing the epoch's word costs nothing.

    The word uses bit 63, so it is coded as its two unsigned 32-bit
    halves ([hi] = bits 32..63, [lo] = bits 0..31; see
    {!Nvm.Region.read_u64}): tagged ints throughout, nothing boxed. *)

val epoch : hi:int -> lo:int -> int
val ins_allowed : hi:int -> bool
val logged : hi:int -> bool

val hi : epoch:int -> ins_allowed:bool -> logged:bool -> int
val lo : epoch:int -> int
(** The halves of the word packing [epoch] (its low 62 bits) and the two
    flags. *)
