(** Bit-field packing helpers over [int64].

    The InCLL encodings (§4.1.3, §5.1) pack an index, a 44-bit pointer and a
    16-bit epoch fragment into single 64-bit words. These helpers keep that
    packing readable and testable. Bit 0 is the least significant bit. *)

val mask : int -> int64
(** [mask w] is a word with the low [w] bits set ([0 <= w <= 64]). *)

val get : int64 -> lo:int -> width:int -> int64
(** [get x ~lo ~width] extracts bits [lo .. lo+width-1] of [x],
    right-aligned. *)

val set : int64 -> lo:int -> width:int -> int64 -> int64
(** [set x ~lo ~width v] returns [x] with bits [lo .. lo+width-1] replaced by
    the low [width] bits of [v]. *)

val field : int -> lo:int -> width:int -> int
(** Like {!get} over a tagged [int] (a word read with
    [Nvm.Region.read_int], or one 32-bit half of a word): nothing boxed.
    [lo + width] must be at most 62. *)

val popcount : int64 -> int
(** Number of set bits. *)
