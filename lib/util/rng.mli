(** Deterministic, fast pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment, test and crash injection is reproducible from a single seed.
    The generator is xoshiro256** (Blackman & Vigna), seeded through
    splitmix64 so that consecutive integer seeds yield uncorrelated
    streams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. *)

val split : t -> t
(** [split t] derives a new, independent generator from [t] (advances [t]). *)

val copy : t -> t
(** [copy t] duplicates the current state (both copies produce the same
    subsequent stream). *)

val next64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Allocates nothing, nor does {!bool}. *)

val bits53 : t -> int
(** 53 uniformly random bits: an int in [\[0, 2{^53})], the top bits of
    {!next64}. Allocates nothing. *)

val float : t -> float
(** Uniform float in [\[0, 1)]: exactly [float_of_int (bits53 t) *.
    0x1p-53]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t < p], true with probability [p]. Allocates
    nothing, where a {!float} result boxes 2 words per draw. *)

val bool : t -> bool
(** Uniform boolean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
