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

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool
(** Uniform boolean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
