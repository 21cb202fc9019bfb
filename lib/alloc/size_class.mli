(** Segregated size classes for the NVM allocators.

    Every chunk starts with the 16-byte header of §5.1 and every chunk size
    is a multiple of 64, so chunks are always cache-line aligned. Two
    payload conventions share the same chunks:

    - {e ordinary} payloads start at [chunk + 16] (16-byte aligned, as the
      ValInCLL packing requires) — used for value buffers;
    - {e aligned} payloads start at [chunk + 64] (cache-line aligned) —
      used for tree nodes, whose InCLL lines must coincide with hardware
      cache lines.

    Because chunks are 64-aligned, a payload address is ≡16 (mod 64) iff it
    is ordinary and ≡0 (mod 64) iff it is aligned, so [chunk_of_payload] is
    unambiguous. *)

val header_bytes : int
(** 16: [next] and [nextInCLL] words. *)

val count : int

val chunk_size : int -> int
(** Total chunk size of class [i]; always a multiple of 64. *)

val class_of_payload : int -> int
(** Smallest class able to hold an ordinary payload of the given size. *)

val class_of_aligned_payload : int -> int
(** Smallest class able to hold a cache-line-aligned payload of the given
    size. *)

val payload_capacity : cls:int -> aligned:bool -> int

val chunk_of_payload : int -> int
(** Chunk base from either kind of payload pointer. *)

val payload_of_chunk : chunk:int -> aligned:bool -> int
