(** Masstree keys: arbitrary byte strings, consumed 8 bytes per trie layer
    (§2.2).

    At layer [l] a key contributes a {e slice} — its bytes
    [8l .. 8l+7] packed big-endian into an [int64] (zero-padded) — plus the
    number of key bytes the slice actually covers. Keys that extend past a
    layer descend into the next layer with the remaining suffix.

    In-leaf ordering is by [(slice unsigned, keylen)], with the
    layer-link marker sorting after every terminal length; because slices
    are big-endian and zero-padded, this coincides with lexicographic byte
    order of the full keys. *)

val layer_link_len : int
(** Sentinel keylen (15) marking a slot whose value is the next-layer
    root. *)

val suffix_len_marker : int
(** Sentinel keylen (9) marking a slot whose key continues past the slice
    with a suffix stored inline in the value buffer (Masstree's ksuf). It
    sorts after a full 8-byte terminal and before a layer link, matching
    the fact that suffixed keys are longer than their slice. At most one
    of a suffix entry / a link entry exists per slice: a second long key
    on the same slice converts the suffix entry into a nested layer. *)

(** {1 Slices}

    A slice travels as its two unsigned 32-bit halves, the form
    {!Nvm.Region.compare_u64} and {!Nvm.Region.write_u64} take, so a
    lookup builds neither a record nor an [int64]. Each raises
    [Invalid_argument] when [layer] lies beyond the key. *)

val slice_hi : string -> layer:int -> int
(** Bits 32..63 of the layer's slice (its first four bytes). *)

val slice_lo : string -> layer:int -> int
(** Bits 0..31 of the layer's slice (its last four bytes). *)

val slice_len : string -> layer:int -> int
(** Key bytes in the layer's slice (0–8); [8] with {!has_suffix} means the
    key continues in the next layer. *)

val of_halves : hi:int -> lo:int -> int64
(** The packed slice with halves [hi] and [lo]. *)

val of_slice : prefix:string -> hi:int -> lo:int -> len:int -> string
(** [prefix] followed by the first [len] bytes of the slice with halves
    [hi] and [lo]: a scanned key rebuilt in one allocation. *)

val has_suffix : string -> layer:int -> bool
(** True when the key extends beyond this layer's 8 bytes. *)

val suffix : string -> layer:int -> string
(** Remaining bytes after this layer (only when [has_suffix]). *)

val compare_slices : int64 -> int64 -> int
(** Unsigned 64-bit comparison (big-endian packing makes this byte order). *)

val compare_entry : int64 -> int -> int64 -> int -> int
(** [(slice, keylen)] ordering used inside a leaf. *)

val of_int64 : int64 -> string
(** 8-byte big-endian key from an integer (benchmark keys). *)

val to_int64 : string -> int64
(** Inverse of {!of_int64}; the string must be exactly 8 bytes. *)
