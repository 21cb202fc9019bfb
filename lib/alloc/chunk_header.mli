(** The compact 16-byte chunk header of the durable allocator (§5.1).

    Three logical fields — [next], [nextInCLL] and a 32-bit epoch — are
    packed into two words that share the chunk's first cache line:

    {v
    word0 (next):      | epoch[31:16] | class[1:0] | ptr>>4 (44b) | ctr (2b) |
    word1 (nextInCLL): | epoch[15:0]  | class[3:2] | ptr>>4 (44b) | ctr (2b) |
                        63          48  47       46 45           2 1        0
    v}

    The paper steals the upper 16 bits of each canonical-form pointer for
    the two epoch halves and the (16-byte-alignment) low bits for a 2-bit
    counter; we additionally stash the size class in the two remaining bits
    of each word, which a real implementation derives from segregated pages.

    The counter is bumped when both words are rewritten at the first
    modification of an epoch. Equal counters ⇒ both words are from the same
    update and the epoch halves combine; unequal counters ⇒ the crash hit
    between the two stores and [next] must be recovered from [nextInCLL]
    (§5.1). *)

(** {1 Word codec}

    A header word uses bit 63, so it is coded as its unsigned 32-bit
    halves [hi] (bits 32..63) and [lo] (bits 0..31), as
    {!Nvm.Region.read_u64} loads them: tagged ints, nothing boxed.
    [ptr] is 16-byte aligned and below 2^48. *)

val ctr : lo:int -> int
val ptr : hi:int -> lo:int -> int
val cls2 : hi:int -> int
val half : hi:int -> int
val lo : ptr:int -> ctr:int -> int
val hi : ptr:int -> cls2:int -> half:int -> int

(** {1 Header access}

    Each reader loads both words, word0 first (one charged read each),
    and returns one field. *)

val read_epoch : Nvm.Region.t -> chunk:int -> int
(** The 32-bit epoch reassembled from the two halves, or [-1] when the
    counters differ (a torn first touch: only [nextInCLL] and the class
    may be trusted). *)

val read_next : Nvm.Region.t -> chunk:int -> int
(** Current free-list successor (word0's pointer). *)

val read_class : Nvm.Region.t -> chunk:int -> int
(** The chunk's size class. *)

val first_touch : Nvm.Region.t -> chunk:int -> epoch:int -> unit
(** Unless the header already carries [epoch], log it for its first
    modification in [epoch]: store [nextInCLL := next] and re-tag
    [next] with the new epoch and a bumped counter — word1 strictly
    before word0, in the same cache line, so PCSO gives the §5.1
    recovery invariant. The counters must match. *)

val write_next : Nvm.Region.t -> chunk:int -> next:int -> unit
(** Subsequent modification within the same epoch: rewrite word0's pointer
    bits only, preserving counter, epoch half and class. *)

val init : Nvm.Region.t -> chunk:int -> epoch:int -> cls:int -> unit
(** Initialise the header of a freshly carved chunk ([next = null]). *)

val restore : Nvm.Region.t -> chunk:int -> marker_epoch:int -> unit
(** Recovery: [next := nextInCLL] and re-stamp both words with
    [marker_epoch] and a fresh counter. Idempotent. *)
