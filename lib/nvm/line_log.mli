(** Region-wide journal of pending stores (Precise crash support).

    PCSO (§2.1) guarantees that two writes to the same cache line reach NVM
    in program order. The simulator realises this by recording, for every
    dirty line, the program-ordered sequence of stores since the line was
    last written back. On a crash, an arbitrary {e prefix} of that sequence
    is applied to the line's persisted image — independently per line, which
    is exactly the PCSO granularity guarantee and nothing stronger.

    All lines share one flat journal, so the simulator holds no heap block
    per cache line and no pointer per store:
    - each store is one packed int (line, in-line offset, length) in a
      growable int array, and its bytes are appended to one growable
      buffer; a store's payload position is the running sum of the lengths
      before it, so every reader walks the journal in order;
    - per line, two ints record the first live entry ([since]) and the
      pending count and payload bytes.

    {b Live entries.} An entry is live iff its line has a non-zero pending
    count and the entry's index is at least the line's [since]. Committing
    a line zeroes its count in O(1) and leaves its old entries stale.

    {b Reclaiming space.} When the last pending line is committed the
    journal is reset to empty. When it is full it is compacted in place if
    fewer than half of the full resource (entries or payload bytes) is
    live, and grown otherwise, so its storage stays within a constant
    factor of the peak live content even when the dirty set never drains. *)

type t

val create : nlines:int -> t
(** An empty journal for a region of [nlines] cache lines. *)

val count : t -> int -> int
(** Pending stores of a line. *)

val payload_bytes : t -> int -> int
(** Payload bytes pending on a line (bounds memory via eviction). *)

val append :
  t -> line:int -> off:int -> src:Bytes.t -> src_pos:int -> len:int -> unit
(** Record a store of [len] bytes at offset [off] of [line] whose value is
    [src\[src_pos .. src_pos+len-1\]]. *)

val commit : t -> int -> unit
(** Drop every pending store of a line (it was written back). *)

val crash :
  t ->
  lines:Util.Ivec.t ->
  choose:(line:int -> nwrites:int -> int) ->
  dst:Bytes.t ->
  unit
(** Power failure. [lines] must hold exactly the pending lines. Walking it
    from the back, call [choose ~line ~nwrites] once per line; then apply,
    in one in-order pass, the first [k] pending stores of each line to its
    image at [dst] (line [l] starts at [l * line_size]), and empty the
    journal. Raises [Invalid_argument] if [choose] returns a [k] outside
    [0 .. nwrites]. *)

type footprint = {
  live_entries : int;  (** pending stores *)
  entry_slots : int;  (** entry slots allocated *)
  live_bytes : int;  (** payload bytes of the pending stores *)
  payload_slots : int;  (** payload bytes allocated *)
}

val footprint : t -> footprint
(** Live content against allocated storage (for memory-bound tests). *)
