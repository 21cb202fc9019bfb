(** Bounded multi-producer single-consumer queue with a wake fd.

    Each shard domain owns one and selects on {!wake_fd} next to its
    connections. Routed requests use [try_push], and their sender
    answers BUSY itself on [false] — a slow shard surfaces as an
    explicit reply, never as unbounded buffering. Barriers, replies and
    connection handovers use {!push_unbounded}: the first two are
    bounded by the requests read, handovers by accepts. *)

type 'a t

val create : capacity:int -> 'a t
val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed. Never blocks. *)

val push_unbounded : 'a t -> 'a -> bool
(** Enqueue past the capacity limit; [false] only when closed. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Up to [max] elements in FIFO order, [[]] when empty. Never blocks;
    takes no lock when nothing is queued (it reads an atomic flag). *)

val wake_fd : 'a t -> Unix.file_descr
(** Readable while the queue is non-empty, after {!kick} until the next
    {!pop_batch}, and for good after {!close}. Only select on it. *)

val kick : 'a t -> unit
(** Make {!wake_fd} readable without enqueueing. *)

val close : 'a t -> unit
(** Wake the consumer; later pushes fail, queued elements still pop. *)

val is_closed : 'a t -> bool
(** Reads an atomic flag; takes no lock. *)

val release : 'a t -> unit
(** Close the wake pipe once the consumer is gone. *)
