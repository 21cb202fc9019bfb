(** Fault-tolerant client session: a retrying, reconnecting wrapper over
    {!Client} that makes every logical operation exactly-once across
    server crashes and network faults (DESIGN.md §17).

    The session negotiates an id with a HELLO frame and stamps every
    mutation with a [(session_id, seqno)] pair; the server durably
    records each applied mutation under that pair {e before} acking, so
    any ambiguous outcome here (per-attempt timeout, connection loss) is
    resolved by reconnecting, re-presenting the session id, and
    resending the same stamp — the server answers a replay from the
    record instead of re-applying it. [Busy] and [Shutting_down] replies
    mean the op was not applied and simply back off and retry.

    Transactions are buffered client-side; {!txn_commit} sends the whole
    write set as one stamped TXN_COMMIT frame and retries it like any
    other mutation, which the server's commit dedup keeps exactly-once.
    The write set must therefore fit one {!Proto.max_frame} (1 MiB).

    Not thread-safe: one session belongs to one caller. *)

exception Timed_out
(** The per-op wall-clock deadline ([config.op_deadline]) expired. *)

exception Retries_exhausted
(** The per-op retry budget ([config.retry_budget]) was consumed. *)

type config = {
  op_deadline : float;  (** overall wall-clock budget per logical op, s *)
  attempt_timeout : float;  (** per-attempt reply timeout, s *)
  retry_budget : int;  (** retries per logical op beyond the first try *)
  backoff_base : float;  (** first backoff, s; doubles per retry *)
  backoff_max : float;  (** backoff cap, s *)
  seed : int;  (** private jitter stream *)
}

val default_config : config

type t

val connect : ?config:config -> Client.addr -> t
(** Connect and negotiate a fresh session id (retrying under the same
    policy as ops — the server may be mid-restart). *)

val close : t -> unit

val session_id : t -> int

(** {1 Operations} — each raises {!Timed_out} / {!Retries_exhausted}
    when its budget runs out, and [Failure] on unexpected statuses. *)

val get : t -> string -> string option
val put : t -> string -> string -> unit

val delete : t -> string -> bool
(** [false] when the key was absent. *)

val scan : t -> start:string -> n:int -> (string * string) list
val stats : t -> Proto.stats_format -> string

(** {1 Transactions} — buffered client-side until {!txn_commit}. *)

val txn_begin : t -> unit
val txn_active : t -> bool
val txn_put : t -> string -> string -> unit
val txn_remove : t -> string -> unit

val txn_get : t -> string -> string option
(** Read-your-writes against the local buffer, falling through to a
    remote {!get}. *)

val txn_abort : t -> unit

val txn_commit : t -> unit
(** Commit the buffered writes, closing the transaction either way.
    Raises {!Proto.Malformed}, with nothing sent and the session usable,
    when the encoded write set exceeds {!Proto.max_frame}. *)

(** {1 Robustness telemetry} — cumulative since [connect]. *)

val retries : t -> int
(** Attempts consumed beyond each op's first try (Busy bounces,
    timeouts, reconnect attempts included). *)

val reconnects : t -> int
(** Connections re-established after the initial one. *)

val backoff_ns : t -> float
(** Total wall time spent sleeping in backoff. *)
