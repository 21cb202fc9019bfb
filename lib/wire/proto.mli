(** The serving layer's wire protocol: length-prefixed binary frames
    carrying request-id-tagged commands and out-of-order replies.

    Frame layout (all integers big-endian):

    {v
    | u32 payload length | payload ... |
    v}

    Request payload:

    {v
    | u32 request id | u8 opcode | body | u8 sess flag [| u64 sid | u64 seq |] |
    v}

    Every request ends with a session trailer: flag 0 means no session
    stamp, flag 1 is followed by an 8-byte session id and an 8-byte
    seqno. Retry layers stamp mutations with a [(sid, seq)] negotiated
    via {!Hello} so the server can deduplicate a replayed request (see
    DESIGN.md Â§17).

    Reply payload:

    {v
    | u32 request id | u8 status | i64 queue_ns | u8 cause | u8 kind | body |
    v}

    [queue_ns] is the wall time the request spent parked in its shard
    queue before the shard domain picked it up (the [net_queue] stall);
    [cause] is the {!Obs.Stall.cause_index} of the dominant persistence
    stall overlapping the request's execution window on the shard's
    simulated clock, or {!no_cause} when none did. Together they are the
    evidence a remote client needs to attribute its own tail latency
    without a second round trip.

    Every request is self-contained: a transaction travels as one
    TXN_COMMIT frame carrying its whole write set, so a connection holds
    no state between requests.

    Strings (keys, values) are [u16 len + bytes]; list counts and text
    blobs (STATS output) are [u32]. A declared frame length above
    {!max_frame} is rejected before any allocation, so a garbage header
    cannot balloon the decoder. *)

exception Malformed of string
(** Raised by every decoding function on input that violates the layout
    above. Carries a human-readable reason. *)

val max_frame : int
(** Hard cap on a frame's payload length (1 MiB). *)

val no_cause : int
(** The [cause] byte meaning "no stall overlapped" (0xff). *)

type txn_write = Tw_put of string * string | Tw_remove of string

type stats_format = Stats_json | Stats_prom

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Scan of string * int  (** start key, max pairs *)
  | Txn_commit of txn_write list
      (** A whole transaction, write set in order, committed atomically
          across shards. Encoded as a u32 count, then per write a u8
          kind (0 put, 1 remove) and its strings. The set must fit one
          {!max_frame}. *)
  | Stats of stats_format
  | Hello of int
      (** Session negotiation: propose a session id to resume (0 =
          assign a fresh one). The reply's [Value] payload is the
          decimal id the server granted. *)

type status =
  | Ok
  | Not_found  (** GET/DELETE on an absent key *)
  | Busy  (** shard queue full — backpressure, retry later *)
  | Bad_request  (** malformed or semantically invalid command *)
  | Shutting_down  (** server draining; no new work accepted *)

val status_name : status -> string

val status_code : status -> int
val status_of_code : int -> status
(** The on-wire status byte; the server also persists it inside session
    dedup records, so both directions are exposed and a status keeps its
    code for good (code 4 is retired, [Shutting_down] stays 5). *)

type payload =
  | Unit
  | Value of string
  | Pairs of (string * string) list
  | Text of string

type request = {
  id : int;
  op : op;
  sess : (int * int) option;
      (** [(session_id, seqno)] stamped on mutations by retry layers *)
}

type reply = {
  id : int;
  status : status;
  queue_ns : float;  (** wall ns the request waited in its shard queue *)
  cause : int;  (** dominant stall cause index, or {!no_cause} *)
  payload : payload;
}

val frame_of_request : request -> string
(** Complete frame, length prefix included. Raises {!Malformed} if a key
    or value exceeds the u16 string limit or the frame {!max_frame}. *)

val frame_of_reply : reply -> string

val request_of_payload : string -> request
(** Decode a frame payload (the bytes after the length prefix). Raises
    {!Malformed}. *)

val reply_of_payload : string -> reply

(** Incremental frame reassembly over a byte stream. *)
module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** Append [len] bytes of [buf] starting at [pos]. *)

  val next : t -> string option
  (** Pop the next complete frame payload, or [None] if more bytes are
      needed. Raises {!Malformed} when the buffered header declares a
      length above the decoder's cap. *)

  val buffered : t -> int
  (** Bytes held waiting for a complete frame. *)
end
