(** Client side of the serving protocol: a blocking connection with both
    a synchronous call interface and a pipelined send/recv pair for
    keeping many requests in flight over one socket.

    Not thread-safe: one connection belongs to one caller. The pipelined
    interface returns replies in whatever order the server produced
    them; match them to requests by {!Proto.reply.id}. The synchronous
    {!call} stashes out-of-order replies internally, so the two styles
    can be mixed as long as every pipelined id is eventually received.

    The wrappers cover the single-key ops, SCAN and STATS; a transaction
    is one {!Proto.Txn_commit} request sent through {!call} or {!send}
    (or buffered by {!Session}). This module also holds the socket setup
    and EINTR-safe I/O that the server and the fault proxy share. *)

exception Timeout
(** Raised by {!recv} / {!call} when the absolute [deadline] passes
    before a complete reply arrives. The connection itself stays usable
    (any partial frame is kept buffered), but the reply for an in-flight
    request may still arrive later — retry layers that cannot tell
    whether the op applied must reconnect and rely on the server's
    session dedup (see {!Session}). *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> addr
(** Parse ["unix:/path/to.sock"] or ["tcp:host:port"]. Raises
    [Invalid_argument] on anything else. *)

val string_of_addr : addr -> string

(* --- sockets -------------------------------------------------------- *)

val connect_fd : addr -> Unix.file_descr
(** A connected blocking stream socket ([TCP_NODELAY] on TCP). Raises
    [Unix.Unix_error] when nothing listens there. *)

val listen : addr -> Unix.file_descr * addr
(** Bind and listen (backlog 64): a stale unix socket file at the path is
    removed first, a TCP socket gets [SO_REUSEADDR]. Returns the socket
    and the bound address, with a TCP port 0 resolved to the ephemeral
    port the kernel chose. *)

val restart_eintr : (unit -> 'a) -> 'a
(** Run a syscall, resuming it for as long as it fails with [EINTR] (a
    signal handler fired). *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte on a blocking descriptor, resuming on [EINTR]. *)

(* --- connections -------------------------------------------------- *)

type t

val connect : addr -> t
(** Raises [Unix.Unix_error] when the server is not there. *)

val close : t -> unit

(* --- pipelined interface ------------------------------------------- *)

val send : ?sess:int * int -> t -> Proto.op -> int
(** Write one request, return its id (assigned monotonically per
    connection). Does not wait for the reply. [sess] stamps the request
    with a [(session_id, seqno)] for server-side dedup. *)

val recv : ?deadline:float -> t -> Proto.reply
(** Next reply from the stash or the socket, any id. Raises
    [End_of_file] if the server closed the connection, {!Timeout} if
    [deadline] (absolute [Unix.gettimeofday] seconds) passes first. *)

val recv_opt : t -> Proto.reply option
(** Like {!recv} but never blocks: [None] when no complete reply is
    available right now (open-loop senders drain with this while pacing
    their arrivals). *)

val pending : t -> int
(** Requests sent but not yet returned by {!recv}/{!call}. *)

(* --- synchronous interface ----------------------------------------- *)

val call : ?deadline:float -> ?sess:int * int -> t -> Proto.op -> Proto.reply
(** Send one request and block for its reply, stashing any other
    replies that arrive first. [deadline] and [sess] as in {!recv} and
    {!send}. *)

(* Convenience wrappers over [call]; each raises [Failure] with the
   status name on any status other than the expected ones. *)

val get : t -> string -> string option
val put : t -> string -> string -> unit
val delete : t -> string -> bool
(** [false] when the key was absent. *)

val scan : t -> start:string -> n:int -> (string * string) list
val stats : t -> Proto.stats_format -> string
