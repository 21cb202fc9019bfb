(** The serving engine: run-to-completion shard domains, each owning its
    connections (DESIGN.md §16).

    The server runs exactly [1 + nshards] domains whatever the
    connection count: the caller's, plus one domain per shard. Shard
    domain [i] serves its job queue and the connections it owns; domain
    0 also accepts, handing connections out round-robin in accept order.
    Each pass of a shard domain runs its queued jobs, writes its buffered
    replies and then reads first: one non-blocking read on each
    connection whose last read found data. It polls with [select] (over
    the queue's wake fd, its connections and the listener) only when
    none of those reads served a request, blocking then, or with a zero
    timeout after 16 passes without a poll. A connection whose read-first
    attempt finds nothing sends its next 1, 2, 4 ... 64 requests through
    [select] before it is read first again. A connection's owner alone reads,
    writes and closes it. A descriptor [select] cannot watch
    (>= FD_SETSIZE) is closed at accept and counted in
    [server.conn_refused].

    A single-key request for the owner's own shard runs inline: decoded,
    applied and answered on that domain, after every job already queued
    for it (so a barrier the connection submitted — its TXN_COMMIT —
    completes before its later ops). A request for another shard goes
    into that shard's bounded queue ({!Server.Bqueue}); its reply comes
    back to the owner as a job. BUSY means exactly that the other
    shard's queue was full: the request was not applied. Cross-shard
    operations (SCAN, TXN_COMMIT, STATS) are barrier jobs enqueued on
    {e every} queue; the last domain to arrive runs them exclusively
    while the rest are parked. Replies from one read leave in one
    non-blocking write (possibly out of order: they carry request ids);
    an unwritten tail stays buffered, and a connection with more than
    1 MiB buffered is not read until its peer catches up.

    Every single-key request records its wait from read to execution
    (wall ns) into its shard's [stall.net_queue_ns] histogram (the
    {!Obs.Stall.Net_queue} cause), so it surfaces through STATS. Replies
    carry that wait plus the dominant persistence-stall cause of the
    execution window.
    A connection carries no transaction state: a TXN_COMMIT frame holds
    its whole write set and commits it through the store's 2PC under a
    barrier.

    {b Exactly-once dedup (DESIGN.md §17)}: HELLO grants a session id;
    a mutation stamped [(session_id, seqno)] is recorded durably (a
    fenced {!Incll.System.record_session} record) after it applies and
    before its reply exists, which also notes it in that shard System's
    bounded session table. A replayed stamp is answered from the table
    ({!Incll.System.last_session}) instead of re-applied
    ([server.dedup_hits]). Single-key stamps dedup on the key's shard;
    commit stamps on the session's home shard ([sid mod nshards]) inside
    the commit barrier. A recovered store's tables come back rebuilt by
    its recovery.

    {!stop} drains gracefully: domain 0 accepts the backlog and closes
    the listener; every domain sweeps its connections once, serves its
    queue until they have nothing outstanding and nothing buffered, and
    only when every domain is drained do the queues close. Every
    blocking syscall resumes on EINTR, so signal delivery cannot abort
    the drain. *)

type t

val start :
  ?config:Incll.System.config ->
  ?queue_capacity:int ->
  (* per-shard request queue bound; default 1024; must be positive *)
  ?batch:int ->
  (* max requests a shard domain dequeues at once; default 64; must be
     positive. A test seam (batch 1 makes a wedged shard hold exactly one
     request); the server binary does not expose it *)
  ?on_dequeue:(shard:int -> unit) ->
  (* test hook: runs on shard domain [shard] before each dequeued batch
     and each read's requests — block here to wedge that domain *)
  ?store:Store.Sharded.t ->
  (* serve this store instead of creating one — e.g. systems reattached
     from NVM mirrors after a crash-restart; [variant]/[shards]/[config]
     are ignored; fresh session ids start above every one its shards'
     session tables hold *)
  variant:Incll.System.variant ->
  shards:int ->
  Wire.Client.addr ->
  t
(** Bind, listen and spawn the shard domains. [Tcp (host, 0)]
    binds an ephemeral port; read the real one back from {!addr}. *)

val addr : t -> Wire.Client.addr
(** The bound address (ephemeral TCP port resolved). *)

val store : t -> Store.Sharded.t
(** The underlying store. Only safe to touch after {!stop} — while the
    server runs, the shard domains own it ({!Store.Sharded.shard_of_key}
    excepted: routing is pure). *)

val nshards : t -> int

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting, wait for every
    connection's in-flight requests to finish and its replies to flush,
    then drain and join the shard domains. Connections still queued on
    the listen backlog when stop arrives — their [connect] already
    succeeded, possibly with requests already sent — are accepted and
    drained like established ones; requests delivered before the drain
    reached a connection are served normally, and so are later ones
    except HELLO, which is bounced [Shutting_down]. *)
