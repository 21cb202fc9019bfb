module P = Wire.Proto

(* Encoded reply frames not yet written: the bytes [pos, len) of [buf].
   A write consumes a prefix in place, with no copy. *)
module Out = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { buf = Bytes.create 256; pos = 0; len = 0 }
  let length o = o.len - o.pos

  let clear o =
    o.pos <- 0;
    o.len <- 0

  let add o s =
    let n = String.length s in
    if o.len + n > Bytes.length o.buf then begin
      (* Move the unwritten bytes to the front, into a bigger buffer
         when they and [s] still do not fit. *)
      let live = length o in
      let buf =
        if live + n <= Bytes.length o.buf then o.buf
        else Bytes.create (max (2 * Bytes.length o.buf) (live + n))
      in
      Bytes.blit o.buf o.pos buf 0 live;
      o.buf <- buf;
      o.pos <- 0;
      o.len <- live
    end;
    Bytes.blit_string s 0 o.buf o.len n;
    o.len <- o.len + n

  let drop o k =
    o.pos <- o.pos + k;
    if o.pos = o.len then clear o
end

(* A connection belongs to one shard domain, its owner, for its whole
   life: only the owner reads or writes its fd or touches its fields. *)
type conn = {
  fd : Unix.file_descr;  (* non-blocking *)
  owner : int;
  dec : P.Decoder.t;
  out : Out.t;
  mutable outstanding : int;  (* requests answered by other domains *)
  mutable reading : bool;  (* false after EOF, an error or the drain sweep *)
  mutable flushing : bool;  (* on its owner's [to_flush] list *)
  (* Read-first state (see [read_hot]): on its owner's [read_first]; the
     requests it still serves through select before it is hot again; the
     length of its next back-off; read-first hits since its last miss or
     since that length last halved. *)
  mutable hot : bool;
  mutable cold : int;
  mutable backoff : int;
  mutable hits : int;
}

(* Select hands back the very descriptor values it was given, so
   physical equality matches them (they are ints on Unix). *)
module Fdtbl = Hashtbl.Make (struct
  type t = Unix.file_descr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* What shard domain [i] knows of its connections; only it touches this.
   Each list holds the connections some step of a pass must visit, so a
   pass visits no connection it has nothing to do for. *)
type shard = {
  by_fd : conn Fdtbl.t;  (* every connection it owns *)
  mutable to_flush : conn list;  (* replies buffered *)
  mutable read_first : conn list;  (* the hot ones: read before any select *)
  mutable closing : conn list;  (* stopped reading, not closed yet *)
}

type barrier = {
  mutable remaining : int;
  bmu : Mutex.t;
  bcv : Condition.t;
  brun : int -> unit;  (* run exclusively by the last shard to arrive *)
  mutable bdone : bool;
}

type job =
  | Op of conn * float * P.request  (* routed from the owner; decode wall ns *)
  | Barrier of barrier
  | Reply of conn * string  (* an encoded frame back to the owner *)
  | Adopt of conn  (* a freshly accepted connection *)

type t = {
  store : Store.Sharded.t;
  queues : job Bqueue.t array;
  net_queue : Obs.Histogram.t array;  (* per-shard "stall.net_queue_ns", wall ns *)
  c_dedup : int ref array;  (* per-shard "server.dedup_hits" counters *)
  sid_counter : int Atomic.t;  (* next fresh session id *)
  shards : shard array;  (* entry i owned by shard domain i *)
  listen_fd : Unix.file_descr;
  bound : Wire.Client.addr;
  mutable accepted : int;  (* round-robin cursor, domain 0 only *)
  (* Out of descriptors, accept fails while the listener stays readable.
     Domain 0 then leaves the listener out of its select until
     [paused_until] (Unix seconds; 0 when not paused) passes. *)
  mutable paused_until : float;
  c_refused : int ref;  (* "server.conn_refused", domain 0 only *)
  stop_flag : bool Atomic.t;
  accepting : bool Atomic.t;  (* false once domain 0 closed the listener *)
  drained : int Atomic.t;  (* domains whose connections are all done *)
  barrier_mu : Mutex.t;  (* serialises multi-queue barrier enqueues *)
  mutable domains : unit Domain.t list;
  batch : int;
  on_dequeue : (shard:int -> unit) option;
  t0 : float;  (* server start, Util.Clock ns *)
  mutable stopped : bool;
}

let wall_ns t = Util.Clock.now_ns () -. t.t0

(* A signal delivered to the process (SIGTERM with a handler installed,
   say) interrupts blocking syscalls on whatever domain is inside one;
   an EINTR must resume the call, never abandon a drain. *)
let restart_eintr = Wire.Client.restart_eintr

(* ------------------------------------------------------------- replies *)

let encode_reply r =
  try P.frame_of_reply r
  with P.Malformed m ->
    (* An oversized result (e.g. a huge SCAN) must not kill the shard
       domain; degrade to an error the client can act on. *)
    P.frame_of_reply
      { r with P.status = P.Bad_request; payload = P.Text m }

(* Buffer a reply frame on its connection, from its owner. *)
let emit t conn frame =
  Out.add conn.out frame;
  if not conn.flushing then begin
    conn.flushing <- true;
    let sh = t.shards.(conn.owner) in
    sh.to_flush <- conn :: sh.to_flush
  end

let simple t ?(payload = P.Unit) conn id status =
  emit t conn
    (encode_reply { P.id; status; queue_ns = 0.0; cause = P.no_cause; payload })

(* Hand the reply to a request counted in [outstanding] to its owner,
   from domain [on]: the owner buffers it, anyone else sends it home. *)
let deliver t ~on conn frame =
  if on = conn.owner then begin
    emit t conn frame;
    conn.outstanding <- conn.outstanding - 1
  end
  else ignore (Bqueue.push_unbounded t.queues.(conn.owner) (Reply (conn, frame)))

(* The owner stops reading [conn]; it is closed once nothing it owes
   its peer is left. *)
let halt t conn =
  if conn.reading then begin
    conn.reading <- false;
    let sh = t.shards.(conn.owner) in
    sh.closing <- conn :: sh.closing
  end

let add_conn sh conn = Fdtbl.replace sh.by_fd conn.fd conn

(* --------------------------------------------------------- shard domain *)

let exec_single sys (op : P.op) =
  match op with
  | P.Get k -> (
      match Incll.System.get sys ~key:k with
      | Some v -> (P.Ok, P.Value v)
      | None -> (P.Not_found, P.Unit))
  | P.Put (k, v) ->
      Incll.System.put sys ~key:k ~value:v;
      (P.Ok, P.Unit)
  | P.Delete k ->
      if Incll.System.remove sys ~key:k then (P.Ok, P.Unit)
      else (P.Not_found, P.Unit)
  | _ ->
      (* SCAN/TXN_COMMIT/STATS never reach a single-shard queue entry. *)
      (P.Bad_request, P.Unit)

(* Replayed (sid, seq)? Answer without re-applying: the recorded status
   for the newest seq, plain Ok for anything older (the session layer is
   one-op-at-a-time, so an older seq is a duplicated frame whose real
   reply was already delivered). The table is shard [shard]'s System's
   (key-deterministic routing sends a retry to the same shard), so this
   must run on that shard's domain, or inside a barrier. *)
let dedup_check t shard ~sid ~seq =
  match Incll.System.last_session (Store.Sharded.shard t.store shard) ~sid with
  | Some (last, status) when seq <= last ->
      t.c_dedup.(shard) := !(t.c_dedup.(shard)) + 1;
      Some (if seq = last then P.status_of_code status else P.Ok)
  | _ -> None

let session_op_of = function
  | P.Put (k, v) -> Some (Incll.Session.Put { key = k; value = v })
  | P.Delete k -> Some (Incll.Session.Remove { key = k })
  | _ -> None

(* Execute a single-key request on its shard's domain; the encoded
   reply. The wait since [dec_ns] (its read) is its [net_queue] stall,
   inline or queued. *)
let exec_op t shard ~dec_ns { P.id; op; sess } =
  let sys = Store.Sharded.shard t.store shard in
  let region = Incll.System.region sys in
  (* The clock field itself: [Nvm.Stats.sim_ns] would box the float. *)
  let clock = (Nvm.Region.stats region).Nvm.Stats.clock in
  let queue_ns = Float.max 0.0 (wall_ns t -. dec_ns) in
  Obs.Histogram.record t.net_queue.(shard) queue_ns;
  encode_reply
    (match Option.bind sess (fun (sid, seq) -> dedup_check t shard ~sid ~seq) with
    | Some status ->
        { P.id; status; queue_ns; cause = P.no_cause; payload = P.Unit }
    | None ->
        let stalls = Nvm.Region.stalls region in
        let s0 = clock.Nvm.Stats.ns in
        let a0 = Obs.Stall.admitted stalls in
        let status, payload =
          try exec_single sys op
          with e -> (P.Bad_request, P.Text (Printexc.to_string e))
        in
        (* Durable exactly-once: the dedup record is fenced into the log
           *before* the reply exists, so an acked mutation is always
           redoable and its stamp always survives a crash. *)
        (match (sess, session_op_of op) with
        | Some (sid, seq), Some sop when Incll.System.ctx sys <> None ->
            Incll.System.record_session sys ~sid ~seq
              ~status:(P.status_code status) sop
        | _ -> ());
        (* Stalls admitted before [a0] ended by [s0]: only the ones
           admitted since can overlap this op, and most ops admit none. *)
        let cause =
          if Obs.Stall.admitted stalls = a0 then P.no_cause
          else
            let s1 = Float.max clock.Nvm.Stats.ns (s0 +. 1.0) in
            Obs.Stall.dominant_cause (Obs.Stall.since stalls ~admitted:a0)
              ~t0:s0 ~t1:s1
            |> Option.fold ~none:P.no_cause ~some:Obs.Stall.cause_index
        in
        { P.id; status; queue_ns; cause; payload })

let run_barrier_job ~on b =
  Mutex.lock b.bmu;
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then begin
    b.brun on;
    b.bdone <- true;
    Condition.broadcast b.bcv
  end
  else
    while not b.bdone do
      Condition.wait b.bcv b.bmu
    done;
  Mutex.unlock b.bmu

(* Run everything queued for shard domain [i], batch by batch. *)
let rec run_jobs t i =
  match Bqueue.pop_batch t.queues.(i) ~max:t.batch with
  | [] -> ()
  | jobs ->
      Option.iter (fun f -> f ~shard:i) t.on_dequeue;
      List.iter
        (function
          | Op (conn, dec_ns, req) ->
              deliver t ~on:i conn (exec_op t i ~dec_ns req)
          | Barrier b -> run_barrier_job ~on:i b
          | Reply (conn, frame) -> deliver t ~on:i conn frame
          | Adopt conn -> add_conn t.shards.(i) conn)
        jobs;
      run_jobs t i

(* --------------------------------------------------------- request side *)

(* Enqueue a barrier on every shard queue under the global barrier mutex:
   two concurrent barriers land in the same order on every queue, so the
   shard domains can never arrive at two barriers in opposite orders. *)
let submit_barrier t conn id f =
  conn.outstanding <- conn.outstanding + 1;
  let enq_ns = wall_ns t in
  let brun on =
    let queue_ns = Float.max 0.0 (wall_ns t -. enq_ns) in
    let status, payload =
      try f () with e -> (P.Bad_request, P.Text (Printexc.to_string e))
    in
    deliver t ~on conn
      (encode_reply { P.id; status; queue_ns; cause = P.no_cause; payload })
  in
  let b =
    {
      remaining = Array.length t.queues;
      bmu = Mutex.create ();
      bcv = Condition.create ();
      brun;
      bdone = false;
    }
  in
  Mutex.lock t.barrier_mu;
  Array.iter (fun q -> ignore (Bqueue.push_unbounded q (Barrier b))) t.queues;
  Mutex.unlock t.barrier_mu

(* Commit one TXN frame's write set through the store's 2PC. A
   session-stamped commit dedups against the session's *home* shard
   (sid mod nshards — stamp-deterministic, key-independent). Runs inside
   the cross-shard barrier, so every shard is parked and touching the
   home shard's table and log is exclusive. A failed commit is not
   recorded: a resend of the same stamp runs it again. *)
let commit_txn t sess writes () =
  let store = t.store in
  let home sid = sid mod Store.Sharded.nshards store in
  match Option.bind sess (fun (sid, seq) -> dedup_check t (home sid) ~sid ~seq) with
  | Some status -> (status, P.Unit)
  | None ->
      Store.Sharded.txn_begin store;
      let txn_id = Option.value (Store.Sharded.txn_id store) ~default:0 in
      (try
         List.iter
           (function
             | P.Tw_put (k, v) -> Store.Sharded.txn_put store ~key:k ~value:v
             | P.Tw_remove k -> Store.Sharded.txn_remove store ~key:k)
           writes;
         Store.Sharded.txn_commit store
       with e ->
         if Store.Sharded.txn_active store then Store.Sharded.txn_abort store;
         raise e);
      (match sess with
      | Some (sid, seq)
        when Incll.System.ctx (Store.Sharded.shard store (home sid)) <> None ->
          Incll.System.record_session
            (Store.Sharded.shard store (home sid))
            ~sid ~seq ~status:(P.status_code P.Ok)
            (Incll.Session.Commit { txn_id })
      | _ -> ());
      (P.Ok, P.Unit)

let stats_text store fmt () =
  let reg = Store.Sharded.metrics store in
  let text =
    match fmt with
    | P.Stats_json -> Obs.Json.to_string (Obs.Registry.to_json reg)
    | P.Stats_prom -> Obs.Registry.to_prometheus reg
  in
  (P.Ok, P.Text text)

(* Serve one request on its connection's owner [i]. [dec_ns] is when
   its read began: reading, decoding and the wait behind the read's
   earlier requests count as queueing. *)
let handle_request t i conn ~draining ~dec_ns ({ P.id; op; sess } as req) =
    let route_to_shard key =
      let shard = Store.Sharded.shard_of_key t.store key in
      if shard = i then begin
        (* Jobs queued before this op run first: a barrier this
           connection submitted (its TXN_COMMIT, say) completes before
           its later inline ops. *)
        run_jobs t i;
        emit t conn (exec_op t i ~dec_ns req)
      end
      else begin
        conn.outstanding <- conn.outstanding + 1;
        if not (Bqueue.try_push t.queues.(shard) (Op (conn, dec_ns, req)))
        then begin
          conn.outstanding <- conn.outstanding - 1;
          simple t conn id P.Busy
        end
      end
    in
    match op with
    | P.Get k | P.Put (k, _) | P.Delete k -> route_to_shard k
    | P.Txn_commit writes -> submit_barrier t conn id (commit_txn t sess writes)
    | P.Scan (start, n) ->
        submit_barrier t conn id (fun () ->
            (P.Ok, P.Pairs (Store.Sharded.scan t.store ~start ~n)))
    | P.Stats fmt -> submit_barrier t conn id (stats_text t.store fmt)
    | P.Hello proposed ->
        (* In-flight work drains to completion, but a drain does not
           start a new session. *)
        if draining then simple t conn id P.Shutting_down
        else begin
          (* Grant the proposed id (resuming after a reconnect) or mint a
             fresh one; either way the counter stays above every granted
             id so a fresh session can never collide with a resumed or
             recovered one. *)
          let sid =
            if proposed <= 0 then Atomic.fetch_and_add t.sid_counter 1
            else begin
              let rec bump () =
                let cur = Atomic.get t.sid_counter in
                if
                  proposed + 1 > cur
                  && not (Atomic.compare_and_set t.sid_counter cur (proposed + 1))
                then bump ()
              in
              bump ();
              proposed
            end
          in
          simple t ~payload:(P.Value (string_of_int sid)) conn id P.Ok
        end

(* ------------------------------------------------------ connection I/O *)

(* A connection is not read while more than this many reply bytes wait
   for its peer: a slow reader cannot grow the server or block a shard. *)
let out_cap = 1 lsl 20

let readable c = c.reading && Out.length c.out <= out_cap

(* Non-blocking writes of the buffered replies until they are all
   written or the socket is full (one write takes at most 64 KiB); the
   unwritten tail stays buffered. A dead peer's replies are dropped. *)
let rec flush t conn =
  let o = conn.out in
  let n = Out.length o in
  if n > 0 then
    match
      restart_eintr (fun () -> Unix.single_write conn.fd o.Out.buf o.Out.pos n)
    with
    | k ->
        Out.drop o k;
        flush t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ ->
        Out.clear o;
        halt t conn

(* What [read_conn] returns when the read found nothing (EAGAIN, EOF or
   an error); otherwise it returns the number of requests it served. *)
let no_data = -1

(* One non-blocking read, serving every complete frame in it.
   Unframeable garbage cannot be resynced mid-stream: stop reading
   (requests in flight still finish). *)
let read_conn t i buf conn ~draining =
  let dec_ns = wall_ns t in
  match restart_eintr (fun () -> Unix.read conn.fd buf 0 (Bytes.length buf)) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> no_data
  | 0 | (exception Unix.Unix_error _) ->
      halt t conn;
      no_data
  | n ->
      (* A read is the inline batch. *)
      Option.iter (fun f -> f ~shard:i) t.on_dequeue;
      P.Decoder.feed conn.dec buf 0 n;
      let rec serve k =
        match P.Decoder.next conn.dec with
        | None -> k
        | Some payload -> (
            match P.request_of_payload payload with
            | req ->
                handle_request t i conn ~draining ~dec_ns req;
                serve (k + 1)
            | exception P.Malformed _ ->
                halt t conn;
                k)
        | exception P.Malformed _ ->
            halt t conn;
            k
      in
      serve 0

(* The drain's last pass over a connection: requests the peer had
   already delivered are served, not dropped — that is what makes the
   drain graceful. The first read serves them normally (they beat the
   stop; the connection may even have come off the backlog during the
   stop), later ones refuse a HELLO with Shutting_down. *)
let sweep t i buf conn =
  let draining = ref false in
  while readable conn && read_conn t i buf conn ~draining:!draining <> no_data do
    draining := true;
    flush t conn
  done;
  halt t conn

(* ------------------------------------------------------------ read-first *)

(* Longest back-off, in requests served through select, and the run of
   read-first hits that halves the next one. *)
let max_backoff = 64
let hits_to_halve = 8

(* Select-free passes before a pass polls with a zero timeout anyway:
   the listener and the cold connections wait at most this many passes,
   each of which served a request. (Queued jobs need no poll: every pass
   runs them.) *)
let poll_every = 16

let make_hot sh c =
  if not c.hot then begin
    c.hot <- true;
    sh.read_first <- c :: sh.read_first
  end

(* A select-driven read of [c] returned [n]. Data counts its requests
   against the back-off; once that is served, [c] is read first again. *)
let after_select_read sh c n =
  if n <> no_data then begin
    c.cold <- max 0 (c.cold - n);
    if c.cold = 0 then make_hot sh c
  end

(* One non-blocking read on every hot connection; [true] when any of
   them served a request. One that finds nothing backs off: the next
   1, 2, 4 ... [max_backoff] requests it sends go through select (a peer
   on another CPU is rarely quick enough to have answered the reply just
   written, and each miss is a wasted syscall). Misses come in runs, so
   the next back-off halves only after [hits_to_halve] hits in a row. *)
let read_hot t i sh buf =
  match sh.read_first with
  | [] -> false
  | hot ->
      sh.read_first <- [];
      List.fold_left
        (fun served c ->
          c.hot <- false;
          if not (readable c) then served
          else begin
            let n = read_conn t i buf c ~draining:false in
            if n <> no_data then begin
              c.hits <- c.hits + 1;
              if c.hits = hits_to_halve then begin
                c.hits <- 0;
                c.backoff <- c.backoff / 2
              end;
              make_hot sh c
            end
            else if c.reading then begin
              c.hits <- 0;
              c.backoff <- min max_backoff (max 1 (2 * c.backoff));
              c.cold <- c.backoff
            end;
            served || n > 0
          end)
        false hot

(* ------------------------------------------------------- the shard loop *)

let accept_pause_s = 0.05

(* Accept one pending connection on domain 0 and hand it to the next
   domain round-robin; [false] when none is pending or none can be
   accepted now. A descriptor that select cannot watch (>= FD_SETSIZE) is
   closed at once: its peer sees EOF, and everything else keeps being
   served. *)
let accept_one t =
  match restart_eintr (fun () -> Unix.accept ~cloexec:true t.listen_fd) with
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      t.paused_until <- Unix.gettimeofday () +. accept_pause_s;
      false
  | exception Unix.Unix_error _ -> false
  | fd, _ ->
      (match Unix.select [] [ fd ] [] 0.0 with
      | _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Unix.set_nonblock fd;
          let owner = t.accepted mod Array.length t.queues in
          t.accepted <- t.accepted + 1;
          let conn =
            { fd; owner; dec = P.Decoder.create (); out = Out.create ();
              outstanding = 0; reading = true; flushing = false; hot = false;
              cold = 0; backoff = 0; hits = 0 }
          in
          if owner = 0 then add_conn t.shards.(0) conn
          else ignore (Bqueue.push_unbounded t.queues.(owner) (Adopt conn))
      | exception Unix.Unix_error _ ->
          incr t.c_refused;
          Unix.close fd);
      true

(* Domain 0: whether the listener belongs in the select set, and the
   select timeout that ends a pause. *)
let listener_wanted t =
  if t.paused_until = 0.0 then (true, -1.0)
  else begin
    let left = t.paused_until -. Unix.gettimeofday () in
    if left <= 0.0 then begin
      t.paused_until <- 0.0;
      (true, -1.0)
    end
    else (false, left)
  end

(* Flush every connection with replies buffered; those left with a tail
   stay on the list. *)
let flush_all t sh =
  match sh.to_flush with
  | [] -> ()
  | pending ->
      sh.to_flush <- [];
      List.iter
        (fun c ->
          flush t c;
          if Out.length c.out > 0 then sh.to_flush <- c :: sh.to_flush
          else c.flushing <- false)
        pending

(* Close the halted connections that owe their peer nothing more. *)
let reap sh =
  match sh.closing with
  | [] -> ()
  | closing ->
      sh.closing <-
        List.filter
          (fun c ->
            let finished = c.outstanding = 0 && Out.length c.out = 0 in
            if finished then begin
              Fdtbl.remove sh.by_fd c.fd;
              try Unix.close c.fd with Unix.Unix_error _ -> ()
            end;
            not finished)
          closing

(* The select read set: every connection that is [readable]. *)
let read_set sh = Fdtbl.fold (fun fd c acc -> if readable c then fd :: acc else acc) sh.by_fd []

(* Shard domain [i]: its job queue and the connections it owns (on
   domain 0, also the listener). A pass runs the queued jobs, writes the
   buffered replies, then reads first: one non-blocking read on each hot
   connection (one whose last read found data). Only when none of them
   served a request, or after [poll_every] passes without one, does the
   pass select over the wake fd, the reading connections and the
   listener, blocking only in the first case. On one CPU the peer
   usually has its next request queued by then (the reply's write woke
   it, and it ran before this domain did again), so a select per
   request would almost never block. *)
let shard_loop t i =
  let q = t.queues.(i) and sh = t.shards.(i) in
  let buf = Bytes.create 65536 in
  let stopping = ref false and reported = ref false in
  let rec loop unpolled =
    (* Queues close only once every domain is drained; a close seen
       before this pass's jobs means they were the last. *)
    let closed = Bqueue.is_closed q in
    run_jobs t i;
    if not closed then begin
      if (not !stopping) && Atomic.get t.stop_flag then begin
        stopping := true;
        if i = 0 then begin
          (* Connections on the backlog were, from the peer's side,
             accepted before the drain began (connect completes on
             enqueue): drain them like established ones. *)
          while accept_one t do () done;
          (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
          Atomic.set t.accepting false;
          Array.iter Bqueue.kick t.queues
        end
      end;
      (* Flags are read after the pop that consumed their kick, so none
         is missed; every handover precedes the listener's close, so a
         second pass after seeing it collects the last ones. *)
      let settled = !stopping && not (Atomic.get t.accepting) in
      if settled then run_jobs t i;
      if !stopping then
        List.iter
          (fun c -> if c.reading then sweep t i buf c)
          (Fdtbl.fold (fun _ c acc -> c :: acc) sh.by_fd []);
      flush_all t sh;
      reap sh;
      if settled && Fdtbl.length sh.by_fd = 0 && not !reported then begin
        reported := true;
        if Atomic.fetch_and_add t.drained 1 + 1 = Array.length t.queues then
          Array.iter Bqueue.close t.queues
      end;
      let served = (not !stopping) && read_hot t i sh buf in
      if served && unpolled < poll_every then loop (unpolled + 1)
      else begin
        let listening, timeout =
          if i = 0 && not !stopping then listener_wanted t else (false, -1.0)
        in
        let rd = Bqueue.wake_fd q :: read_set sh in
        let rd = if listening then t.listen_fd :: rd else rd in
        let wr = List.map (fun c -> c.fd) sh.to_flush in
        let timeout = if served then 0.0 else timeout in
        let r, _, _ = restart_eintr (fun () -> Unix.select rd wr [] timeout) in
        List.iter
          (fun fd ->
            if listening && fd == t.listen_fd then while accept_one t do () done
            else
              match Fdtbl.find_opt sh.by_fd fd with
              | Some c -> after_select_read sh c (read_conn t i buf c ~draining:false)
              | None -> () (* the wake fd: its jobs run next pass *))
          r;
        loop 0
      end
    end
  in
  loop 0

let start ?config ?(queue_capacity = 1024) ?(batch = 64) ?on_dequeue ?store
    ~variant ~shards addr =
  (* A zero batch would leave every queued job unrun behind an armed
     wake pipe; a zero capacity would bounce every queued op BUSY. *)
  if batch < 1 || queue_capacity < 1 then invalid_arg "Engine.start";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let store =
    match store with
    | Some s -> s
    | None -> Store.Sharded.create ?config variant ~shards
  in
  let shards = Store.Sharded.nshards store in
  let listen_fd, bound = Wire.Client.listen addr in
  let t =
    {
      store;
      queues = Array.init shards (fun _ -> Bqueue.create ~capacity:queue_capacity);
      (* The histogram the region's stall recorder registered. *)
      net_queue =
        Array.init shards (fun i ->
            Obs.Registry.histogram
              (Incll.System.metrics (Store.Sharded.shard store i))
              ("stall." ^ Obs.Stall.cause_name Obs.Stall.Net_queue ^ "_ns"));
      c_dedup =
        Array.init shards (fun i ->
            Obs.Registry.counter
              (Incll.System.metrics (Store.Sharded.shard store i))
              "server.dedup_hits");
      (* Above every sid a shard's table holds (recovered ones, over a
         recovered store). *)
      sid_counter =
        Atomic.make
          (1
          + List.fold_left max 0
              (List.init shards (fun i ->
                   Incll.System.max_session_sid (Store.Sharded.shard store i))));
      shards =
        Array.init shards (fun _ ->
            { by_fd = Fdtbl.create 16; to_flush = []; read_first = []; closing = [] });
      listen_fd;
      bound;
      accepted = 0;
      paused_until = 0.0;
      c_refused =
        Obs.Registry.counter
          (Incll.System.metrics (Store.Sharded.shard store 0))
          "server.conn_refused";
      stop_flag = Atomic.make false;
      accepting = Atomic.make true;
      drained = Atomic.make 0;
      barrier_mu = Mutex.create ();
      domains = [];
      batch;
      on_dequeue;
      t0 = Util.Clock.now_ns ();
      stopped = false;
    }
  in
  Unix.set_nonblock listen_fd;
  t.domains <- List.init shards (fun i -> Domain.spawn (fun () -> shard_loop t i));
  t

let addr t = t.bound
let store t = t.store
let nshards t = Array.length t.queues

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (* Each domain wakes, sweeps and drains its connections; the last
       one drained closes every queue, and the domains exit once their
       queues are empty. *)
    Array.iter Bqueue.kick t.queues;
    List.iter Domain.join t.domains;
    Array.iter Bqueue.release t.queues;
    match t.bound with
    | Wire.Client.Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Client.Tcp _ -> ()
  end
