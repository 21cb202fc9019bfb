module P = Wire.Proto

(* A connection belongs to one shard domain, its owner, for its whole
   life: only the owner reads or writes its fd or touches its fields. *)
type conn = {
  fd : Unix.file_descr;  (* non-blocking *)
  owner : int;
  dec : P.Decoder.t;
  out : Buffer.t;  (* encoded reply frames not yet written *)
  mutable outstanding : int;  (* requests answered by other domains *)
  mutable reading : bool;  (* false after EOF, an error or the drain sweep *)
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

(* Per-session dedup state (DESIGN.md Â§17): the highest seqno this shard
   has applied for the session and the status it was answered with. The
   stamp is a per-shard logical clock driving LRU expiry. *)
type sess_entry = {
  mutable last_seq : int;
  mutable last_status : int;  (* wire status code *)
  mutable stamp : int;
}

(* Bounded retention: sessions idle long enough to be evicted have no
   in-flight op left to deduplicate (the session layer is one-op-at-a-
   time), so expiry only forfeits dedup for clients gone for ages. *)
let sess_cap = 1024

type t = {
  store : Store.Sharded.t;
  queues : job Bqueue.t array;
  ledgers : Obs.Stall.t array;  (* server-owned net_queue ledgers, wall ns *)
  (* Session dedup tables, one per shard, owned by the shard domain
     (key-deterministic routing sends a retry to the same shard; commit
     dedup runs inside the cross-shard barrier, which is exclusive). *)
  sessions : (int, sess_entry) Hashtbl.t array;
  sess_clocks : int ref array;
  c_dedup : int ref array;  (* per-shard "server.dedup_hits" counters *)
  sid_counter : int Atomic.t;  (* next fresh session id *)
  conns : conn list array;  (* entry i owned by shard domain i *)
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
  t0 : float;  (* server start, Unix seconds *)
  mutable stopped : bool;
}

let wall_ns t = (Unix.gettimeofday () -. t.t0) *. 1e9

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

let simple ?(payload = P.Unit) conn id status =
  Buffer.add_string conn.out
    (encode_reply { P.id; status; queue_ns = 0.0; cause = P.no_cause; payload })

(* Hand the reply to a request counted in [outstanding] to its owner,
   from domain [on]: the owner buffers it, anyone else sends it home. *)
let deliver t ~on conn frame =
  if on = conn.owner then begin
    Buffer.add_string conn.out frame;
    conn.outstanding <- conn.outstanding - 1
  end
  else ignore (Bqueue.push_unbounded t.queues.(conn.owner) (Reply (conn, frame)))

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
   reply was already delivered). Must run on the owning shard domain, or
   inside a barrier. *)
let dedup_check t shard ~sid ~seq =
  match Hashtbl.find_opt t.sessions.(shard) sid with
  | Some e when seq <= e.last_seq ->
      t.c_dedup.(shard) := !(t.c_dedup.(shard)) + 1;
      Some (if seq = e.last_seq then P.status_of_code e.last_status else P.Ok)
  | _ -> None

(* Record the applied (sid, seq, status) in the shard's table, evicting
   the stalest session once over capacity. *)
let touch_session t shard ~sid ~seq ~status_code =
  let tbl = t.sessions.(shard) in
  let clock = t.sess_clocks.(shard) in
  incr clock;
  match Hashtbl.find_opt tbl sid with
  | Some e ->
      e.last_seq <- seq;
      e.last_status <- status_code;
      e.stamp <- !clock
  | None ->
      if Hashtbl.length tbl >= sess_cap then begin
        let victim =
          Hashtbl.fold
            (fun vsid e acc ->
              match acc with
              | Some (_, st) when st <= e.stamp -> acc
              | _ -> Some (vsid, e.stamp))
            tbl None
        in
        match victim with
        | Some (vsid, _) -> Hashtbl.remove tbl vsid
        | None -> ()
      end;
      Hashtbl.replace tbl sid
        { last_seq = seq; last_status = status_code; stamp = !clock }

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
  let queue_ns = Float.max 0.0 (wall_ns t -. dec_ns) in
  Obs.Stall.record t.ledgers.(shard) Obs.Stall.Net_queue ~start_ns:dec_ns
    ~dur_ns:queue_ns;
  encode_reply
    (match Option.bind sess (fun (sid, seq) -> dedup_check t shard ~sid ~seq) with
    | Some status ->
        { P.id; status; queue_ns; cause = P.no_cause; payload = P.Unit }
    | None ->
        let stalls = Nvm.Region.stalls region in
        let s0 = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
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
              ~status:(P.status_code status) sop;
            touch_session t shard ~sid ~seq ~status_code:(P.status_code status)
        | _ -> ());
        let s1 =
          Float.max (Nvm.Stats.sim_ns (Nvm.Region.stats region)) (s0 +. 1.0)
        in
        (* Stalls admitted before [a0] ended by [s0]: only the ones
           admitted since can overlap this op. *)
        let cause =
          Obs.Stall.dominant_cause (Obs.Stall.since stalls ~admitted:a0) ~t0:s0 ~t1:s1
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
          | Adopt conn -> t.conns.(i) <- conn :: t.conns.(i))
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
            (Incll.Session.Commit { txn_id });
          touch_session t (home sid) ~sid ~seq ~status_code:(P.status_code P.Ok)
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
        Buffer.add_string conn.out (exec_op t i ~dec_ns req)
      end
      else begin
        conn.outstanding <- conn.outstanding + 1;
        if not (Bqueue.try_push t.queues.(shard) (Op (conn, dec_ns, req)))
        then begin
          conn.outstanding <- conn.outstanding - 1;
          simple conn id P.Busy
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
        if draining then simple conn id P.Shutting_down
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
          simple ~payload:(P.Value (string_of_int sid)) conn id P.Ok
        end

(* ------------------------------------------------------ connection I/O *)

(* A connection is not read while more than this many reply bytes wait
   for its peer: a slow reader cannot grow the server or block a shard. *)
let out_cap = 1 lsl 20

(* One non-blocking write of the buffered replies; the unwritten tail
   stays buffered. A dead peer's replies are dropped. *)
let flush conn =
  let n = Buffer.length conn.out in
  if n > 0 then
    match
      restart_eintr (fun () ->
          Unix.single_write_substring conn.fd (Buffer.contents conn.out) 0 n)
    with
    | k ->
        let rest = Buffer.sub conn.out k (n - k) in
        Buffer.clear conn.out;
        Buffer.add_string conn.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ ->
        Buffer.clear conn.out;
        conn.reading <- false

(* One non-blocking read, serving every complete frame in it; [false]
   when nothing was there or the peer is gone. Unframeable garbage
   cannot be resynced mid-stream: stop reading (requests in flight
   still finish). *)
let read_conn t i buf conn ~draining =
  let dec_ns = wall_ns t in
  match restart_eintr (fun () -> Unix.read conn.fd buf 0 (Bytes.length buf)) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  | 0 | (exception Unix.Unix_error _) ->
      conn.reading <- false;
      false
  | n ->
      (* A read is the inline batch. *)
      Option.iter (fun f -> f ~shard:i) t.on_dequeue;
      P.Decoder.feed conn.dec buf 0 n;
      (try
         let rec go () =
           match P.Decoder.next conn.dec with
           | None -> ()
           | Some payload ->
               handle_request t i conn ~draining ~dec_ns
                 (P.request_of_payload payload);
               go ()
         in
         go ()
       with P.Malformed _ -> conn.reading <- false);
      true

(* The drain's last pass over a connection: requests the peer had
   already delivered are served, not dropped — that is what makes the
   drain graceful. The first read serves them normally (they beat the
   stop; the connection may even have come off the backlog during the
   stop), later ones refuse a HELLO with Shutting_down. *)
let sweep t i buf conn =
  let draining = ref false in
  while
    conn.reading
    && Buffer.length conn.out <= out_cap
    && read_conn t i buf conn ~draining:!draining
  do
    draining := true;
    flush conn
  done;
  conn.reading <- false

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
            { fd; owner; dec = P.Decoder.create (); out = Buffer.create 256;
              outstanding = 0; reading = true }
          in
          if owner = 0 then t.conns.(0) <- conn :: t.conns.(0)
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

(* Shard domain [i]: one select over its job queue's wake fd and the
   connections it owns (on domain 0, also the listener). *)
let shard_loop t i =
  let q = t.queues.(i) in
  let buf = Bytes.create 65536 in
  let stopping = ref false and reported = ref false in
  let rec loop () =
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
        List.iter (fun c -> if c.reading then sweep t i buf c) t.conns.(i);
      List.iter flush t.conns.(i);
      let live, finished =
        List.partition
          (fun c -> c.reading || c.outstanding > 0 || Buffer.length c.out > 0)
          t.conns.(i)
      in
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) finished;
      t.conns.(i) <- live;
      if settled && live = [] && not !reported then begin
        reported := true;
        if Atomic.fetch_and_add t.drained 1 + 1 = Array.length t.queues then
          Array.iter Bqueue.close t.queues
      end;
      let fds keep = List.filter_map (fun c -> if keep c then Some c.fd else None) live in
      let listening, timeout =
        if i = 0 && not !stopping then listener_wanted t else (false, -1.0)
      in
      let rd = fds (fun c -> c.reading && Buffer.length c.out <= out_cap) in
      let rd = Bqueue.wake_fd q :: (if listening then t.listen_fd :: rd else rd) in
      let wr = fds (fun c -> Buffer.length c.out > 0) in
      let r, _, _ = restart_eintr (fun () -> Unix.select rd wr [] timeout) in
      if listening && List.mem t.listen_fd r then while accept_one t do () done;
      List.iter
        (fun c ->
          if List.mem c.fd r then ignore (read_conn t i buf c ~draining:false))
        live;
      loop ()
    end
  in
  loop ()

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
      ledgers =
        Array.init shards (fun i ->
            Obs.Stall.create
              ~registry:(Incll.System.metrics (Store.Sharded.shard store i))
              ());
      sessions = Array.init shards (fun _ -> Hashtbl.create 64);
      sess_clocks = Array.init shards (fun _ -> ref 0);
      c_dedup =
        Array.init shards (fun i ->
            Obs.Registry.counter
              (Incll.System.metrics (Store.Sharded.shard store i))
              "server.dedup_hits");
      sid_counter = Atomic.make 1;
      conns = Array.make shards [];
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
      t0 = Unix.gettimeofday ();
      stopped = false;
    }
  in
  (* Reseed the dedup tables from the recovery that produced each shard
     (no-op for fresh systems), and keep fresh session ids above every
     recovered one. *)
  for i = 0 to shards - 1 do
    List.iter
      (fun (sid, seq, status) ->
        Hashtbl.replace t.sessions.(i) sid
          { last_seq = seq; last_status = status; stamp = 0 };
        if sid + 1 > Atomic.get t.sid_counter then
          Atomic.set t.sid_counter (sid + 1))
      (Incll.System.recovered_sessions (Store.Sharded.shard store i))
  done;
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
