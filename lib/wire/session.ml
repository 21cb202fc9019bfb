(* Fault-tolerant client session: a retrying, reconnecting wrapper over
   [Client] that makes every logical op exactly-once.

   The session negotiates an id with a HELLO frame and stamps every
   mutation with a (sid, seq) pair; the server records each applied
   mutation durably under that pair before acking, so a retry that
   straddles a server crash is answered from the record instead of
   re-applied. That makes the retry policy here safe by construction:
   anything ambiguous (timeout, connection loss) is simply resent with
   the same seq after reconnecting and re-presenting the session id.

   Transactions are buffered client-side: txn_begin/txn_put/txn_remove
   touch no socket, and txn_commit sends the whole write set as one
   stamped TXN_COMMIT frame, retried like any other mutation. *)

exception Timed_out
exception Retries_exhausted

type config = {
  op_deadline : float;  (* overall wall-clock budget per logical op, s *)
  attempt_timeout : float;  (* per-attempt reply timeout, s *)
  retry_budget : int;  (* attempts per logical op beyond the first *)
  backoff_base : float;  (* first backoff, s; doubles per retry *)
  backoff_max : float;  (* backoff cap, s *)
  seed : int;  (* jitter stream *)
}

let default_config =
  {
    op_deadline = 30.0;
    attempt_timeout = 5.0;
    retry_budget = 100;
    backoff_base = 0.005;
    backoff_max = 0.2;
    seed = 0x5e55_10;
  }

type txn_buf = { mutable writes : Proto.txn_write list (* newest first *) }

type t = {
  addr : Client.addr;
  cfg : config;
  mutable conn : Client.t option;
  mutable sid : int;
  mutable seq : int;  (* last seqno consumed *)
  mutable rng : int;
  mutable txn : txn_buf option;
  (* robustness telemetry *)
  mutable retries : int;
  mutable reconnects : int;
  mutable backoff_ns : float;
}

let retries t = t.retries
let reconnects t = t.reconnects
let backoff_ns t = t.backoff_ns
let session_id t = t.sid

let now () = Unix.gettimeofday ()

(* Private jitter stream (no dependence on the global RNG): a xorshift
   step folded to a float in [0, 1). *)
let rand_float t =
  let x = t.rng in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  t.rng <- x;
  float_of_int ((x lsr 20) land 0xffffff) /. 16777216.0

let sleepf s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Exponential backoff with jitter in [0.5x, 1.5x], clamped to both the
   per-op deadline and the configured cap. *)
let backoff t ~tries ~deadline =
  let d =
    min t.cfg.backoff_max
      (t.cfg.backoff_base *. (2.0 ** float_of_int (min tries 16)))
  in
  let d = d *. (0.5 +. rand_float t) in
  let d = min d (deadline -. now ()) in
  if d > 0.0 then begin
    sleepf d;
    t.backoff_ns <- t.backoff_ns +. (d *. 1e9)
  end

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
      Client.close c;
      t.conn <- None

(* One retry consumed: bump the counters, then fail the op if the budget
   or the deadline is gone. *)
let charge_retry t ~tries ~deadline =
  incr tries;
  t.retries <- t.retries + 1;
  if !tries > t.cfg.retry_budget then raise Retries_exhausted;
  if now () >= deadline then raise Timed_out

(* Establish (or re-establish) the connection and present the session id
   (0 = ask for a fresh one). Connection refused while the server is
   being restarted counts as a retry like everything else. *)
let rec ensure_conn t ~tries ~deadline =
  match t.conn with
  | Some c -> c
  | None -> (
      match
        let c = Client.connect t.addr in
        match
          Client.call ~deadline:(min deadline (now () +. t.cfg.attempt_timeout))
            c (Proto.Hello t.sid)
        with
        | { Proto.status = Proto.Ok; payload = Proto.Value granted; _ } ->
            t.sid <- int_of_string granted;
            t.conn <- Some c;
            c
        | _ ->
            Client.close c;
            failwith "Session: HELLO rejected"
        | exception e ->
            Client.close c;
            raise e
      with
      | c ->
          if t.retries > 0 || t.reconnects > 0 || t.seq > 0 then
            t.reconnects <- t.reconnects + 1;
          c
      | exception (Unix.Unix_error _ | End_of_file | Client.Timeout | Failure _)
        ->
          charge_retry t ~tries ~deadline;
          backoff t ~tries:!tries ~deadline;
          ensure_conn t ~tries ~deadline)

(* Run one request to a terminal reply: Busy and Shutting_down back off
   and retry (neither applied the op); timeout and connection loss
   reconnect and resend the same stamp (the server dedups). *)
let exec t ?seq op =
  let deadline = now () +. t.cfg.op_deadline in
  let tries = ref 0 in
  let rec go () =
    let c = ensure_conn t ~tries ~deadline in
    let sess = Option.map (fun q -> (t.sid, q)) seq in
    match
      Client.call ~deadline:(min deadline (now () +. t.cfg.attempt_timeout))
        ?sess c op
    with
    | { Proto.status = Proto.Busy; _ } ->
        charge_retry t ~tries ~deadline;
        backoff t ~tries:!tries ~deadline;
        go ()
    | { Proto.status = Proto.Shutting_down; _ } ->
        charge_retry t ~tries ~deadline;
        drop_conn t;
        backoff t ~tries:!tries ~deadline;
        go ()
    | r -> r
    | exception (Client.Timeout | End_of_file | Unix.Unix_error _) ->
        charge_retry t ~tries ~deadline;
        drop_conn t;
        backoff t ~tries:!tries ~deadline;
        go ()
  in
  go ()

let connect ?(config = default_config) addr =
  let t =
    {
      addr;
      cfg = config;
      conn = None;
      sid = 0;
      seq = 0;
      rng = config.seed lor 1;
      txn = None;
      retries = 0;
      reconnects = 0;
      backoff_ns = 0.0;
    }
  in
  let deadline = now () +. config.op_deadline in
  ignore (ensure_conn t ~tries:(ref 0) ~deadline : Client.t);
  t

let close t = drop_conn t

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let fail_status what (r : Proto.reply) =
  failwith (Printf.sprintf "Session.%s: %s" what (Proto.status_name r.status))

(* --- reads (no stamp; idempotent, retried freely) ------------------- *)

let get t k =
  match exec t (Proto.Get k) with
  | { Proto.status = Proto.Ok; payload = Proto.Value v; _ } -> Some v
  | { Proto.status = Proto.Not_found; _ } -> None
  | r -> fail_status "get" r

let scan t ~start ~n =
  match exec t (Proto.Scan (start, n)) with
  | { Proto.status = Proto.Ok; payload = Proto.Pairs l; _ } -> l
  | r -> fail_status "scan" r

let stats t fmt =
  match exec t (Proto.Stats fmt) with
  | { Proto.status = Proto.Ok; payload = Proto.Text s; _ } -> s
  | r -> fail_status "stats" r

(* --- mutations (stamped; exactly-once via server dedup) ------------- *)

let put t k v =
  match exec t ~seq:(next_seq t) (Proto.Put (k, v)) with
  | { Proto.status = Proto.Ok; _ } -> ()
  | r -> fail_status "put" r

let delete t k =
  match exec t ~seq:(next_seq t) (Proto.Delete k) with
  | { Proto.status = Proto.Ok; _ } -> true
  | { Proto.status = Proto.Not_found; _ } -> false
  | r -> fail_status "delete" r

(* --- transactions (buffered client-side; see the header comment) ----- *)

let txn_active t = Option.is_some t.txn

let txn_begin t =
  if txn_active t then failwith "Session.txn_begin: transaction active";
  t.txn <- Some { writes = [] }

let txn_exn t what =
  match t.txn with
  | Some b -> b
  | None -> failwith ("Session." ^ what ^ ": no active transaction")

let txn_put t k v =
  let b = txn_exn t "txn_put" in
  b.writes <- Proto.Tw_put (k, v) :: b.writes

let txn_remove t k =
  let b = txn_exn t "txn_remove" in
  b.writes <- Proto.Tw_remove k :: b.writes

(* Read-your-writes against the local buffer (newest first). *)
let txn_get t k =
  let b = txn_exn t "txn_get" in
  let rec find = function
    | [] -> get t k
    | Proto.Tw_put (k', v) :: _ when k' = k -> Some v
    | Proto.Tw_remove k' :: _ when k' = k -> None
    | _ :: tl -> find tl
  in
  find b.writes

let txn_abort t =
  ignore (txn_exn t "txn_abort" : txn_buf);
  t.txn <- None

(* One stamped frame carries the whole write set, so a commit retries
   like any other mutation and the server's commit dedup keeps it
   exactly-once. [Client.send] encodes before it writes: a set over
   [Proto.max_frame] raises [Proto.Malformed] with nothing sent and the
   connection intact. *)
let txn_commit t =
  let b = txn_exn t "txn_commit" in
  t.txn <- None;
  match exec t ~seq:(next_seq t) (Proto.Txn_commit (List.rev b.writes)) with
  | { Proto.status = Proto.Ok; _ } -> ()
  | r -> fail_status "txn_commit" r
