(* The serving layer: wire codec round trips and hostile-input rejection,
   the bounded queue's backpressure and wake contract, and the running
   server — pipelined out-of-order replies, BUSY under a wedged shard,
   graceful drain, STATS plumbing, hundreds of connections on a fixed
   set of domains, refusal of descriptors select cannot watch,
   read-your-commit on a pipelined connection, the differential oracle
   proving a seeded YCSB stream lands the same state over the wire as in
   process, fairness of the read-first shard loop to connections it does
   not read first, and the stall cause each reply carries. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
module P = Wire.Proto
module C = Wire.Client
module E = Server.Engine
module S = Store.Sharded
module O = Workload.Opstream
module Y = Workload.Ycsb
module R = Bench_harness.Runner

(* --- codec -------------------------------------------------------------- *)

let arbitrary_op =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_bound 24) in
  let txn_write =
    frequency
      [
        (2, map2 (fun k v -> P.Tw_put (k, v)) str str);
        (1, map (fun k -> P.Tw_remove k) str);
      ]
  in
  frequency
    [
      (4, map (fun k -> P.Get k) str);
      (4, map2 (fun k v -> P.Put (k, v)) str str);
      (2, map (fun k -> P.Delete k) str);
      (2, map2 (fun k n -> P.Scan (k, n)) str (int_bound 1000));
      (3, map (fun ws -> P.Txn_commit ws) (list_size (int_bound 6) txn_write));
      (1, return (P.Stats P.Stats_json));
      (1, return (P.Stats P.Stats_prom));
    ]

let arbitrary_reply =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_bound 24) in
  let status =
    oneofl
      [ P.Ok; P.Not_found; P.Busy; P.Bad_request; P.Shutting_down ]
  in
  let payload =
    frequency
      [
        (2, return P.Unit);
        (2, map (fun v -> P.Value v) str);
        (2, map (fun l -> P.Pairs l) (list_size (int_bound 20) (pair str str)));
        (1, map (fun t -> P.Text t) str);
      ]
  in
  map2
    (fun (id, status) (queue_ns, cause, payload) ->
      { P.id; status; queue_ns; cause; payload })
    (pair (int_bound 0xffffff) status)
    (triple
       (map float_of_int (int_bound 1_000_000_000))
       (oneofl [ 0; 3; 7; P.no_cause ])
       payload)

(* Frames survive the round trip even when the byte stream is rechunked
   arbitrarily — the decoder owns reassembly. *)
let frame_round_trip_property =
  QCheck.Test.make ~name:"request/reply frames round-trip through the decoder"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple (list_size (int_bound 8) arbitrary_op) arbitrary_reply
           (int_range 1 13)))
    (fun (ops, reply, chunk) ->
      let reqs = List.mapi (fun i op -> { P.id = i; op; sess = None }) ops in
      let stream =
        String.concat ""
          (List.map P.frame_of_request reqs @ [ P.frame_of_reply reply ])
      in
      let dec = P.Decoder.create () in
      let payloads = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        P.Decoder.feed dec (Bytes.of_string (String.sub stream !i n)) 0 n;
        let rec drain () =
          match P.Decoder.next dec with
          | Some p ->
              payloads := p :: !payloads;
              drain ()
          | None -> ()
        in
        drain ();
        i := !i + n
      done;
      match List.rev !payloads with
      | [] -> false
      | ps ->
          let rps, last = (List.filteri (fun i _ -> i < List.length reqs) ps,
                           List.nth ps (List.length ps - 1)) in
          List.for_all2 (fun req p -> P.request_of_payload p = req) reqs rps
          && P.reply_of_payload last = reply
          && P.Decoder.buffered dec = 0)

let truncated_frames_rejected () =
  let frame = P.frame_of_request { P.id = 7; op = P.Put ("k", "v"); sess = None } in
  let payload = String.sub frame 4 (String.length frame - 4) in
  (* Every proper prefix of the payload must be rejected, not misparsed. *)
  for n = 0 to String.length payload - 1 do
    match P.request_of_payload (String.sub payload 0 n) with
    | _ -> Alcotest.failf "truncated payload of %d bytes parsed" n
    | exception P.Malformed _ -> ()
  done;
  (* And trailing garbage is rejected too. *)
  (match P.request_of_payload (payload ^ "x") with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception P.Malformed _ -> ());
  (* A truncated *frame* just waits for more bytes. *)
  let dec = P.Decoder.create () in
  let b = Bytes.of_string (String.sub frame 0 (String.length frame - 1)) in
  P.Decoder.feed dec b 0 (Bytes.length b);
  check "incomplete frame yields nothing" true (P.Decoder.next dec = None);
  check_int "bytes held" (String.length frame - 1) (P.Decoder.buffered dec)

(* 50k reply frames fed in one piece decode in order and leave nothing
   behind; the cursor-based decoder moves no bytes per frame, so this
   stays linear (the old per-frame compaction made it quadratic). Then a
   split frame across two feeds still reassembles after the drain. *)
let bulk_feed_decodes_in_order () =
  let n = 50_000 in
  let reply id =
    { P.id; status = P.Ok; queue_ns = 0.0; cause = P.no_cause;
      payload = P.Value (string_of_int id) }
  in
  let stream = String.concat "" (List.init n (fun id -> P.frame_of_reply (reply id))) in
  let dec = P.Decoder.create () in
  P.Decoder.feed dec (Bytes.of_string stream) 0 (String.length stream);
  for id = 0 to n - 1 do
    match P.Decoder.next dec with
    | Some p ->
        if P.reply_of_payload p <> reply id then
          Alcotest.failf "frame %d decoded out of order" id
    | None -> Alcotest.failf "frame %d missing" id
  done;
  check "drained" true (P.Decoder.next dec = None);
  check_int "buffered = 0" 0 (P.Decoder.buffered dec);
  let f = Bytes.of_string (P.frame_of_reply (reply 7)) in
  P.Decoder.feed dec f 0 3;
  check "partial header waits" true (P.Decoder.next dec = None);
  P.Decoder.feed dec f 3 (Bytes.length f - 3);
  check "split frame reassembles" true
    (Option.map P.reply_of_payload (P.Decoder.next dec) = Some (reply 7));
  check_int "buffered = 0 again" 0 (P.Decoder.buffered dec)

let oversized_frame_rejected () =
  let dec = P.Decoder.create () in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (P.max_frame + 1));
  P.Decoder.feed dec header 0 4;
  (match P.Decoder.next dec with
  | _ -> Alcotest.fail "oversized declared length accepted"
  | exception P.Malformed _ -> ());
  (* Encoding side refuses to build one in the first place. *)
  match P.frame_of_reply
          { P.id = 0; status = P.Ok; queue_ns = 0.0; cause = P.no_cause;
            payload = P.Text (String.make (P.max_frame + 1) 'x') }
  with
  | _ -> Alcotest.fail "oversized reply encoded"
  | exception P.Malformed _ -> ()

(* Hostile bytes: the decoder either waits for more input, rejects with
   Malformed, or yields payloads that themselves parse or reject — it
   never raises anything else and never buffers past cap + chunk. *)
let garbage_fuzz () =
  let rng = Util.Rng.create ~seed:0xbad in
  for _ = 1 to 200 do
    let cap = 512 in
    let dec = P.Decoder.create ~max_frame:cap () in
    let alive = ref true in
    for _ = 1 to 50 do
      if !alive then begin
        let n = 1 + Util.Rng.int rng 64 in
        let b = Bytes.init n (fun _ -> Char.chr (Util.Rng.int rng 256)) in
        P.Decoder.feed dec b 0 n;
        try
          let rec drain () =
            match P.Decoder.next dec with
            | Some p -> (
                (match P.request_of_payload p with
                | (_ : P.request) -> ()
                | exception P.Malformed _ -> ());
                drain ())
            | None -> ()
          in
          drain ()
        with P.Malformed _ -> alive := false
      end
    done;
    check "decoder never hoards garbage" true (P.Decoder.buffered dec <= cap + 4 + 64)
  done

(* A replayed byte stream — the same frame fed twice, as a retrying
   client or a duplicating network will produce — decodes as two
   identical, independently parseable payloads. Dedup is the server's
   job; the codec must not conflate or reject the copies. *)
let duplicated_frames_decode () =
  let req = { P.id = 3; op = P.Put ("dup", "v"); sess = Some (9, 4) } in
  let frame = P.frame_of_request req in
  let dec = P.Decoder.create () in
  let b = Bytes.of_string (frame ^ frame) in
  P.Decoder.feed dec b 0 (Bytes.length b);
  (match (P.Decoder.next dec, P.Decoder.next dec) with
  | Some p1, Some p2 ->
      check "both copies decode" true
        (P.request_of_payload p1 = req && P.request_of_payload p2 = req)
  | _ -> Alcotest.fail "duplicated frame lost");
  check "nothing buffered" true (P.Decoder.next dec = None);
  (* Interleaved replay: old frame re-fed mid-stream between fresh
     ones. *)
  let req2 = { P.id = 4; op = P.Get "dup"; sess = None } in
  let stream = P.frame_of_request req2 ^ frame ^ P.frame_of_request req2 in
  let b = Bytes.of_string stream in
  P.Decoder.feed dec b 0 (Bytes.length b);
  let got =
    List.init 3 (fun _ ->
        match P.Decoder.next dec with
        | Some p -> P.request_of_payload p
        | None -> Alcotest.fail "frame missing")
  in
  check "replayed frame in sequence" true (got = [ req2; req; req2 ])

let addr_parsing () =
  check "unix" true
    (C.addr_of_string "unix:/tmp/x.sock" = C.Unix_sock "/tmp/x.sock");
  check "tcp" true
    (C.addr_of_string "tcp:127.0.0.1:8080" = C.Tcp ("127.0.0.1", 8080));
  List.iter
    (fun s ->
      match C.addr_of_string s with
      | _ -> Alcotest.failf "accepted %s" s
      | exception Invalid_argument _ -> ())
    [ "bogus"; "tcp:nohost"; "tcp::123"; "tcp:host:notaport"; "http:x:1" ]

(* --- bounded queue ------------------------------------------------------- *)

let bqueue_contract () =
  let module Q = Server.Bqueue in
  let q = Q.create ~capacity:2 in
  let awake () =
    match Unix.select [ Q.wake_fd q ] [] [] 0.0 with
    | [], _, _ -> false
    | _ -> true
  in
  check "idle queue sleeps" false (awake ());
  check "push 1" true (Q.try_push q 1);
  check "push wakes the consumer" true (awake ());
  check "push 2" true (Q.try_push q 2);
  check "push 3 bounces" false (Q.try_push q 3);
  check "unbounded push passes the cap" true (Q.push_unbounded q 4);
  check "fifo batch" true (Q.pop_batch q ~max:2 = [ 1; 2 ]);
  check "awake while non-empty" true (awake ());
  check "remainder" true (Q.pop_batch q ~max:8 = [ 4 ]);
  check "drained queue sleeps" false (awake ());
  check "empty pop" true (Q.pop_batch q ~max:8 = []);
  Q.kick q;
  check "kick wakes" true (awake ());
  check "kick enqueues nothing" true (Q.pop_batch q ~max:8 = []);
  check "pop after kick sleeps" false (awake ());
  Q.close q;
  check "push after close" false (Q.try_push q 5);
  check "pop after close" true (Q.pop_batch q ~max:8 = []);
  check "closed queue stays awake" true (awake () && Q.is_closed q);
  Q.release q;
  (* A consumer blocked on the wake fd is released by close. *)
  let q2 = Q.create ~capacity:1 in
  let d =
    Domain.spawn (fun () ->
        let r, _, _ = Unix.select [ Q.wake_fd q2 ] [] [] 10.0 in
        (r <> [], Q.is_closed q2, Q.pop_batch q2 ~max:1))
  in
  Unix.sleepf 0.02;
  Q.close q2;
  check "blocked consumer released by close" true
    (Domain.join d = (true, true, []));
  Q.release q2

(* --- the running server -------------------------------------------------- *)

let server_config ~nkeys ~shards =
  R.config_for ~epoch_len_ns:1.0e6 ~nkeys_per_shard:((nkeys / shards) + 64) ()

let with_server ?queue_capacity ?batch ?on_dequeue ?(shards = 2)
    ?(nkeys = 2_000) f =
  let addr = C.Unix_sock (Filename.temp_file "incll_srv" ".sock") in
  let srv =
    E.start ?queue_capacity ?batch ?on_dequeue
      ~config:(server_config ~nkeys ~shards)
      ~variant:Incll.System.Incll ~shards addr
  in
  Fun.protect ~finally:(fun () -> E.stop srv) (fun () -> f srv)

let basic_ops_over_unix_socket () =
  with_server (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          check "absent" true (C.get c "alpha" = None);
          C.put c "alpha" "1";
          C.put c "beta" "2";
          C.put c "gamma" "3";
          check "present" true (C.get c "beta" = Some "2");
          C.put c "beta" "2'";
          check "updated" true (C.get c "beta" = Some "2'");
          check "delete hit" true (C.delete c "gamma");
          check "delete miss" false (C.delete c "gamma");
          check "scan" true
            (C.scan c ~start:"" ~n:10
            = [ ("alpha", "1"); ("beta", "2'") ]);
          (* Replies attribute queueing: a lone sync caller has ~no queue,
             but the field is present and sane. *)
          (match C.call c (P.Get "alpha") with
          | { P.status = P.Ok; queue_ns; _ } ->
              check "queue_ns non-negative" true (queue_ns >= 0.0)
          | r -> Alcotest.fail (P.status_name r.P.status))))

let basic_ops_over_tcp () =
  let srv =
    E.start
      ~config:(server_config ~nkeys:100 ~shards:1)
      ~variant:Incll.System.Incll ~shards:1
      (C.Tcp ("127.0.0.1", 0))
  in
  Fun.protect ~finally:(fun () -> E.stop srv) (fun () ->
      (match E.addr srv with
      | C.Tcp (_, p) -> check "ephemeral port resolved" true (p > 0)
      | _ -> Alcotest.fail "expected tcp addr");
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          C.put c "k" "v";
          check "tcp get" true (C.get c "k" = Some "v")))

(* A transaction is one TXN_COMMIT frame carrying its write set, applied
   in order and atomically; the connection keeps no state around it. *)
let transactions_over_the_wire () =
  with_server (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          let commit writes = (C.call c (P.Txn_commit writes)).P.status in
          C.put c "a" "0";
          C.put c "gone" "x";
          check "commit ok" true
            (commit
               [ P.Tw_put ("a", "1"); P.Tw_put ("b", "2"); P.Tw_remove "gone";
                 P.Tw_remove "never_there" ]
            = P.Ok);
          check "committed a" true (C.get c "a" = Some "1");
          check "committed b" true (C.get c "b" = Some "2");
          check "committed remove" true (C.get c "gone" = None);
          (* Writes apply in order: the last write to a key wins. *)
          check "ordered commit ok" true
            (commit [ P.Tw_put ("a", "2"); P.Tw_remove "a"; P.Tw_put ("a", "3") ]
            = P.Ok);
          check "last write wins" true (C.get c "a" = Some "3");
          check "empty commit ok" true (commit [] = P.Ok);
          check "empty commit changes nothing" true
            (C.scan c ~start:"" ~n:10 = [ ("a", "3"); ("b", "2") ])));
  (* The opcodes of the retired BEGIN/WRITE/ABORT conversation are
     unknown: a frame carrying one is malformed. *)
  List.iter
    (fun opcode ->
      let payload =
        "\000\000\000\001" ^ String.make 1 (Char.chr opcode) ^ "\000"
      in
      match P.request_of_payload payload with
      | _ -> Alcotest.failf "retired opcode %d accepted" opcode
      | exception P.Malformed _ -> ())
    [ 5; 6; 8 ];
  match P.status_of_code 4 with
  | _ -> Alcotest.fail "retired status code 4 accepted"
  | exception P.Malformed _ -> ()

let pipelined_out_of_order () =
  with_server ~shards:4 (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          let n = 400 in
          let key i = Printf.sprintf "key%04d" i in
          let ids = Hashtbl.create n in
          for i = 0 to n - 1 do
            Hashtbl.replace ids (C.send c (P.Put (key i, string_of_int i))) i
          done;
          check_int "all in flight" n (C.pending c);
          for _ = 1 to n do
            let r = C.recv c in
            match Hashtbl.find_opt ids r.P.id with
            | None -> Alcotest.failf "unknown reply id %d" r.P.id
            | Some _ ->
                Hashtbl.remove ids r.P.id;
                check "put ok" true (r.P.status = P.Ok)
          done;
          check_int "every id answered exactly once" 0 (Hashtbl.length ids);
          check_int "nothing pending" 0 (C.pending c);
          (* Mixing a sync call among pipelined sends exercises the
             out-of-order stash. *)
          let pending_ids =
            List.init 32 (fun i -> C.send c (P.Get (key i)))
          in
          check "sync call overtakes the pipeline" true
            (C.get c (key 7) = Some "7");
          List.iter
            (fun _ ->
              let r = C.recv c in
              check "pipelined get ok" true (r.P.status = P.Ok))
            pending_ids))

(* [n] distinct keys that route to [shard] of [srv]'s store (routing
   splits on the leading bytes, so those vary). *)
let keys_on srv ~shard n =
  let rec go i acc k =
    if k = n then List.rev acc
    else
      let key = Printf.sprintf "%c%03d" (Char.chr (i * 37 land 0xff)) i in
      if S.shard_of_key (E.store srv) key = shard then go (i + 1) (key :: acc) (k + 1)
      else go (i + 1) acc k
  in
  go 0 [] 0

let busy_backpressure () =
  let gate = Atomic.make false in
  let on_dequeue ~shard =
    while shard = 1 && not (Atomic.get gate) do
      Unix.sleepf 0.001
    done
  in
  with_server ~shards:2 ~queue_capacity:2 ~batch:1 ~on_dequeue (fun srv ->
      (* The first connection is owned by shard 0, and every key routes
         to shard 1: each request crosses shard 1's bounded queue. *)
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          let n = 10 in
          List.iter
            (fun k -> ignore (C.send c (P.Put (k, "v"))))
            (keys_on srv ~shard:1 n);
          (* Shard 1 is wedged on the gate with one request in hand and
             at most two queued: at least n-3 must bounce immediately. *)
          let busy = ref 0 and ok = ref 0 in
          while !busy + !ok < n do
            (match (C.recv c).P.status with
            | P.Busy -> incr busy
            | P.Ok -> incr ok
            | s -> Alcotest.fail (P.status_name s));
            (* Once every bounce is in, release the shard. *)
            if !busy + !ok + 3 >= n && not (Atomic.get gate) then
              Atomic.set gate true
          done;
          Atomic.set gate true;
          check "backpressure engaged" true (!busy >= n - 3);
          check_int "every request answered" n (!busy + !ok);
          (* BUSY means not applied: accepted puts are visible, bounced
             ones are not. *)
          let applied = C.scan c ~start:"" ~n:100 in
          check_int "accepted = applied" !ok (List.length applied)))

let graceful_drain_flushes_everything () =
  let addr = C.Unix_sock (Filename.temp_file "incll_drain" ".sock") in
  let srv =
    E.start
      ~config:(server_config ~nkeys:200 ~shards:2)
      ~variant:Incll.System.Incll ~shards:2 addr
  in
  let c = C.connect (E.addr srv) in
  let n = 50 in
  for i = 0 to n - 1 do
    ignore (C.send c (P.Put (Printf.sprintf "d%02d" i, "v")))
  done;
  (* Stop with all n requests in flight: the drain must finish them and
     flush every reply before the server lets go of the connection. *)
  E.stop srv;
  let got = ref 0 in
  (try
     while !got < n do
       let r = C.recv c in
       check "drained op ok" true (r.P.status = P.Ok);
       incr got
     done
   with End_of_file -> ());
  check_int "every in-flight reply flushed" n !got;
  C.close c;
  (* And the work really landed in the store. *)
  check_int "puts applied before shutdown" n (S.cardinal (E.store srv))

(* Regression: a signal handler firing mid-drain (a supervisor's second
   SIGTERM, say) interrupts blocking syscalls with EINTR — the drain
   must resume them, not abandon in-flight replies. *)
let drain_survives_signals () =
  let prev = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 prev)
    (fun () ->
      let addr = C.Unix_sock (Filename.temp_file "incll_sigdrain" ".sock") in
      let srv =
        E.start
          ~config:(server_config ~nkeys:200 ~shards:2)
          ~variant:Incll.System.Incll ~shards:2 addr
      in
      let c = C.connect (E.addr srv) in
      let n = 100 in
      for i = 0 to n - 1 do
        ignore (C.send c (P.Put (Printf.sprintf "sd%03d" i, "v")))
      done;
      let pepper = Atomic.make true in
      let pid = Unix.getpid () in
      let d =
        Domain.spawn (fun () ->
            while Atomic.get pepper do
              Unix.kill pid Sys.sigusr1;
              Unix.sleepf 0.002
            done)
      in
      E.stop srv;
      Atomic.set pepper false;
      Domain.join d;
      let got = ref 0 in
      (try
         while !got < n do
           let r = C.recv c in
           check "drained under signals" true (r.P.status = P.Ok);
           incr got
         done
       with End_of_file -> ());
      check_int "every reply flushed despite EINTR" n !got;
      C.close c;
      check_int "all puts applied" n (S.cardinal (E.store srv)))

let stats_over_the_wire () =
  with_server (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          for i = 0 to 99 do
            C.put c (Printf.sprintf "s%03d" i) "v"
          done;
          let json = Obs.Json.of_string (C.stats c P.Stats_json) in
          (* The queueing delay the server measured surfaces as an
             ordinary stall histogram in the merged registry. *)
          (match
             Obs.Json.find_path json
               [ "histograms"; "stall.net_queue_ns"; "count" ]
           with
          | Some n ->
              check "net_queue stall per routed request" true
                (match Obs.Json.to_float_opt n with
                | Some f -> f >= 100.0
                | None -> false)
          | None -> Alcotest.fail "stall.net_queue_ns missing from STATS");
          let prom = C.stats c P.Stats_prom in
          check "prometheus exposition" true
            (let sub = "incll_stall_net_queue_ns" in
             let rec find i =
               i + String.length sub <= String.length prom
               && (String.sub prom i (String.length sub) = sub || find (i + 1))
             in
             find 0);
          (* Every event counter of the store rides along: the tree's,
             the allocator's and InCLL's per-cause fallbacks, with the
             same value in both expositions (no op ran in between). *)
          let prom_lines = String.split_on_char '\n' prom in
          List.iter
            (fun (name, at_least) ->
              let v =
                match Obs.Json.find_path json [ "counters"; name ] with
                | Some n -> (
                    match Obs.Json.to_float_opt n with
                    | Some f -> int_of_float f
                    | None -> Alcotest.fail (name ^ " not a number"))
                | None -> Alcotest.fail (name ^ " missing from STATS")
              in
              check (name ^ " counted") true (v >= at_least);
              let line =
                "incll_"
                ^ String.map (function '.' -> '_' | ch -> ch) name
                ^ " " ^ string_of_int v
              in
              check (name ^ " in prometheus") true (List.mem line prom_lines))
            [
              ("tree.leaf_splits", 1);
              ("alloc.allocs", 100);
              ("incll.fallback.update", 0);
            ]))

(* --- connection scaling ------------------------------------------------- *)

(* The server runs a fixed set of domains whatever the connection count:
   200 sessions open at once (well past OCaml's 128-domain cap had each
   connection its own domains) each do HELLO, a stamped PUT and a GET,
   and the server still accepts afterwards. *)
let many_sessions () =
  with_server (fun srv ->
      let module Ss = Wire.Session in
      let n = 200 in
      let sessions = Array.init n (fun _ -> Ss.connect (E.addr srv)) in
      Fun.protect
        ~finally:(fun () -> Array.iter Ss.close sessions)
        (fun () ->
          Array.iteri
            (fun i s -> Ss.put s (Printf.sprintf "m%03d" i) (string_of_int i))
            sessions;
          Array.iteri
            (fun i s ->
              check "own put visible" true
                (Ss.get s (Printf.sprintf "m%03d" i) = Some (string_of_int i)))
            sessions;
          let fresh = Ss.connect (E.addr srv) in
          Fun.protect ~finally:(fun () -> Ss.close fresh) (fun () ->
              check "fresh session served" true
                (Ss.get fresh "m007" = Some "7"))))

(* Read-your-commit on one pipelined connection: the GET right behind a
   TXN frame sees the commit, whether it runs inline on the connection's
   own shard or queued on the other one. *)
let pipelined_commit_then_get () =
  with_server ~shards:2 (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          List.iter
            (fun shard ->
              let k = List.hd (keys_on srv ~shard 1) in
              C.put c k "old";
              let ids =
                List.map (C.send c)
                  [ P.Txn_commit [ P.Tw_put (k, "new") ]; P.Get k ]
              in
              let replies = List.init (List.length ids) (fun _ -> C.recv c) in
              List.iter
                (fun r -> check "pipelined ok" true (r.P.status = P.Ok))
                replies;
              let get = List.find (fun r -> r.P.id = List.nth ids 1) replies in
              check
                (Printf.sprintf "GET on shard %d sees the commit" shard)
                true
                (get.P.payload = P.Value "new"))
            [ 0; 1 ]))

let raw_connect srv =
  match E.addr srv with
  | C.Unix_sock path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | C.Tcp _ -> Alcotest.fail "expected a unix socket"

(* One blocking GET on a raw descriptor (no select: these descriptors
   run past FD_SETSIZE); [None] on EOF. *)
let raw_get fd key =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let frame = P.frame_of_request { P.id = 1; op = P.Get key; sess = None } in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  let dec = P.Decoder.create () and b = Bytes.create 4096 in
  let rec go () =
    match P.Decoder.next dec with
    | Some payload -> Some (P.reply_of_payload payload)
    | None ->
        let n = Unix.read fd b 0 (Bytes.length b) in
        if n = 0 then None
        else begin
          P.Decoder.feed dec b 0 n;
          go ()
        end
  in
  go ()

(* A connection whose server-side descriptor select cannot watch
   (>= FD_SETSIZE, 1024) is closed at accept and counted; the server
   keeps serving and accepting. Client and server share this process,
   so ~1050 connections take the server's descriptors well past 1024. *)
let refuses_unselectable_fds () =
  with_server (fun srv ->
      let ctl = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close ctl) (fun () ->
          C.put ctl "probe" "v";
          let fds = Array.init 1050 (fun _ -> raw_connect srv) in
          let last = fds.(Array.length fds - 1) in
          (* Descriptors closed early are forgotten here: their numbers
             get reused. *)
          let still_open = Hashtbl.create 1050 in
          Array.iter (fun fd -> Hashtbl.replace still_open fd ()) fds;
          let close_once fd =
            Hashtbl.remove still_open fd;
            Unix.close fd
          in
          Fun.protect
            ~finally:(fun () -> Hashtbl.iter (fun fd () -> Unix.close fd) still_open)
            (fun () ->
              (* Accepts run in connect order: once the last connection
                 is refused, every earlier one has been decided. *)
              Unix.setsockopt_float last Unix.SO_RCVTIMEO 10.0;
              check "last connection refused with EOF" true
                (Unix.read last (Bytes.create 1) 0 1 = 0);
              let refused fd =
                Unix.set_nonblock fd;
                let eof =
                  match Unix.read fd (Bytes.create 1) 0 1 with
                  | n -> n = 0
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
                in
                Unix.clear_nonblock fd;
                eof
              in
              let live = List.filter (fun fd -> not (refused fd)) (Array.to_list fds) in
              let nrefused = Array.length fds - List.length live in
              let counted =
                match
                  Obs.Json.find_path
                    (Obs.Json.of_string (C.stats ctl P.Stats_json))
                    [ "counters"; "server.conn_refused" ]
                with
                | Some (Obs.Json.Int n) -> n
                | _ -> -1
              in
              check "some connections refused" true (nrefused > 0);
              check "some connections live" true (List.length live > 100);
              check_int "every refusal counted" nrefused counted;
              List.iter
                (fun fd ->
                  check "earlier connection still answers" true
                    (match raw_get fd "probe" with
                    | Some { P.status = P.Ok; payload = P.Value "v"; _ } -> true
                    | _ -> false))
                live;
              (* Freeing descriptors lets a new connection in again. *)
              List.iteri (fun i fd -> if i < 100 then close_once fd) live;
              let rec retry k =
                let fd = raw_connect srv in
                let r = raw_get fd "probe" in
                Unix.close fd;
                match r with
                | Some { P.status = P.Ok; _ } -> true
                | _ when k > 0 ->
                    Unix.sleepf 0.02;
                    retry (k - 1)
                | _ -> false
              in
              check "new connection served after closes" true (retry 100))))

(* --- differential oracle ------------------------------------------------- *)

(* The same seeded stream (with deletes mixed in) through the wire and
   through the in-process facade must land byte-identical final states.
   Gets/scans ride along so reordering bugs would have room to bite. *)
let oracle_stream spec ~seed ~n =
  Array.mapi
    (fun i op ->
      match op with
      | Y.Put (k, _) when i mod 37 = 17 -> `Del k
      | Y.Put (k, v) -> `Put (k, v)
      | Y.Get k -> `Get k
      | Y.Scan (k, n) -> `Scan (k, n))
    (O.generate spec ~seed ~n)

let remote_full_state c =
  let rec page start acc =
    match C.scan c ~start ~n:137 with
    | [] -> List.rev acc
    | pairs ->
        let last, _ = List.nth pairs (List.length pairs - 1) in
        page (last ^ "\x00") (List.rev_append pairs acc)
  in
  page "" []

let oracle_one ~seed ~shards =
  let nkeys = 400 and n = 1_500 in
  let spec = { Y.mix = Y.A; dist = Y.Zipfian; nkeys } in
  let ops = oracle_stream spec ~seed ~n in
  with_server ~shards ~nkeys (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect ~finally:(fun () -> C.close c) (fun () ->
          (* Wire side, pipelined with a window below the queue bound so
             BUSY (which would drop an op) cannot occur. *)
          let window = 128 in
          Array.iter
            (fun op ->
              if C.pending c >= window then
                check "no BUSY in oracle run" true
                  ((C.recv c).P.status <> P.Busy);
              ignore
                (C.send c
                   (match op with
                   | `Put (k, v) -> P.Put (k, v)
                   | `Del k -> P.Delete k
                   | `Get k -> P.Get k
                   | `Scan (k, n) -> P.Scan (k, n))))
            ops;
          while C.pending c > 0 do
            check "no BUSY in oracle tail" true ((C.recv c).P.status <> P.Busy)
          done;
          (* One multi-key transaction on top, same on both sides. *)
          check "oracle txn ok" true
            ((C.call c
                (P.Txn_commit
                   [ P.Tw_put ("txn_a", "across"); P.Tw_put ("txn_b", "shards") ]))
               .P.status = P.Ok);
          (* In-process side: same stream through the sequential facade. *)
          let local =
            S.create ~config:(server_config ~nkeys ~shards)
              Incll.System.Incll ~shards
          in
          Array.iter
            (fun op ->
              match op with
              | `Put (k, v) -> S.put local ~key:k ~value:v
              | `Del k -> ignore (S.remove local ~key:k)
              | `Get k -> ignore (S.get local ~key:k)
              | `Scan (k, n) -> ignore (S.scan local ~start:k ~n))
            ops;
          S.txn_begin local;
          S.txn_put local ~key:"txn_a" ~value:"across";
          S.txn_put local ~key:"txn_b" ~value:"shards";
          S.txn_commit local;
          (* Compare complete states, paginated over the wire. *)
          let remote = remote_full_state c in
          let expected = S.scan local ~start:"" ~n:(S.cardinal local + 1) in
          check_int
            (Printf.sprintf "seed %d / %d shards: cardinality" seed shards)
            (List.length expected) (List.length remote);
          List.iter2
            (fun (k, v) (k', v') ->
              check_str "oracle key" k k';
              check_str "oracle value" v v')
            expected remote))

let differential_oracle () =
  List.iter
    (fun seed -> List.iter (fun shards -> oracle_one ~seed ~shards) [ 1; 4 ])
    [ 3; 5; 7; 11 ]

(* Utime + stime of [pid] in seconds (/proc/<pid>/stat fields 14 and
   15, in USER_HZ = 100 ticks). *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let rest = String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string (f.(11)) /. 100.0 +. float_of_string (f.(12)) /. 100.0

(* Out of descriptors, accept fails with EMFILE while the listener stays
   readable. A server limited to 32 descriptors and holding more
   connections than it can accept must idle (not spin on the listener),
   and serve the connections that waited once others close. *)
let emfile_does_not_spin () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/incll_server.exe"
  in
  let path = Filename.temp_file "incll_emfile" ".sock" in
  Sys.remove path;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "ulimit -n 32; exec \"$0\" --listen \"unix:$1\" --shards 1";
         exe; path |]
      Unix.stdin null null
  in
  Unix.close null;
  let fds = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close !fds;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let rec wait k =
        if not (Sys.file_exists path) && k > 0 then begin
          Unix.sleepf 0.05;
          wait (k - 1)
        end
      in
      wait 200;
      let connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fds := fd :: !fds;
        fd
      in
      (* More than 32 connections: the later ones wait in the backlog. *)
      let conns = List.init 40 (fun _ -> connect ()) in
      Unix.sleepf 0.3;
      let c0 = cpu_s pid in
      Unix.sleepf 1.0;
      let idle = cpu_s pid -. c0 in
      check (Printf.sprintf "idle second costs %.2f s CPU, < 0.1 s" idle) true
        (idle < 0.1);
      (* Closing the first half frees more descriptors than connections
         wait, so the last connection gets accepted and served. *)
      List.iteri
        (fun i fd ->
          if i < 20 then begin
            fds := List.filter (fun f -> f <> fd) !fds;
            Unix.close fd
          end)
        conns;
      let last = List.nth conns 39 in
      check "waiting connection served after closes" true
        (match raw_get last "k" with
        | Some { P.status = P.Not_found; _ } -> true
        | _ -> false))

(* --- read-first fairness ---------------------------------------------------- *)

(* A connection whose next request is always already there is read
   first on every pass and never needs select. While a writer keeps one
   connection's socket backlogged with GETs and a reader drains its
   replies, a second connection's GET (routed through the hot shard's
   queue at 2 shards) and a new connection's HELLO (accepted by the hot
   shard's domain) must still be answered: the zero-timeout poll every
   few passes. Then the writer
   keeps at most [window] GETs unanswered, and a stop must drain both
   connections with every request answered. (Unbounded, a backlog's
   replies could outgrow what the drain buffers for a peer.) *)
let read_first_fairness shards () =
  let addr = C.Unix_sock (Filename.temp_file "incll_fair" ".sock") in
  let srv =
    E.start
      ~config:(server_config ~nkeys:2_000 ~shards)
      ~variant:Incll.System.Incll ~shards addr
  in
  (* Accepts go round-robin: [a] is shard 0's, whose domain also
     accepts, and [b] the last shard's; [a]'s key is shard 0's, so its
     GETs run inline. *)
  let a = raw_connect srv in
  let b = C.connect (E.addr srv) in
  let hot = List.hd (keys_on srv ~shard:0 1) in
  C.put b hot "v";
  let window = 512 in
  let batch =
    String.concat ""
      (List.init 256 (fun _ ->
           P.frame_of_request { P.id = 1; op = P.Get hot; sess = None }))
  in
  let bounded = Atomic.make false and streaming = Atomic.make true in
  let answered = Atomic.make 0 and sent = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        try
          while Atomic.get streaming do
            if
              Atomic.get bounded
              && Atomic.get sent - Atomic.get answered >= window
            then Unix.sleepf 1e-4
            else begin
              C.write_all a batch;
              ignore (Atomic.fetch_and_add sent 256)
            end
          done
        with Unix.Unix_error _ -> ())
  in
  let reader =
    Domain.spawn (fun () ->
        let dec = P.Decoder.create () and buf = Bytes.create 65536 in
        let bad = ref 0 in
        let rec go () =
          match Unix.read a buf 0 (Bytes.length buf) with
          | 0 | (exception Unix.Unix_error _) -> ()
          | n ->
              P.Decoder.feed dec buf 0 n;
              let rec each () =
                match P.Decoder.next dec with
                | None -> ()
                | Some payload ->
                    (match P.reply_of_payload payload with
                    | { P.status = P.Ok; payload = P.Value "v"; _ } -> ()
                    | _ -> incr bad);
                    Atomic.incr answered;
                    each ()
              in
              each ();
              go ()
        in
        go ();
        !bad)
  in
  let bad = ref None in
  (* Stop writing, drain the server, collect the stream's replies. *)
  let finish () =
    if !bad = None then begin
      Atomic.set streaming false;
      Domain.join writer;
      E.stop srv;
      bad := Some (Domain.join reader);
      Unix.close a
    end
  in
  Fun.protect
    ~finally:(fun () ->
      finish ();
      C.close b)
    (fun () ->
      let wait_until f =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (f ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        f ()
      in
      let deadline () = Unix.gettimeofday () +. 10.0 in
      check "stream under way" true
        (wait_until (fun () -> Atomic.get answered > 2_000));
      check "second connection's GET answered" true
        (match C.call ~deadline:(deadline ()) b (P.Get hot) with
        | { P.status = P.Ok; payload = P.Value "v"; _ } -> true
        | _ -> false);
      let fresh = C.connect (E.addr srv) in
      check "new connection's HELLO answered" true
        (match C.call ~deadline:(deadline ()) fresh (P.Hello 0) with
        | { P.status = P.Ok; payload = P.Value sid; _ } -> int_of_string sid > 0
        | _ -> false);
      C.close fresh;
      let n = Atomic.get answered in
      check "stream still flowing" true
        (wait_until (fun () -> Atomic.get answered > n));
      Atomic.set bounded true;
      check "stream within its window" true
        (wait_until (fun () -> Atomic.get sent - Atomic.get answered <= window));
      (* Stop with the stream's last GETs and 20 PUTs from the second
         connection in flight: the drain must answer all of them. *)
      let extra = 20 in
      for i = 0 to extra - 1 do
        ignore (C.send b (P.Put (Printf.sprintf "b%02d" i, "w")))
      done;
      finish ();
      check_int "every streamed GET answered" (Atomic.get sent)
        (Atomic.get answered);
      check_int "every streamed GET read its value" 0 (Option.get !bad);
      let got = ref 0 in
      (try
         while !got < extra do
           check "drained PUT ok" true
             ((C.recv ~deadline:(deadline ()) b).P.status = P.Ok);
           incr got
         done
       with End_of_file -> ());
      check_int "every second-connection request answered" extra !got;
      check_int "every put applied" (1 + extra) (S.cardinal (E.store srv)))

(* --- reply causes -------------------------------------------------------- *)

(* A reply names the dominant stall of its op's execution, and a
   stall-free op (the ring admitted nothing during it) carries
   [no_cause]. *)
let reply_causes () =
  let cause_of r = Obs.Stall.cause_of_index r.P.cause in
  let serve ~epoch_len_ns f =
    let srv =
      E.start
        ~config:
          (R.config_for ~epoch_len_ns ~nkeys_per_shard:100 ())
        ~variant:Incll.System.Incll ~shards:1
        (C.Unix_sock (Filename.temp_file "incll_cause" ".sock"))
    in
    Fun.protect ~finally:(fun () -> E.stop srv) (fun () ->
        let c = C.connect (E.addr srv) in
        Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c))
  in
  (* No checkpoint falls inside the test: a GET and a DELETE miss stall
     on nothing, and the same DELETE stamped fences its dedup record, a
     txn_fence stall. *)
  serve ~epoch_len_ns:1e15 (fun c ->
      C.put c "k" "v1";
      let get = C.call c (P.Get "k") in
      check "GET ok" true (get.P.status = P.Ok);
      check_int "stall-free GET carries no_cause" P.no_cause get.P.cause;
      check_int "stall-free DELETE miss carries no_cause" P.no_cause
        (C.call c (P.Delete "absent")).P.cause;
      let sid =
        match C.call c (P.Hello 0) with
        | { P.payload = P.Value sid; _ } -> int_of_string sid
        | _ -> Alcotest.fail "HELLO refused"
      in
      let stamped = C.call ~sess:(sid, 1) c (P.Delete "absent") in
      check "fenced DELETE blames its dedup record" true
        (cause_of stamped = Some Obs.Stall.Txn_fence));
  (* A 1 ns epoch: every op ends in a checkpoint. *)
  serve ~epoch_len_ns:1.0 (fun c ->
      C.put c "k" "v";
      check "GET across a checkpoint blames it" true
        (cause_of (C.call c (P.Get "k")) = Some Obs.Stall.Epoch_advance))

(* [recv_opt] never blocks: [None] while the server holds the request
   (its shard domain is wedged), the reply once it is in the socket. *)
let recv_opt_polls () =
  let gate = Atomic.make false in
  let on_dequeue ~shard:_ =
    while not (Atomic.get gate) do
      Unix.sleepf 0.001
    done
  in
  with_server ~shards:1 ~on_dequeue (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate true;
          C.close c)
        (fun () ->
          let id = C.send c (P.Put ("ro", "1")) in
          check "no reply yet" true (C.recv_opt c = None);
          check_int "still pending" 1 (C.pending c);
          Atomic.set gate true;
          let give_up = Unix.gettimeofday () +. 10.0 in
          let rec poll () =
            match C.recv_opt c with
            | Some r -> r
            | None ->
                if Unix.gettimeofday () > give_up then
                  Alcotest.fail "reply never arrived";
                Unix.sleepf 0.001;
                poll ()
          in
          let r = poll () in
          check "the reply" true (r.P.id = id && r.P.status = P.Ok);
          check_int "nothing pending" 0 (C.pending c)))

let tests =
  ( "wire",
    [
      QCheck_alcotest.to_alcotest frame_round_trip_property;
      Alcotest.test_case "truncated frames rejected" `Quick
        truncated_frames_rejected;
      Alcotest.test_case "oversized frame rejected" `Quick
        oversized_frame_rejected;
      Alcotest.test_case "garbage-header fuzz" `Quick garbage_fuzz;
      Alcotest.test_case "duplicated frames decode independently" `Quick
        duplicated_frames_decode;
      Alcotest.test_case "address parsing" `Quick addr_parsing;
      Alcotest.test_case "bounded queue contract" `Quick bqueue_contract;
      Alcotest.test_case "basic ops over a unix socket" `Quick
        basic_ops_over_unix_socket;
      Alcotest.test_case "basic ops over tcp" `Quick basic_ops_over_tcp;
      Alcotest.test_case "transactions over the wire" `Quick
        transactions_over_the_wire;
      Alcotest.test_case "pipelined out-of-order replies" `Quick
        pipelined_out_of_order;
      Alcotest.test_case "BUSY backpressure, bounded queues" `Quick
        busy_backpressure;
      Alcotest.test_case "graceful drain flushes everything" `Quick
        graceful_drain_flushes_everything;
      Alcotest.test_case "drain survives signal delivery" `Quick
        drain_survives_signals;
      Alcotest.test_case "STATS carries net_queue" `Quick stats_over_the_wire;
      Alcotest.test_case "200 concurrent sessions, fixed domains" `Quick
        many_sessions;
      Alcotest.test_case "pipelined commit then GET" `Quick
        pipelined_commit_then_get;
      Alcotest.test_case "idles while out of descriptors" `Quick
        emfile_does_not_spin;
      Alcotest.test_case "refuses fds select cannot watch" `Quick
        refuses_unselectable_fds;
      Alcotest.test_case "differential oracle: wire = in-process" `Slow
        differential_oracle;
      Alcotest.test_case "50k frames from one feed decode in order" `Quick
        bulk_feed_decodes_in_order;
      Alcotest.test_case "read-first fairness, 1 shard" `Quick
        (read_first_fairness 1);
      Alcotest.test_case "read-first fairness, 2 shards" `Quick
        (read_first_fairness 2);
      Alcotest.test_case "reply names its stall cause" `Quick reply_causes;
      Alcotest.test_case "recv_opt polls without blocking" `Quick
        recv_opt_polls;
    ] )
