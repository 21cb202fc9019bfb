(* The fault-tolerance layer (DESIGN.md §17): the session dedup record
   codec, net.* chaos plan points, client deadlines, stamped-replay
   dedup in the engine (single-key ops and whole TXN frames), the
   System's bounded session table and its rebuild during recovery, the
   client-side frame limit on a write set, and the retrying session
   driving ops through a fault-injecting proxy. *)

module Sys_ = Incll.System
module P = Wire.Proto
module C = Wire.Client
module S = Wire.Session
module E = Server.Engine
module NP = Chaos_net.Netproxy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_cfg =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 512 * 1024;
      };
  }

(* --- session dedup record codec ----------------------------------------- *)

let codec_roundtrip () =
  let module L = Incll.Session in
  List.iter
    (fun (seq, status, op) ->
      match L.decode (L.encode ~seq ~status op) with
      | Some (seq', status', op') ->
          check_int "seq" seq seq';
          check_int "status" status status';
          check "op" true (op = op')
      | None -> Alcotest.fail "well-formed record rejected")
    [
      (1, 0, L.Put { key = "k"; value = "v" });
      (0xffff, 1, L.Put { key = ""; value = String.make 300 'x' });
      (7, 0, L.Remove { key = "gone" });
      (123456789, 2, L.Commit { txn_id = 42 });
    ];
  (* Malformed bytes are dropped, not fatal: recovery must survive a
     writer bug. *)
  List.iter
    (fun s -> check "malformed dropped" true (Incll.Session.decode s = None))
    [ ""; "x"; String.make 3 '\xff' ]

(* --- net.* chaos plan points -------------------------------------------- *)

let net_points_parse () =
  List.iter
    (fun site ->
      let p = { Chaos.Plan.site; hit = 5 } in
      let s = Chaos.Plan.point_to_string p in
      check ("roundtrip " ^ s) true (Chaos.Plan.point_of_string s = p);
      check "not a recovery site" false (Chaos.Site.is_recovery site))
    [
      Chaos.Site.Net_drop;
      Chaos.Site.Net_delay;
      Chaos.Site.Net_dup;
      Chaos.Site.Net_trunc;
      Chaos.Site.Net_sever;
    ];
  (* The proxy refuses non-net sites: a crash plan is not a frame plan. *)
  match
    NP.start
      ~sched_up:[ { Chaos.Plan.site = Chaos.Site.Sfence; hit = 1 } ]
      ~listen:(C.Tcp ("127.0.0.1", 0))
      ~upstream:(C.Tcp ("127.0.0.1", 1))
      ()
  with
  | t ->
      NP.stop t;
      Alcotest.fail "crash site accepted in a net schedule"
  | exception Invalid_argument _ -> ()

(* --- session-table rebuild during recovery ------------------------------ *)

(* A session record makes its op redoable: the epoch that held the put
   is rolled back by the crash, but recovery replays the record and
   rebuilds the (sid, seq, status) table the engine dedups against. *)
let recovery_rebuilds_sessions () =
  let s = Sys_.create ~config:small_cfg Sys_.Incll in
  Sys_.put s ~key:"sk" ~value:"v1";
  Sys_.record_session s ~sid:7 ~seq:3 ~status:0
    (Incll.Session.Put { key = "sk"; value = "v1" });
  Sys_.put s ~key:"other" ~value:"x";
  Sys_.record_session s ~sid:9 ~seq:1 ~status:0
    (Incll.Session.Put { key = "other"; value = "x" });
  (* Power failure that persists every pending line write. *)
  Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> nwrites);
  let r = Sys_.recover s in
  check "acked put redone" true (Sys_.get r ~key:"sk" = Some "v1");
  check "second acked put redone" true (Sys_.get r ~key:"other" = Some "x");
  check "dedup table rebuilt" true
    (Sys_.last_session r ~sid:7 = Some (3, 0)
    && Sys_.last_session r ~sid:9 = Some (1, 0));
  check_int "largest sid held" 9 (Sys_.max_session_sid r);
  (match Sys_.last_recover_stats r with
  | Some st -> check_int "sessions_recovered" 2 st.Sys_.sessions_recovered
  | None -> Alcotest.fail "no recover stats")

(* --- the bounded session table ------------------------------------------ *)

let sess_cap = 1024

let record s sid seq =
  Sys_.record_session s ~sid ~seq ~status:0
    (Incll.Session.Put { key = "t"; value = string_of_int sid })

let held s sid = Sys_.last_session s ~sid <> None

(* A full table evicts the session recorded least recently, and only
   that one. *)
let table_evicts_stalest () =
  let s = Sys_.create ~config:small_cfg Sys_.Incll in
  for sid = 1 to sess_cap do
    record s sid 1
  done;
  (* Session 1 records again, so session 2 is now the stalest. *)
  record s 1 2;
  record s (sess_cap + 1) 1;
  check "stalest evicted" false (held s 2);
  check "refreshed session kept" true (Sys_.last_session s ~sid:1 = Some (2, 0));
  for sid = 3 to sess_cap + 1 do
    check "others kept" true (held s sid)
  done

(* Entries rebuilt by recovery are older than any recorded since, so a
   full table evicts them first. *)
let table_evicts_recovered_first () =
  let s = Sys_.create ~config:small_cfg Sys_.Incll in
  record s 1 1;
  record s 2 1;
  Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> nwrites);
  let r = Sys_.recover s in
  check "recovered held" true (held r 1 && held r 2);
  let live = List.init (sess_cap - 2) (fun i -> 1000 + i) in
  List.iter (fun sid -> record r sid 1) live;
  record r 5000 1;
  check "one recovered entry evicted" true (held r 1 <> held r 2);
  record r 5001 1;
  check "both recovered entries evicted" false (held r 1 || held r 2);
  check "live entries kept" true (List.for_all (held r) live);
  record r 5002 1;
  check "then the stalest live one" false (held r 1000);
  check "the rest kept" true (held r 1001 && held r 5000 && held r 5001)

(* Several records of one session in the crashed epoch: recovery keeps
   the newest. *)
let recovery_keeps_newest_record () =
  let s = Sys_.create ~config:small_cfg Sys_.Incll in
  List.iter
    (fun (seq, status) ->
      Sys_.record_session s ~sid:5 ~seq ~status
        (Incll.Session.Remove { key = "r" }))
    [ (1, 0); (2, 0); (3, 1) ];
  record s 6 4;
  Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> nwrites);
  let r = Sys_.recover s in
  check "newest record of 5" true (Sys_.last_session r ~sid:5 = Some (3, 1));
  check "newest record of 6" true (Sys_.last_session r ~sid:6 = Some (4, 0));
  check "no other session" true (Sys_.last_session r ~sid:7 = None)

(* --- the running engine ------------------------------------------------- *)

let with_server = Test_wire.with_server

let dedup_hits srv =
  let c = C.connect (E.addr srv) in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      match
        Obs.Json.find_path
          (Obs.Json.of_string (C.stats c P.Stats_json))
          [ "counters"; "server.dedup_hits" ]
      with
      | Some (Obs.Json.Int n) -> n
      | _ -> 0)

(* A per-call deadline turns a wedged server into a typed Timeout
   instead of a hang. *)
let client_deadline_timeout () =
  let gate = Atomic.make false in
  let on_dequeue ~shard:_ =
    while not (Atomic.get gate) do
      Unix.sleepf 0.001
    done
  in
  with_server ~shards:1 ~batch:1 ~on_dequeue (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set gate true;
          C.close c)
        (fun () ->
          match
            C.call ~deadline:(Unix.gettimeofday () +. 0.2) c (P.Put ("k", "v"))
          with
          | (_ : P.reply) -> Alcotest.fail "wedged call returned"
          | exception C.Timeout -> ()))

(* Replaying a (sid, seq) stamp answers from the record instead of
   re-applying — the second PUT under the same stamp must not clobber. *)
let stamped_replay_deduped () =
  with_server (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          let sid =
            match C.call c (P.Hello 0) with
            | { P.status = P.Ok; payload = P.Value v; _ } -> int_of_string v
            | r -> Alcotest.fail (P.status_name r.P.status)
          in
          check "sid granted" true (sid > 0);
          let r1 = C.call ~sess:(sid, 1) c (P.Put ("dk", "first")) in
          check "stamped put ok" true (r1.P.status = P.Ok);
          (* The retry: same stamp, different payload — must be a no-op
             answered with the recorded status. *)
          let r2 = C.call ~sess:(sid, 1) c (P.Put ("dk", "second")) in
          check "replay ok" true (r2.P.status = P.Ok);
          check "replay did not re-apply" true (C.get c "dk" = Some "first");
          let sid2 =
            match C.call c (P.Hello 0) with
            | { P.status = P.Ok; payload = P.Value v; _ } -> int_of_string v
            | r -> Alcotest.fail (P.status_name r.P.status)
          in
          check "fresh sids are distinct" true (sid2 <> sid);
          (* A fresh seq under the same session applies normally. *)
          let r3 = C.call ~sess:(sid, 2) c (P.Put ("dk", "third")) in
          check "next seq applies" true (r3.P.status = P.Ok);
          check "next seq visible" true (C.get c "dk" = Some "third");
          (* An older stamp is also recognised as already-done. *)
          let hits0 = dedup_hits srv in
          let r4 = C.call ~sess:(sid, 1) c (P.Put ("dk", "fourth")) in
          check "older stamp ok" true (r4.P.status = P.Ok);
          check "older stamp not applied" true (C.get c "dk" = Some "third");
          check_int "older stamp was a dedup hit" (hits0 + 1) (dedup_hits srv));
      check "dedup hits counted" true (dedup_hits srv >= 2))

(* A duplicated TXN frame, as a retry or a duplicating network sends it:
   the whole write set travels in one stamped request, so the copy is
   answered from the commit record on the session's home shard instead
   of committing again. *)
let duplicated_txn_frame_commits_once () =
  with_server (fun srv ->
      let c = C.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          let sid =
            match C.call c (P.Hello 0) with
            | { P.status = P.Ok; payload = P.Value v; _ } -> int_of_string v
            | r -> Alcotest.fail (P.status_name r.P.status)
          in
          let txn =
            P.Txn_commit [ P.Tw_put ("ta", "1"); P.Tw_put ("tb", "2") ]
          in
          let hits0 = dedup_hits srv in
          let ids = List.init 2 (fun _ -> C.send ~sess:(sid, 1) c txn) in
          List.iter
            (fun _ ->
              let r = C.recv c in
              check "reply to one of the copies" true (List.mem r.P.id ids);
              check "both copies answered OK" true (r.P.status = P.Ok))
            ids;
          check_int "the copy was a dedup hit" (hits0 + 1) (dedup_hits srv);
          check "committed" true
            (C.get c "ta" = Some "1" && C.get c "tb" = Some "2");
          (* A later resend of the same stamp still does not commit again:
             it would clobber this unstamped put. *)
          C.put c "ta" "later";
          check "late resend ok" true
            ((C.call ~sess:(sid, 1) c txn).P.status = P.Ok);
          check "late resend not applied" true (C.get c "ta" = Some "later");
          check_int "late resend was a dedup hit" (hits0 + 2) (dedup_hits srv)))

(* A write set must fit one frame: the session refuses an oversized one
   before sending anything, and stays usable. *)
let oversized_write_set_refused () =
  with_server (fun srv ->
      let s = S.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () -> S.close s)
        (fun () ->
          let value = String.make 60_000 'v' in
          let keys = List.init 20 (Printf.sprintf "big%02d") in
          S.txn_begin s;
          List.iter (fun k -> S.txn_put s k value) keys;
          (match S.txn_commit s with
          | () -> Alcotest.fail "oversized write set committed"
          | exception P.Malformed _ -> ());
          check "transaction closed" false (S.txn_active s);
          List.iter
            (fun k -> check "nothing applied" true (S.get s k = None))
            keys;
          S.put s "after" "1";
          S.txn_begin s;
          S.txn_put s "small" "2";
          S.txn_commit s;
          check "session usable" true
            (S.get s "after" = Some "1" && S.get s "small" = Some "2");
          check_int "no retry spent" 0 (S.retries s)))

(* The retrying session through a proxy that drops reply frames and
   severs the connection: every op lands exactly once, the session
   reports its retries/reconnects, and the server's dedup absorbed the
   resends of already-applied ops. *)
let session_rides_through_faults () =
  with_server (fun srv ->
      (* Downstream frame 1 is the HELLO reply; drop two op replies and
         later cut the connection between frames. *)
      let sched_down =
        [
          { Chaos.Plan.site = Chaos.Site.Net_drop; hit = 3 };
          { Chaos.Plan.site = Chaos.Site.Net_sever; hit = 9 };
          { Chaos.Plan.site = Chaos.Site.Net_drop; hit = 14 };
        ]
      in
      let proxy =
        NP.start ~sched_down
          ~listen:(C.Unix_sock (Filename.temp_file "incll_np" ".sock"))
          ~upstream:(E.addr srv) ()
      in
      Fun.protect
        ~finally:(fun () -> NP.stop proxy)
        (fun () ->
          let cfg =
            {
              S.default_config with
              S.attempt_timeout = 0.3;
              backoff_base = 0.01;
              backoff_max = 0.05;
            }
          in
          let s = S.connect ~config:cfg (NP.addr proxy) in
          Fun.protect
            ~finally:(fun () -> S.close s)
            (fun () ->
              for i = 0 to 19 do
                S.put s (Printf.sprintf "f%02d" i) (string_of_int i)
              done;
              (* A buffered txn commits as one stamped frame through
                 the same faults. *)
              S.txn_begin s;
              S.txn_put s "t0" "a";
              S.txn_put s "t1" "b";
              check "ryw" true (S.txn_get s "t0" = Some "a");
              S.txn_commit s;
              check "faults actually injected" true (NP.injected_total proxy >= 2);
              check "retries reported" true (S.retries s >= 1);
              check "reconnects reported" true (S.reconnects s >= 1);
              check "backoff accounted" true (S.backoff_ns s > 0.0)));
      (* Exactly-once: read back directly, bypassing the proxy. *)
      let c = C.connect (E.addr srv) in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          for i = 0 to 19 do
            check "op landed once" true
              (C.get c (Printf.sprintf "f%02d" i) = Some (string_of_int i))
          done;
          check "txn committed" true
            (C.get c "t0" = Some "a" && C.get c "t1" = Some "b"));
      check "dropped replies were dedup hits" true (dedup_hits srv >= 1))

let tests =
  ( "session",
    [
      Alcotest.test_case "dedup record codec round trip" `Quick codec_roundtrip;
      Alcotest.test_case "net.* plan points parse" `Quick net_points_parse;
      Alcotest.test_case "recovery rebuilds session tables" `Quick
        recovery_rebuilds_sessions;
      Alcotest.test_case "full session table evicts the stalest" `Quick
        table_evicts_stalest;
      Alcotest.test_case "recovered sessions are evicted first" `Quick
        table_evicts_recovered_first;
      Alcotest.test_case "recovery keeps each session's newest record"
        `Quick recovery_keeps_newest_record;
      Alcotest.test_case "client deadline -> Timeout" `Quick
        client_deadline_timeout;
      Alcotest.test_case "stamped replay answered from the record" `Quick
        stamped_replay_deduped;
      Alcotest.test_case "duplicated TXN frame commits once" `Quick
        duplicated_txn_frame_commits_once;
      Alcotest.test_case "oversized write set refused before sending" `Quick
        oversized_write_set_refused;
      Alcotest.test_case "session rides through frame faults" `Quick
        session_rides_through_faults;
    ] )
