(* Tests for the crash-chaos subsystem: injection sites and plans, the
   allocator cycle guard and quarantine, the torn-restore (chimera
   epoch) regression, the oracle, and crash-during-recovery schedules. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module Torture = Chaos_runner.Torture
module Oracle = Chaos_runner.Oracle
module Shrink = Chaos_runner.Shrink

let mk_em () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 4 * 1024 * 1024;
      extlog_bytes = 64 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  (r, Epoch.Manager.create r)

(* --- sites and plans --------------------------------------------------- *)

let site_roundtrip () =
  List.iteri
    (fun i s ->
      check_int "dense index" i (Chaos.Site.index s);
      match Chaos.Site.of_string (Chaos.Site.to_string s) with
      | Some s' -> check "roundtrip" true (s = s')
      | None -> Alcotest.fail ("of_string failed for " ^ Chaos.Site.to_string s))
    Chaos.Site.all;
  check "unknown rejected" true (Chaos.Site.of_string "bogus" = None);
  check "recovery sites flagged" true
    (Chaos.Site.is_recovery Chaos.Site.Recover_extlog_replay);
  check "workload sites not flagged" true
    (not (Chaos.Site.is_recovery Chaos.Site.Sfence))

let plan_parse () =
  let plan = Chaos.Plan.parse "sfence:3,merge_limbo,recover.checkpoint:2" in
  check_int "three points" 3 (List.length plan);
  (match plan with
  | [ p1; p2; p3 ] ->
      check "p1 site" true (p1.Chaos.Plan.site = Chaos.Site.Sfence);
      check_int "p1 hit" 3 p1.Chaos.Plan.hit;
      check "p2 site" true (p2.Chaos.Plan.site = Chaos.Site.Merge_limbo);
      check_int "p2 default hit" 1 p2.Chaos.Plan.hit;
      check "p3 site" true (p3.Chaos.Plan.site = Chaos.Site.Recover_checkpoint)
  | _ -> Alcotest.fail "parse shape");
  check "bad site raises" true
    (try
       ignore (Chaos.Plan.parse "nonsense:1");
       false
     with _ -> true)

let injector_fires_at_hit () =
  Chaos.Plan.reset ();
  Chaos.Plan.arm { Chaos.Plan.site = Chaos.Site.Sfence; hit = 3 };
  Chaos.Plan.fire Chaos.Site.Sfence;
  Chaos.Plan.fire Chaos.Site.Sfence;
  Chaos.Plan.fire Chaos.Site.Merge_limbo (* other sites don't count *);
  let fired =
    try
      Chaos.Plan.fire Chaos.Site.Sfence;
      false
    with Chaos.Plan.Crash_requested p ->
      p.Chaos.Plan.site = Chaos.Site.Sfence && p.Chaos.Plan.hit = 3
  in
  check "fired on 3rd sfence hit" true fired;
  check "auto-disarmed" true (Chaos.Plan.armed () = None);
  Chaos.Plan.fire Chaos.Site.Sfence (* no longer raises *);
  check_int "injected total" 1 (Chaos.Plan.injected_total ());
  Chaos.Plan.reset ()

(* --- allocator cycle guard and quarantine ------------------------------ *)

(* Three same-class chunks pushed to limbo, then the tail's [next] bent
   back to the head: the chain walk must raise [Corrupt_chain], not hang. *)
let mk_cycled_limbo () =
  let _r, em = mk_em () in
  let da = Alloc.Durable.create em in
  let p1 = Alloc.Durable.alloc da ~size:32 in
  let p2 = Alloc.Durable.alloc da ~size:32 in
  let p3 = Alloc.Durable.alloc da ~size:32 in
  let cls = Alloc.Size_class.class_of_payload 32 in
  Alloc.Durable.dealloc da p1;
  Alloc.Durable.dealloc da p2;
  Alloc.Durable.dealloc da p3;
  check_int "limbo before cycle" 3 (Alloc.Durable.limbo_count da ~cls);
  let region = Epoch.Manager.region em in
  let c1 = Alloc.Size_class.chunk_of_payload p1 in
  let c3 = Alloc.Size_class.chunk_of_payload p3 in
  (* limbo is c3 -> c2 -> c1; close the loop c1 -> c3 *)
  Alloc.Chunk_header.write_next region ~chunk:c1 ~next:c3;
  (em, da, cls)

let cycle_guard_raises () =
  let _em, da, cls = mk_cycled_limbo () in
  let raised =
    try
      ignore (Alloc.Durable.limbo_count da ~cls);
      false
    with Alloc.Durable.Corrupt_chain { reason; _ } ->
      check_str "reason" "cycle in chain" reason;
      true
  in
  check "cycle detected" true raised;
  (* validate collects it instead of raising *)
  let report = Alloc.Durable.validate da in
  check "validate reports errors" true
    (report.Alloc.Durable.errors <> [])

(* Chains quarantined on [em]'s region so far. *)
let quarantined em =
  Obs.Registry.counter_value
    (Nvm.Region.metrics (Epoch.Manager.region em))
    "alloc.quarantined_chains"

let merge_quarantines_cycled_chain () =
  let em, da, cls = mk_cycled_limbo () in
  let q0 = quarantined em in
  (* Forget the transient tail cache so the checkpoint merge must walk
     the (cycled) chain, as it would after a crash. *)
  Alloc.Durable.forget_limbo_tails da;
  Epoch.Manager.advance em;
  check_int "one chain quarantined" 1 (quarantined em - q0);
  check_int "limbo head cleared" 0 (Alloc.Durable.limbo_count da ~cls);
  (* The allocator stays usable: quarantine leaks, it does not crash. *)
  let p = Alloc.Durable.alloc da ~size:32 in
  check "alloc still works" true (p > 0);
  check_int "no further quarantine" 1 (quarantined em - q0);
  let report = Alloc.Durable.validate da in
  check "chains valid after quarantine" true
    (report.Alloc.Durable.errors = [])

let merge_quarantines_wild_limbo_head () =
  (* A limbo head pointing past the heap gets the same head check as
     every other chain walk: the merge quarantines it instead of reading
     outside the region. *)
  let r, em = mk_em () in
  let da = Alloc.Durable.create em in
  let p = Alloc.Durable.alloc da ~size:32 in
  Alloc.Durable.dealloc da p;
  Alloc.Durable.forget_limbo_tails da;
  let cls = Alloc.Size_class.class_of_payload 32 in
  Alloc.Meta_line.set_head r
    ~line:(Nvm.Layout.alloc_class_limbo_line cls)
    (Nvm.Region.size r + 64);
  let q0 = quarantined em in
  Epoch.Manager.advance em;
  check_int "wild chain quarantined" 1 (quarantined em - q0);
  check_int "limbo head cleared" 0 (Alloc.Durable.limbo_count da ~cls)

(* --- the torn-restore (chimera epoch) regression ----------------------- *)

(* [Chunk_header.restore] writes word1 then word0. A crash persisting
   only word1 used to leave both counters equal to 0 while the decoded
   epoch was a chimera of word0's old high half and word1's new low half
   — a committed-looking header still carrying the failed [next]. The
   fix bumps the counter on restore, so a torn restore must now read as
   a counter mismatch. *)
let torn_restore_is_visible () =
  let r, _em = mk_em () in
  let chunk = 3 * 1024 * 1024 in
  Alloc.Chunk_header.init r ~chunk ~epoch:5 ~cls:3;
  Nvm.Region.crash_persist_all r (* header durable, ctr = 0 on both words *);
  Alloc.Chunk_header.restore r ~chunk ~marker_epoch:7;
  (* Adversarial crash: persist exactly the first pending store of every
     dirty line — for the header line that is word1 alone. *)
  Nvm.Region.crash_with r ~choose:(fun ~line:_ ~nwrites:_ -> 1);
  check "torn restore reads as mismatch" true
    (Alloc.Chunk_header.read_epoch r ~chunk < 0);
  (* Re-running restore (what recovery does on a mismatch) converges. *)
  Alloc.Chunk_header.restore r ~chunk ~marker_epoch:7;
  Nvm.Region.crash_persist_all r;
  check_int "restore idempotent, epoch restamped" 7
    (Alloc.Chunk_header.read_epoch r ~chunk)

(* --- oracle ------------------------------------------------------------ *)

let oracle_commit_boundaries () =
  let o = Oracle.create () in
  Oracle.mark_epoch o ~shard:0 ~epoch:10;
  Oracle.record o ~shard:0 (Oracle.Put { key = "a"; value = "1" });
  Oracle.record o ~shard:0 (Oracle.Put { key = "b"; value = "2" });
  Oracle.mark_epoch o ~shard:0 ~epoch:11;
  Oracle.record o ~shard:0 (Oracle.Remove { key = "a" });
  (* Crash while epoch 11 is running: ops recorded after its start are
     rolled back. *)
  check_int "rollback to epoch start" 2 (Oracle.boundary_at o ~shard:0 ~crashed_epoch:11);
  (* Crash in an unobserved epoch (advanced mid-op): everything counts. *)
  check_int "unobserved epoch keeps all" 3
    (Oracle.boundary_at o ~shard:0 ~crashed_epoch:12);
  Oracle.compact o ~boundary:(fun _ -> 2) ~committed:(fun _ -> false);
  let tbl = Oracle.replay o in
  check_int "replay size" 2 (Hashtbl.length tbl);
  check "a survives" true (Hashtbl.find_opt tbl "a" = Some "1");
  let ok =
    Oracle.check o ~get:(fun k -> Hashtbl.find_opt tbl k) ~cardinal:2
  in
  check "check accepts replay" true (ok = Ok 2)

(* Shard-aware compaction with transactions: shard 1 rolls back past a
   committed transaction's writes, which must be redone; an uncommitted
   transaction's writes must vanish from every shard. *)
let oracle_txn_compaction () =
  let o = Oracle.create () in
  Oracle.mark_epoch o ~shard:0 ~epoch:5;
  Oracle.mark_epoch o ~shard:1 ~epoch:5;
  Oracle.record o ~shard:0 (Oracle.Put { key = "a"; value = "1" });
  Oracle.mark_epoch o ~shard:1 ~epoch:6;
  (* txn 1 (committed) spans both shards; only shard 1 rolls it back. *)
  Oracle.record o ~txn:1 ~shard:0 (Oracle.Put { key = "b"; value = "t1" });
  Oracle.record o ~txn:1 ~shard:1 (Oracle.Put { key = "c"; value = "t1" });
  (* txn 2 (uncommitted) also spans both shards. *)
  Oracle.record o ~txn:2 ~shard:0 (Oracle.Put { key = "a"; value = "t2" });
  Oracle.record o ~txn:2 ~shard:1 (Oracle.Put { key = "d"; value = "t2" });
  (* plain op past shard 1's boundary: rolled back *)
  Oracle.record o ~shard:1 (Oracle.Put { key = "e"; value = "gone" });
  (* Shard 0 crashed in an unobserved epoch (keeps everything up to its
     boundary = length); shard 1 rolls back to epoch 6's start (1 op). *)
  let boundary = function 0 -> 4 | _ -> 1 in
  Oracle.compact o ~boundary ~committed:(fun id -> id = 1);
  let tbl = Oracle.replay o in
  check "a: txn2 write on shard 0 dropped despite boundary" true
    (Hashtbl.find_opt tbl "a" = Some "1");
  check "b: committed txn kept on shard 0" true
    (Hashtbl.find_opt tbl "b" = Some "t1");
  check "c: committed txn redone past shard 1 boundary" true
    (Hashtbl.find_opt tbl "c" = Some "t1");
  check "d: uncommitted txn dropped on shard 1" true
    (Hashtbl.find_opt tbl "d" = None);
  check "e: plain op past boundary dropped" true
    (Hashtbl.find_opt tbl "e" = None)

(* --- torture runs with injection schedules ----------------------------- *)

let short_run ?(ops = 2_500) schedule =
  Torture.run
    {
      Torture.default with
      Torture.ops;
      seed = 11;
      crash_period = 0 (* deterministic: only scheduled crashes *);
      schedule = Chaos.Plan.parse schedule;
    }

let outcome_ok label (out : Torture.outcome) =
  (match out.Torture.failure with
  | Some f -> Alcotest.fail (label ^ ": " ^ Torture.failure_to_string f)
  | None -> ());
  check (label ^ " ok") true out.Torture.ok;
  check_int (label ^ " quarantined") 0 out.Torture.quarantined

let injected_at out site =
  match List.assoc_opt site out.Torture.injected with Some n -> n | None -> 0

(* Crash inside recovery at each phase boundary: the second recovery
   must converge to an oracle-accepted state. *)
let crash_during_recovery site () =
  let out = short_run (Printf.sprintf "epoch_advance:1,%s:1" site) in
  outcome_ok site out;
  check_int (site ^ " injected") 1 (injected_at out site);
  check (site ^ " recovered") true (out.Torture.recoveries >= 1);
  check (site ^ " both crashes happened") true (out.Torture.crashes >= 2);
  check_int (site ^ " schedule drained") 0 out.Torture.schedule_left

let workload_sites_recover () =
  let out =
    short_run "sfence:100,extlog_append:5,merge_limbo:1,post_checkpoint:1"
  in
  outcome_ok "workload sites" out;
  check_int "all points fired" 0 out.Torture.schedule_left;
  check_int "four injected" 4
    (List.fold_left (fun a (_, n) -> a + n) 0 out.Torture.injected)

let chained_recovery_crashes () =
  (* Three consecutive crashes inside the same recovery cascade. *)
  let out =
    short_run
      "merge_limbo:1,recover.epoch_open:1,recover.extlog_replay:1,recover.checkpoint:1"
  in
  outcome_ok "chained recovery" out;
  check_int "schedule drained" 0 out.Torture.schedule_left;
  check "injected all four" true
    (List.fold_left (fun a (_, n) -> a + n) 0 out.Torture.injected = 4)

(* --- shrinker / repro JSON --------------------------------------------- *)

let repro_json_roundtrip () =
  let cfg =
    {
      Torture.default with
      Torture.ops = 123;
      seed = 42;
      schedule = Chaos.Plan.parse "sfence:9,recover.image_scan:1,net.drop:4";
    }
  in
  let out =
    {
      Torture.ok = false;
      ops_run = 120;
      crashes = 2;
      injected = [ ("sfence", 1) ];
      schedule_left = 1;
      recoveries = 2;
      verified = 99;
      txns_committed = 0;
      txns_in_doubt = 0;
      quarantined = 0;
      failure =
        Some
          { Torture.op_index = 120; site = Some "sfence"; detail = "boom" };
    }
  in
  let j = Shrink.repro_to_json cfg out in
  let cfg' = Shrink.config_of_json (Obs.Json.of_string (Obs.Json.to_string j)) in
  check_int "seed" cfg.Torture.seed cfg'.Torture.seed;
  check_int "ops" cfg.Torture.ops cfg'.Torture.ops;
  check_int "schedule" 3 (List.length cfg'.Torture.schedule);
  check "schedule points" true
    (List.map Chaos.Plan.point_to_string cfg'.Torture.schedule
    = [ "sfence:9"; "recover.image_scan:1"; "net.drop:4" ]);
  check "no seed rejected" true
    (try
       ignore (Shrink.config_of_json (Obs.Json.of_string "{}"));
       false
     with Failure _ -> true)

let tests =
  ( "chaos",
    [
      Alcotest.test_case "site roundtrip" `Quick site_roundtrip;
      Alcotest.test_case "plan parse" `Quick plan_parse;
      Alcotest.test_case "injector fires at hit" `Quick injector_fires_at_hit;
      Alcotest.test_case "cycle guard raises" `Quick cycle_guard_raises;
      Alcotest.test_case "merge quarantines cycled chain" `Quick
        merge_quarantines_cycled_chain;
      Alcotest.test_case "merge quarantines wild limbo head" `Quick
        merge_quarantines_wild_limbo_head;
      Alcotest.test_case "torn restore is visible" `Quick torn_restore_is_visible;
      Alcotest.test_case "oracle commit boundaries" `Quick
        oracle_commit_boundaries;
      Alcotest.test_case "oracle txn compaction" `Quick oracle_txn_compaction;
      Alcotest.test_case "crash during recover.epoch_open" `Quick
        (crash_during_recovery "recover.epoch_open");
      Alcotest.test_case "crash during recover.extlog_replay" `Quick
        (crash_during_recovery "recover.extlog_replay");
      Alcotest.test_case "crash during recover.alloc_chains" `Quick
        (crash_during_recovery "recover.alloc_chains");
      Alcotest.test_case "crash during recover.checkpoint" `Quick
        (crash_during_recovery "recover.checkpoint");
      Alcotest.test_case "workload sites recover" `Quick workload_sites_recover;
      Alcotest.test_case "chained recovery crashes" `Quick
        chained_recovery_crashes;
      Alcotest.test_case "repro json roundtrip" `Quick repro_json_roundtrip;
    ] )
