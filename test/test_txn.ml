(* Durable multi-key transactions: buffering, single-shard atomicity
   across crashes, cross-shard two-phase commit, and chaos schedules at
   each commit-protocol site (crash between PREPARE and the watermark,
   crash during recovery's in-doubt resolution). *)

module Sys_ = Incll.System
module St = Store.Sharded

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option string))

let config =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 256 * 1024;
      };
    (* Long epochs: only the txn machinery's own forced advances create
       checkpoints, so everything after the explicit advance_epochs call
       below is rolled back by a crash unless the txn protocol saves it. *)
    epoch_len_ns = 64.0e6;
  }

let mk ~shards = St.create ~config Sys_.Incll ~shards

(* A key routed to shard [s]: walk scrambled candidates until one lands
   there (uniform spread, so a handful of probes suffice). *)
let key_in_shard store s =
  let rec go i =
    if i > 10_000 then failwith "no key found for shard"
    else
      let k = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i)) in
      if St.shard_of_key store k = s then k else go (i + 1)
  in
  go (17 * (s + 1))

let crash_recover ?(seed = 42) store =
  St.crash store (Util.Rng.create ~seed);
  (* Recovery may itself be crashed by an armed recover.* point; it must
     converge when re-entered, like a real reboot loop. *)
  let rec loop attempts =
    if attempts > 4 then failwith "recovery did not converge"
    else
      match St.recover store with
      | (_ : (string * float) list) -> ()
      | exception Chaos.Plan.Crash_requested _ ->
          St.crash store (Util.Rng.create ~seed:(seed + attempts));
          loop (attempts + 1)
  in
  loop 0

(* The other recovery path: reattach the crashed shards' regions as a
   new store, as a restarted server does over its NVM images. *)
let reattach ?(seed = 42) store =
  St.crash store (Util.Rng.create ~seed);
  St.attach ~config Sys_.Incll
    (Array.init (St.nshards store) (fun i -> Sys_.region (St.shard store i)))

let recover_in_place store =
  crash_recover store;
  store

(* The next transaction must get an id above every shard's durable
   watermark, or a later in-doubt probe could report a stale commit. *)
let check_next_id_fresh store =
  let max_wm = ref 0 in
  for i = 0 to St.nshards store - 1 do
    max_wm := max !max_wm (Incll.Txn.watermark (Sys_.region (St.shard store i)))
  done;
  St.txn_begin store;
  (match St.txn_id store with
  | Some id -> check "next txn id above every watermark" true (id > !max_wm)
  | None -> Alcotest.fail "no active txn id");
  St.txn_abort store

let buffered_until_commit () =
  Chaos.Plan.reset ();
  let store = mk ~shards:1 in
  St.put store ~key:"base" ~value:"old";
  check "idle" false (St.txn_active store);
  St.txn_begin store;
  check "active" true (St.txn_active store);
  check "has id" true (St.txn_id store <> None);
  St.txn_put store ~key:"a" ~value:"1";
  St.txn_remove store ~key:"base";
  check_opt "read-your-writes" (Some "1") (St.txn_get store ~key:"a");
  check_opt "buffered remove shadows" None (St.txn_get store ~key:"base");
  check_opt "store not touched yet" None (St.get store ~key:"a");
  check_opt "store still has base" (Some "old") (St.get store ~key:"base");
  St.txn_abort store;
  check "abort closes" false (St.txn_active store);
  check_opt "abort dropped the put" None (St.get store ~key:"a");
  check_opt "abort dropped the remove" (Some "old") (St.get store ~key:"base");
  (* And an empty transaction commits without touching anything. *)
  St.txn_begin store;
  St.txn_commit store;
  check "empty commit closes" false (St.txn_active store)

let commit_survives_crash () =
  Chaos.Plan.reset ();
  let store = mk ~shards:1 in
  St.put store ~key:"victim" ~value:"doomed";
  St.advance_epochs store;
  St.txn_begin store;
  St.txn_put store ~key:"ta" ~value:"va";
  St.txn_put store ~key:"tb" ~value:"vb";
  St.txn_remove store ~key:"victim";
  St.txn_commit store;
  (* Same (crashed) epoch, outside any transaction: must roll back. *)
  St.put store ~key:"plain" ~value:"lost";
  crash_recover store;
  check_opt "txn put redone" (Some "va") (St.get store ~key:"ta");
  check_opt "txn put redone (2)" (Some "vb") (St.get store ~key:"tb");
  check_opt "txn remove redone" None (St.get store ~key:"victim");
  check_opt "plain write of crashed epoch gone" None (St.get store ~key:"plain")

let abort_survives_crash () =
  Chaos.Plan.reset ();
  let store = mk ~shards:1 in
  St.advance_epochs store;
  let wm0 = Incll.Txn.watermark (Sys_.region (St.shard store 0)) in
  St.txn_begin store;
  St.txn_put store ~key:"ghost" ~value:"never";
  St.txn_abort store;
  crash_recover store;
  check_opt "aborted write absent" None (St.get store ~key:"ghost");
  check_int "watermark untouched" wm0
    (Incll.Txn.watermark (Sys_.region (St.shard store 0)))

let cross_shard_commit ~recover () =
  Chaos.Plan.reset ();
  let shards = 4 in
  let store = mk ~shards in
  let keys = List.init shards (key_in_shard store) in
  St.advance_epochs store;
  St.txn_begin store;
  List.iter (fun k -> St.txn_put store ~key:k ~value:("v" ^ k)) keys;
  St.txn_commit store;
  let store = recover store in
  List.iter
    (fun k -> check_opt "present on every shard" (Some ("v" ^ k)) (St.get store ~key:k))
    keys;
  check_int "nothing else" shards (St.cardinal store);
  check_next_id_fresh store

(* Crash at an armed protocol site, recover through [recover], then
   verify all-or-nothing across four shards. [expect_commit] says which
   side of the commit point the site sits on. A committed one-shard
   transaction on the last shard runs first, so that shard's watermark
   is the largest and the next-id check covers every shard, not only
   the coordinator of the torn transaction. *)
let torn_commit_at site ~hit ~expect_commit ~recover () =
  Chaos.Plan.reset ();
  let shards = 4 in
  let store = mk ~shards in
  let keys = List.init shards (key_in_shard store) in
  let prior = key_in_shard store (shards - 1) ^ "-prior" in
  St.txn_begin store;
  St.txn_put store ~key:prior ~value:"p";
  St.txn_commit store;
  St.advance_epochs store;
  let wm0 = Incll.Txn.watermark (Sys_.region (St.shard store 0)) in
  St.txn_begin store;
  List.iter (fun k -> St.txn_put store ~key:k ~value:("v" ^ k)) keys;
  Chaos.Plan.arm { Chaos.Plan.site; hit };
  (match St.txn_commit store with
  | () -> Alcotest.fail "commit was not interrupted"
  | exception Chaos.Plan.Crash_requested _ -> ());
  let store = recover store in
  check "txn closed by crash" false (St.txn_active store);
  check_opt "earlier commit kept" (Some "p") (St.get store ~key:prior);
  if expect_commit then begin
    List.iter
      (fun k ->
        check_opt "redone on every shard" (Some ("v" ^ k)) (St.get store ~key:k))
      keys;
    check "watermark advanced" true
      (Incll.Txn.watermark (Sys_.region (St.shard store 0)) > wm0)
  end
  else begin
    List.iter
      (fun k -> check_opt "rolled back on every shard" None (St.get store ~key:k))
      keys;
    check_int "watermark untouched" wm0
      (Incll.Txn.watermark (Sys_.region (St.shard store 0)));
    check_int "no stragglers" 1 (St.cardinal store)
  end;
  check_next_id_fresh store;
  (* The store must be fully usable afterwards. *)
  St.put store ~key:"after" ~value:"ok";
  check_opt "store alive" (Some "ok") (St.get store ~key:"after")

let crash_at_first_prepare =
  torn_commit_at Chaos.Site.Txn_prepare ~hit:1 ~expect_commit:false

(* Every PREPARE durable, watermark not yet advanced: the canonical
   in-doubt state — recovery must probe the coordinator and roll back on
   all four shards. *)
let crash_at_last_prepare =
  torn_commit_at Chaos.Site.Txn_prepare ~hit:4 ~expect_commit:false

let crash_before_watermark =
  torn_commit_at Chaos.Site.Txn_commit_record ~hit:1 ~expect_commit:false

let crash_during_resolve () =
  Chaos.Plan.reset ();
  let shards = 4 in
  let store = mk ~shards in
  let keys = List.init shards (key_in_shard store) in
  St.advance_epochs store;
  St.txn_begin store;
  List.iter (fun k -> St.txn_put store ~key:k ~value:("v" ^ k)) keys;
  St.txn_commit store;
  (* First recovery attempt dies mid-redo; the reboot loop in
     [crash_recover] re-enters it and must converge to the committed
     state (redo is idempotent). *)
  Chaos.Plan.arm { Chaos.Plan.site = Chaos.Site.Recover_txn_resolve; hit = 1 };
  crash_recover store;
  List.iter
    (fun k ->
      check_opt "redone despite recovery crash" (Some ("v" ^ k))
        (St.get store ~key:k))
    keys;
  check_int "exactly once" shards (St.cardinal store)

let tests =
  ( "txn",
    [
      Alcotest.test_case "buffered until commit" `Quick buffered_until_commit;
      Alcotest.test_case "commit survives crash" `Quick commit_survives_crash;
      Alcotest.test_case "abort survives crash" `Quick abort_survives_crash;
      Alcotest.test_case "cross-shard commit" `Quick
        (cross_shard_commit ~recover:recover_in_place);
      Alcotest.test_case "crash at first PREPARE" `Quick
        (crash_at_first_prepare ~recover:recover_in_place);
      Alcotest.test_case "crash at last PREPARE" `Quick
        (crash_at_last_prepare ~recover:recover_in_place);
      Alcotest.test_case "crash before watermark" `Quick
        (crash_before_watermark ~recover:recover_in_place);
      Alcotest.test_case "cross-shard commit, reattach" `Quick
        (cross_shard_commit ~recover:reattach);
      Alcotest.test_case "crash at first PREPARE, reattach" `Quick
        (crash_at_first_prepare ~recover:reattach);
      Alcotest.test_case "crash at last PREPARE, reattach" `Quick
        (crash_at_last_prepare ~recover:reattach);
      Alcotest.test_case "crash before watermark, reattach" `Quick
        (crash_before_watermark ~recover:reattach);
      Alcotest.test_case "crash during resolve" `Quick crash_during_resolve;
    ] )
