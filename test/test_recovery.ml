(* Targeted crash-recovery scenarios (§4.3, Listing 4), including
   adversarial per-line persistence choices that exercise the store-order
   arguments of §4.1.2. *)

module L = Masstree.Leaf
module Sys_ = Incll.System

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

let cfg =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 1024 * 1024;
      };
    epoch_len_ns = 1.0e15;
  }

let mk ?(variant = Sys_.Incll) () = Sys_.create ~config:cfg variant

(* A counter of the store's metric registry (it spans recoveries). *)
let count s name = Obs.Registry.counter_value (Sys_.metrics s) name

let populate s n =
  for i = 0 to n - 1 do
    Sys_.put s ~key:(key8 i) ~value:(Printf.sprintf "orig-%03d" i)
  done;
  Sys_.advance_epoch s

let expect_original s n =
  for i = 0 to n - 1 do
    match Sys_.get s ~key:(key8 i) with
    | Some v ->
        Alcotest.(check string)
          (Printf.sprintf "key %d" i)
          (Printf.sprintf "orig-%03d" i)
          v
    | None -> Alcotest.fail (Printf.sprintf "key %d missing after recovery" i)
  done

(* --- rollback of each operation class ------------------------------------ *)

let insert_rolls_back () =
  let s = mk () in
  populate s 100;
  Sys_.put s ~key:(key8 500) ~value:"uncommitted";
  Sys_.crash s (Util.Rng.create ~seed:1);
  let s = Sys_.recover s in
  check "insert undone" true (Sys_.get s ~key:(key8 500) = None);
  expect_original s 100;
  Masstree.Tree.validate (Sys_.tree s)

let remove_rolls_back () =
  let s = mk () in
  populate s 100;
  ignore (Sys_.remove s ~key:(key8 7));
  ignore (Sys_.remove s ~key:(key8 8));
  Sys_.crash s (Util.Rng.create ~seed:2);
  let s = Sys_.recover s in
  expect_original s 100;
  Masstree.Tree.validate (Sys_.tree s)

let update_rolls_back () =
  let s = mk () in
  populate s 100;
  Sys_.put s ~key:(key8 7) ~value:"dirty!!!";
  Sys_.crash s (Util.Rng.create ~seed:3);
  let s = Sys_.recover s in
  expect_original s 100;
  Masstree.Tree.validate (Sys_.tree s)

let split_rolls_back () =
  let s = mk () in
  populate s 100;
  let before = Masstree.Tree.cardinal (Sys_.tree s) in
  let splits0 = count s "tree.leaf_splits" in
  (* Enough inserts to force splits in the dirty epoch. *)
  for i = 1000 to 1399 do
    Sys_.put s ~key:(key8 i) ~value:"splitter"
  done;
  check "splits occurred" true (count s "tree.leaf_splits" > splits0);
  Sys_.crash s (Util.Rng.create ~seed:4);
  let s = Sys_.recover s in
  check_int "cardinal restored" before (Masstree.Tree.cardinal (Sys_.tree s));
  expect_original s 100;
  Masstree.Tree.validate (Sys_.tree s)

let node_removal_rolls_back () =
  (* Delete enough keys to unlink whole leaves (and splice internals),
     then crash: every node must come back, chain intact. *)
  let s = mk () in
  populate s 400;
  let t0 = Masstree.Tree.cardinal (Sys_.tree s) in
  let removals0 = count s "tree.leaf_removals" in
  for i = 0 to 299 do
    ignore (Sys_.remove s ~key:(key8 i))
  done;
  check "unlinks happened" true (count s "tree.leaf_removals" > removals0);
  Sys_.crash s (Util.Rng.create ~seed:21);
  let s = Sys_.recover s in
  check_int "all keys back" t0 (Masstree.Tree.cardinal (Sys_.tree s));
  expect_original s 400;
  Masstree.Tree.validate (Sys_.tree s)

let committed_removal_stays () =
  (* The mirror image: checkpointed removals survive later crashes. *)
  let s = mk () in
  populate s 400;
  for i = 0 to 299 do
    ignore (Sys_.remove s ~key:(key8 i))
  done;
  Sys_.advance_epoch s;
  Sys_.put s ~key:(key8 1000) ~value:"dirty";
  Sys_.crash s (Util.Rng.create ~seed:22);
  let s = Sys_.recover s in
  check_int "compact state kept" 100 (Masstree.Tree.cardinal (Sys_.tree s));
  for i = 300 to 399 do
    check "survivor" true (Sys_.get s ~key:(key8 i) <> None)
  done;
  Masstree.Tree.validate (Sys_.tree s)

let suffix_conversion_rolls_back () =
  (* A layer conversion rewrites a live entry's keylen and value pointer;
     it must be externally logged so a crash restores the suffix entry. *)
  let s = mk () in
  populate s 50;
  Sys_.put s ~key:"shared!!suffix-one" ~value:"committed1";
  Sys_.advance_epoch s;
  (* The conversion happens in the dirty epoch... *)
  Sys_.put s ~key:"shared!!suffix-two" ~value:"uncommitted";
  check "both visible before crash" true
    (Sys_.get s ~key:"shared!!suffix-two" = Some "uncommitted");
  Sys_.crash s (Util.Rng.create ~seed:33);
  let s = Sys_.recover s in
  check "original long key intact" true
    (Sys_.get s ~key:"shared!!suffix-one" = Some "committed1");
  check "new long key rolled back" true
    (Sys_.get s ~key:"shared!!suffix-two" = None);
  expect_original s 50;
  Masstree.Tree.validate (Sys_.tree s)

let committed_epochs_survive () =
  let s = mk () in
  populate s 100;
  Sys_.put s ~key:(key8 7) ~value:"v2-keep!";
  Sys_.advance_epoch s;
  (* checkpoint commits the update *)
  Sys_.put s ~key:(key8 7) ~value:"v3-drop!";
  Sys_.crash s (Util.Rng.create ~seed:5);
  let s = Sys_.recover s in
  check "committed update kept" true (Sys_.get s ~key:(key8 7) = Some "v2-keep!")

(* --- adversarial persistence choices -------------------------------------- *)

let all_prefix_extremes_recover () =
  (* Worst case (nothing pending persists) and best case (everything
     does): both must recover to the checkpoint state. *)
  List.iter
    (fun all ->
      let s = mk () in
      populate s 100;
      Sys_.put s ~key:(key8 1) ~value:"dirty!!!";
      ignore (Sys_.remove s ~key:(key8 2));
      Sys_.put s ~key:(key8 600) ~value:"freshkey";
      if all then Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> nwrites)
      else Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites:_ -> 0);
      let s = Sys_.recover s in
      expect_original s 100;
      check "fresh key gone" true (Sys_.get s ~key:(key8 600) = None);
      Masstree.Tree.validate (Sys_.tree s))
    [ true; false ]

let torn_incllp_line_recovers () =
  (* Persist only the first k words of each dirty line for every k: the
     §4.1.2 ordering argument says recovery works for ALL of them. *)
  for k = 0 to 6 do
    let s = mk () in
    populate s 100;
    Sys_.put s ~key:(key8 3) ~value:"dirty!!!";
    Sys_.put s ~key:(key8 800) ~value:"freshkey";
    ignore (Sys_.remove s ~key:(key8 4));
    Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> min k nwrites);
    let s = Sys_.recover s in
    expect_original s 100;
    Masstree.Tree.validate (Sys_.tree s)
  done

let per_line_random_adversary =
  QCheck.Test.make ~name:"random per-line prefixes always recover" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let s = mk () in
      let n = 150 in
      populate s n;
      let rng = Util.Rng.create ~seed in
      for _ = 1 to 60 do
        match Util.Rng.int rng 3 with
        | 0 -> Sys_.put s ~key:(key8 (Util.Rng.int rng n)) ~value:"dirty!!!"
        | 1 -> ignore (Sys_.remove s ~key:(key8 (Util.Rng.int rng n)))
        | _ -> Sys_.put s ~key:(key8 (1000 + Util.Rng.int rng 200)) ~value:"freshkey"
      done;
      Sys_.crash s rng;
      let s = Sys_.recover s in
      Masstree.Tree.validate (Sys_.tree s);
      let ok = ref true in
      for i = 0 to n - 1 do
        if Sys_.get s ~key:(key8 i) <> Some (Printf.sprintf "orig-%03d" i) then
          ok := false
      done;
      !ok)

(* --- multiple crashes ------------------------------------------------------ *)

let repeated_crashes_accumulate_consistency () =
  let s = ref (mk ()) in
  populate !s 100;
  for round = 1 to 8 do
    Sys_.put !s ~key:(key8 round) ~value:"dirty!!!";
    Sys_.crash !s (Util.Rng.create ~seed:(round * 17));
    s := Sys_.recover !s;
    expect_original !s 100
  done;
  Masstree.Tree.validate (Sys_.tree !s)

let crash_during_recovery_replays () =
  (* Crash, recover, crash again immediately (before any new op): the
     recovery-marker epoch fails and recovery re-runs idempotently. *)
  let s = mk () in
  populate s 100;
  Sys_.put s ~key:(key8 3) ~value:"dirty!!!";
  Sys_.crash s (Util.Rng.create ~seed:7);
  let s = Sys_.recover s in
  Sys_.crash s (Util.Rng.create ~seed:8);
  let s = Sys_.recover s in
  expect_original s 100;
  Masstree.Tree.validate (Sys_.tree s)

let failed_set_compaction_sweeps () =
  (* Push the failed-epoch set close to capacity; recovery must compact it
     (eager sweep + clear) rather than overflow. *)
  let s = ref (mk ()) in
  populate !s 60;
  for round = 1 to Nvm.Layout.max_failed_epochs + 4 do
    Sys_.put !s ~key:(key8 (round mod 60)) ~value:"dirty!!!";
    Sys_.crash !s (Util.Rng.create ~seed:round);
    s := Sys_.recover !s;
    (match Sys_.epoch_manager !s with
    | Some em ->
        check "failed set stays bounded" true
          (Epoch.Manager.failed_count em < Nvm.Layout.max_failed_epochs)
    | None -> ())
  done;
  expect_original !s 60

(* --- recovery statistics --------------------------------------------------- *)

let recovery_reports_replayed_entries () =
  let s = mk () in
  populate s 100;
  (* Mixed remove+insert forces external logging of some nodes. *)
  for i = 0 to 20 do
    ignore (Sys_.remove s ~key:(key8 i));
    Sys_.put s ~key:(key8 i) ~value:"mixed!!!"
  done;
  let logged = Sys_.nodes_logged s in
  check "external log used" true (logged > 0);
  Sys_.crash s (Util.Rng.create ~seed:9);
  let s = Sys_.recover s in
  (match Sys_.last_recover_stats s with
  | Some st ->
      check "replayed entries" true (st.Sys_.replayed_entries > 0);
      check "recovery took simulated time" true (st.Sys_.recovery_sim_ns > 0.0)
  | None -> Alcotest.fail "no recover stats");
  expect_original s 100

let recovery_phase_breakdown_sums () =
  let s = mk () in
  populate s 200;
  for i = 0 to 50 do
    ignore (Sys_.remove s ~key:(key8 i));
    Sys_.put s ~key:(key8 i) ~value:"mixed!!!"
  done;
  Sys_.crash s (Util.Rng.create ~seed:13);
  let s = Sys_.recover s in
  (match Sys_.last_recover_stats s with
  | Some st ->
      check "phases non-empty" true (st.Sys_.phases <> []);
      List.iter
        (fun name ->
          check
            (Printf.sprintf "has phase %s" name)
            true
            (List.mem_assoc name st.Sys_.phases))
        [
          "recover.epoch_open"; "recover.extlog_replay";
          "recover.alloc_chains"; "recover.image_scan"; "recover.checkpoint";
        ];
      List.iter
        (fun (name, d) ->
          check (Printf.sprintf "phase %s non-negative" name) true (d >= 0.0))
        st.Sys_.phases;
      (* Mark-to-mark durations telescope: they must sum to the whole
         recovery's simulated time, not approximately but exactly (modulo
         float addition noise). *)
      let sum = List.fold_left (fun a (_, d) -> a +. d) 0.0 st.Sys_.phases in
      check "phases sum to total" true
        (Float.abs (sum -. st.Sys_.recovery_sim_ns)
        <= 1e-6 *. Float.max 1.0 st.Sys_.recovery_sim_ns);
      (* Wall time of the same phases: one per phase, in order, each
         non-negative, and (glue between phases left out) summing to at
         most the whole recovery's wall time. *)
      Alcotest.(check (list string))
        "wall phases name the phases" (List.map fst st.Sys_.phases)
        (List.map fst st.Sys_.wall_phases);
      List.iter
        (fun (name, d) ->
          check (Printf.sprintf "wall phase %s non-negative" name) true (d >= 0.0))
        st.Sys_.wall_phases;
      let wall = List.fold_left (fun a (_, d) -> a +. d) 0.0 st.Sys_.wall_phases in
      check "wall phases sum to at most the wall total" true
        (wall <= st.Sys_.recovery_wall_ns);
      (* And each phase fed a span histogram in the region's registry. *)
      List.iter
        (fun (name, _) ->
          match
            Obs.Registry.find_histogram (Sys_.metrics s)
              ("span." ^ name ^ "_ns")
          with
          | Some h ->
              check (Printf.sprintf "span histogram for %s" name) true
                (Obs.Histogram.count h >= 1)
          | None -> Alcotest.fail ("missing span histogram for " ^ name))
        st.Sys_.phases
  | None -> Alcotest.fail "no recover stats");
  expect_original s 200

let sharded_recover_merges_phases () =
  let cfg =
    { cfg with Sys_.nvm = { cfg.Sys_.nvm with Nvm.Config.crash_support = Nvm.Config.Precise } }
  in
  let st = Store.Sharded.create ~config:cfg Sys_.Incll ~shards:2 in
  for i = 0 to 199 do
    Store.Sharded.put st ~key:(key8 i) ~value:(string_of_int i)
  done;
  Store.Sharded.advance_epochs st;
  Store.Sharded.crash st (Util.Rng.create ~seed:14);
  let phases = Store.Sharded.recover st in
  check "merged phases non-empty" true (phases <> []);
  check "merged breakdown starts with epoch_open" true
    (match phases with ("recover.epoch_open", _) :: _ -> true | _ -> false);
  (* The merged sum is the total simulated recovery time over shards. *)
  let sum = List.fold_left (fun a (_, d) -> a +. d) 0.0 phases in
  let per_shard =
    List.init (Store.Sharded.nshards st) (fun i ->
        match Sys_.last_recover_stats (Store.Sharded.shard st i) with
        | Some r -> r.Sys_.recovery_sim_ns
        | None -> 0.0)
  in
  let total = List.fold_left ( +. ) 0.0 per_shard in
  check "merged sum = sum over shards" true
    (Float.abs (sum -. total) <= 1e-6 *. Float.max 1.0 total);
  (* The wall breakdown merges the same way, phase for phase. *)
  Alcotest.(check (list string))
    "merged wall phases name the merged phases" (List.map fst phases)
    (List.map fst (Store.Sharded.last_recover_wall_phases st))

let lazy_recovery_is_lazy () =
  (* After recovery, untouched nodes still carry failed-epoch stamps; the
     first access repairs them (measured via the lazy counter). *)
  let s = mk () in
  populate s 2000;
  for i = 0 to 1999 do
    Sys_.put s ~key:(key8 i) ~value:"dirty!!!"
  done;
  Sys_.crash s (Util.Rng.create ~seed:10);
  let s = Sys_.recover s in
  let lazy0 = count s "incll.lazy_recovery" in
  ignore (Sys_.get s ~key:(key8 0));
  let lazy1 = count s "incll.lazy_recovery" in
  check "first access recovered nodes" true (lazy1 > lazy0);
  (* Touching the same key again does no further recovery work. *)
  ignore (Sys_.get s ~key:(key8 0));
  check_int "idempotent per node" lazy1 (count s "incll.lazy_recovery")

let logging_variant_recovers_too () =
  let s = mk ~variant:Sys_.Logging () in
  populate s 200;
  for i = 0 to 99 do
    Sys_.put s ~key:(key8 i) ~value:"dirty!!!"
  done;
  Sys_.crash s (Util.Rng.create ~seed:11);
  let s = Sys_.recover s in
  expect_original s 200;
  Masstree.Tree.validate (Sys_.tree s)

let eager_sweep_restores_everything () =
  let s = mk () in
  populate s 500;
  for i = 0 to 499 do
    Sys_.put s ~key:(key8 i) ~value:"dirty!!!"
  done;
  Sys_.crash s (Util.Rng.create ~seed:12);
  let s = Sys_.recover s in
  (match (Sys_.ctx s, Sys_.durable_alloc s) with
  | Some ctx, Some da ->
      Incll.Recovery.eager_sweep ctx (Sys_.tree s) da;
      Alloc.Durable.check_chains da
  | _ -> Alcotest.fail "durable system expected");
  expect_original s 500;
  Masstree.Tree.validate (Sys_.tree s)

let tests =
  ( "recovery",
    [
      Alcotest.test_case "insert rolls back" `Quick insert_rolls_back;
      Alcotest.test_case "remove rolls back" `Quick remove_rolls_back;
      Alcotest.test_case "update rolls back" `Quick update_rolls_back;
      Alcotest.test_case "split rolls back" `Quick split_rolls_back;
      Alcotest.test_case "node removal rolls back" `Quick node_removal_rolls_back;
      Alcotest.test_case "committed removal stays" `Quick committed_removal_stays;
      Alcotest.test_case "suffix conversion rolls back" `Quick suffix_conversion_rolls_back;
      Alcotest.test_case "committed epochs survive" `Quick committed_epochs_survive;
      Alcotest.test_case "prefix extremes recover" `Quick all_prefix_extremes_recover;
      Alcotest.test_case "torn InCLLp line recovers" `Quick torn_incllp_line_recovers;
      QCheck_alcotest.to_alcotest per_line_random_adversary;
      Alcotest.test_case "repeated crashes" `Quick repeated_crashes_accumulate_consistency;
      Alcotest.test_case "crash during recovery" `Quick crash_during_recovery_replays;
      Alcotest.test_case "failed-set compaction" `Quick failed_set_compaction_sweeps;
      Alcotest.test_case "recovery statistics" `Quick recovery_reports_replayed_entries;
      Alcotest.test_case "recovery phase breakdown" `Quick recovery_phase_breakdown_sums;
      Alcotest.test_case "sharded recover merges phases" `Quick sharded_recover_merges_phases;
      Alcotest.test_case "lazy recovery is lazy" `Quick lazy_recovery_is_lazy;
      Alcotest.test_case "LOGGING variant recovers" `Quick logging_variant_recovers_too;
      Alcotest.test_case "eager sweep" `Quick eager_sweep_restores_everything;
    ] )
