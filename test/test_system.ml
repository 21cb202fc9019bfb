(* Tests for the assembled System variants and the sharded store. *)

module Sys_ = Incll.System

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

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

let variant_names () =
  List.iter
    (fun (v, n) ->
      Alcotest.(check string) "name" n (Sys_.variant_name v);
      check "roundtrip" true (Sys_.variant_of_string n = v))
    [
      (Sys_.Mt, "MT");
      (Sys_.Mt_plus, "MT+");
      (Sys_.Logging, "LOGGING");
      (Sys_.Incll, "INCLL");
    ]

let all_variants_serve_ops () =
  List.iter
    (fun v ->
      let s = Sys_.create ~config:small_cfg v in
      for i = 0 to 499 do
        Sys_.put s ~key:(key8 i) ~value:(string_of_int i)
      done;
      for i = 0 to 499 do
        check "get" true (Sys_.get s ~key:(key8 i) = Some (string_of_int i))
      done;
      check "remove" true (Sys_.remove s ~key:(key8 0));
      check_int "scan" 10 (List.length (Sys_.scan s ~start:"" ~n:10));
      Masstree.Tree.validate (Sys_.tree s))
    [ Sys_.Mt; Sys_.Mt_plus; Sys_.Logging; Sys_.Incll ]

let transient_variants_reject_crash () =
  List.iter
    (fun v ->
      let s = Sys_.create ~config:small_cfg v in
      check "crash rejected" true
        (try
           Sys_.crash s (Util.Rng.create ~seed:1);
           false
         with Failure _ -> true))
    [ Sys_.Mt; Sys_.Mt_plus ]

let incll_makes_fewer_fences_than_logging () =
  (* The headline mechanism: for a first-touch-dominated write workload,
     INCLL drains far fewer fences than LOGGING-only. *)
  (* Sparse touches: each updated key lives in its own leaf, so InCLL
     absorbs every first touch while LOGGING pays one log+fence per leaf. *)
  let count_fences variant =
    let s = Sys_.create ~config:small_cfg variant in
    for i = 0 to 4999 do
      Sys_.put s ~key:(key8 i) ~value:"12345678"
    done;
    Sys_.advance_epoch s;
    let f0 = (Nvm.Region.stats (Sys_.region s)).Nvm.Stats.sfence in
    for i = 0 to 99 do
      Sys_.put s ~key:(key8 (i * 50)) ~value:"abcdefgh"
    done;
    (Nvm.Region.stats (Sys_.region s)).Nvm.Stats.sfence - f0
  in
  let logging = count_fences Sys_.Logging in
  let incll = count_fences Sys_.Incll in
  check "INCLL fences << LOGGING fences" true (incll * 4 < logging)

let mt_plus_flushes_periodically () =
  let cfg = { small_cfg with Sys_.epoch_len_ns = 10_000.0 } in
  let s = Sys_.create ~config:cfg Sys_.Mt_plus in
  for i = 0 to 2000 do
    Sys_.put s ~key:(key8 i) ~value:"x"
  done;
  check "MT+ checkpoints" true
    ((Nvm.Region.stats (Sys_.region s)).Nvm.Stats.wbinvd > 0)

let mt_never_flushes () =
  let s = Sys_.create ~config:small_cfg Sys_.Mt in
  for i = 0 to 2000 do
    Sys_.put s ~key:(key8 i) ~value:"x"
  done;
  let st = Nvm.Region.stats (Sys_.region s) in
  check_int "no wbinvd" 0 st.Nvm.Stats.wbinvd;
  (* Only initialisation flushes (superblock format + initial root). *)
  check "no clwb beyond initialisation" true (st.Nvm.Stats.clwb <= 2)

(* --- sharded store --------------------------------------------------------- *)

let store_routes_consistently () =
  let st = Store.Sharded.create ~config:small_cfg Sys_.Incll ~shards:4 in
  check_int "shards" 4 (Store.Sharded.nshards st);
  for i = 0 to 999 do
    Store.Sharded.put st ~key:(key8 i) ~value:(string_of_int i)
  done;
  for i = 0 to 999 do
    check "routed get" true (Store.Sharded.get st ~key:(key8 i) = Some (string_of_int i))
  done;
  check_int "cardinal" 1000 (Store.Sharded.cardinal st);
  (* Each shard holds a share. *)
  for i = 0 to 3 do
    check "non-empty shard" true
      (Masstree.Tree.cardinal (Sys_.tree (Store.Sharded.shard st i)) > 100)
  done

let store_shard_ranges_ordered () =
  let st = Store.Sharded.create ~config:small_cfg Sys_.Incll ~shards:4 in
  (* shard_of_key must be monotone in the key's first slice. *)
  let prev = ref 0 in
  for b = 0 to 255 do
    let s = Store.Sharded.shard_of_key st (String.make 1 (Char.chr b)) in
    check "monotone" true (s >= !prev);
    prev := s
  done;
  check_int "last shard reached" 3 !prev

let store_scan_crosses_shards () =
  let st = Store.Sharded.create ~config:small_cfg Sys_.Incll ~shards:4 in
  let keys = List.init 256 (fun b -> Printf.sprintf "%c-key" (Char.chr b)) in
  List.iter (fun k -> Store.Sharded.put st ~key:k ~value:k) keys;
  let got = Store.Sharded.scan st ~start:"" ~n:256 in
  Alcotest.(check (list string)) "global order" (List.sort compare keys)
    (List.map fst got)

let store_crash_recover () =
  let cfg =
    {
      small_cfg with
      Sys_.nvm = { small_cfg.Sys_.nvm with Nvm.Config.crash_support = Nvm.Config.Precise };
    }
  in
  let st = Store.Sharded.create ~config:cfg Sys_.Incll ~shards:3 in
  for i = 0 to 299 do
    Store.Sharded.put st ~key:(key8 i) ~value:(string_of_int i)
  done;
  Store.Sharded.advance_epochs st;
  for i = 300 to 399 do
    Store.Sharded.put st ~key:(key8 i) ~value:"dirty"
  done;
  Store.Sharded.crash st (Util.Rng.create ~seed:42);
  ignore (Store.Sharded.recover st : (string * float) list);
  for i = 0 to 299 do
    check "kept" true (Store.Sharded.get st ~key:(key8 i) = Some (string_of_int i))
  done;
  for i = 300 to 399 do
    check "rolled back" true (Store.Sharded.get st ~key:(key8 i) = None)
  done

let tests =
  ( "system",
    [
      Alcotest.test_case "variant names" `Quick variant_names;
      Alcotest.test_case "all variants serve ops" `Quick all_variants_serve_ops;
      Alcotest.test_case "transient variants reject crash" `Quick transient_variants_reject_crash;
      Alcotest.test_case "INCLL fences << LOGGING" `Quick incll_makes_fewer_fences_than_logging;
      Alcotest.test_case "MT+ flushes periodically" `Quick mt_plus_flushes_periodically;
      Alcotest.test_case "MT never flushes" `Quick mt_never_flushes;
      Alcotest.test_case "store routes consistently" `Quick store_routes_consistently;
      Alcotest.test_case "store ranges ordered" `Quick store_shard_ranges_ordered;
      Alcotest.test_case "store scan crosses shards" `Quick store_scan_crosses_shards;
      Alcotest.test_case "store crash/recover" `Quick store_crash_recover;
    ] )

let durability_lag_reports () =
  let cfg = { small_cfg with Sys_.epoch_len_ns = 1.0e9 } in
  let s = Sys_.create ~config:cfg Sys_.Incll in
  Sys_.advance_epoch s;
  let lag0 = Sys_.durability_lag_ns s in
  Sys_.put s ~key:"k" ~value:"v";
  let lag1 = Sys_.durability_lag_ns s in
  check "lag grows with work" true (lag1 > lag0);
  Sys_.advance_epoch s;
  check "checkpoint resets lag" true (Sys_.durability_lag_ns s < lag1);
  let mt = Sys_.create ~config:small_cfg Sys_.Mt in
  check "MT never durable" true (Sys_.durability_lag_ns mt = infinity)

let extra_tests =
  [
    Alcotest.test_case "durability lag" `Quick durability_lag_reports;
  ]

let tests = (fst tests, snd tests @ extra_tests)

let concurrent_domains_stress () =
  (* Four domains hammer their own shards concurrently — the isolation
     claim behind the DESIGN.md concurrency substitution — then the whole
     store crashes and recovers consistently. *)
  let cfg =
    {
      small_cfg with
      Sys_.nvm =
        { small_cfg.Sys_.nvm with Nvm.Config.crash_support = Nvm.Config.Precise };
      epoch_len_ns = 50_000.0 (* many checkpoints during the run *);
    }
  in
  let st = Store.Sharded.create ~config:cfg Sys_.Incll ~shards:4 in
  let per_domain = 8_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let sys = Store.Sharded.shard st d in
            let rng = Util.Rng.create ~seed:(100 + d) in
            let made = ref 0 in
            for i = 0 to per_domain - 1 do
              (* Keys owned by shard d: set the top bits accordingly. *)
              let bits =
                Int64.logor
                  (Int64.shift_left (Int64.of_int d) 62)
                  (Int64.of_int ((i * 1021) land 0x3FFFFFFF))
              in
              let key = Masstree.Key.of_int64 bits in
              match Util.Rng.int rng 10 with
              | 0 | 1 | 2 | 3 | 4 | 5 ->
                  Sys_.put sys ~key ~value:(Printf.sprintf "d%d-%d" d i);
                  incr made
              | 6 -> ignore (Sys_.remove sys ~key)
              | _ -> ignore (Sys_.get sys ~key)
            done;
            !made))
  in
  let made = List.map Domain.join domains in
  check "all domains worked" true (List.for_all (fun m -> m > 1000) made);
  for d = 0 to 3 do
    Masstree.Tree.validate (Sys_.tree (Store.Sharded.shard st d))
  done;
  let before = Store.Sharded.cardinal st in
  Store.Sharded.advance_epochs st;
  Store.Sharded.crash st (Util.Rng.create ~seed:55);
  ignore (Store.Sharded.recover st : (string * float) list);
  check_int "checkpointed state survives" before (Store.Sharded.cardinal st);
  for d = 0 to 3 do
    Masstree.Tree.validate (Sys_.tree (Store.Sharded.shard st d))
  done

let recover_mutates_store_in_place () =
  (* Regression: recover used to build and RETURN a fresh store while the
     caller's binding kept the crashed shards — every alias had to be
     rebound or it kept talking to dead systems. recover now swaps the
     recovered shards into the existing store (returning only the phase
     timing breakdown), so every alias observes the recovery. *)
  let cfg =
    {
      small_cfg with
      Sys_.nvm = { small_cfg.Sys_.nvm with Nvm.Config.crash_support = Nvm.Config.Precise };
    }
  in
  let st = Store.Sharded.create ~config:cfg Sys_.Incll ~shards:2 in
  let alias = st in
  for i = 0 to 99 do
    Store.Sharded.put st ~key:(key8 i) ~value:(string_of_int i)
  done;
  Store.Sharded.advance_epochs st;
  Store.Sharded.crash st (Util.Rng.create ~seed:7);
  ignore (Store.Sharded.recover st : (string * float) list);
  (* The untouched alias serves reads from the recovered shards. *)
  for i = 0 to 99 do
    check "alias sees recovery" true
      (Store.Sharded.get alias ~key:(key8 i) = Some (string_of_int i))
  done;
  check "alias accepts writes" true
    (Store.Sharded.put alias ~key:(key8 1000) ~value:"post";
     Store.Sharded.get st ~key:(key8 1000) = Some "post")

(* Cross-shard scans: starts that land mid-shard, with windows
   long enough to cross one or more shard boundaries. *)
let scan_windows_cross_shard_boundaries () =
  List.iter
    (fun shards ->
      let st = Store.Sharded.create ~config:small_cfg Sys_.Incll ~shards in
      (* Keys cover the full first-byte range so every shard owns some. *)
      let keys =
        List.concat_map
          (fun b -> List.init 4 (fun i -> Printf.sprintf "%02x-%d" b i))
          (List.init 64 (fun i -> i * 4))
      in
      List.iter (fun k -> Store.Sharded.put st ~key:k ~value:k) keys;
      let sorted = List.sort compare keys in
      let expect_from start n =
        List.filteri (fun i _ -> i < n)
          (List.filter (fun k -> k >= start) sorted)
      in
      List.iter
        (fun (start, n) ->
          let got = List.map fst (Store.Sharded.scan st ~start ~n) in
          check_int
            (Printf.sprintf "scan %s n=%d (%d shards) length" start n shards)
            (List.length (expect_from start n))
            (List.length got);
          Alcotest.(check (list string))
            (Printf.sprintf "scan %s n=%d (%d shards) sorted" start n shards)
            (expect_from start n) got)
        [ ("", List.length keys); ("3e-2", 80); ("7a-0", 120); ("f8-3", 10) ])
    [ 2; 3; 4 ]

let tests =
  (fst tests,
   snd tests
   @ [
       Alcotest.test_case "recover mutates store in place" `Quick recover_mutates_store_in_place;
       Alcotest.test_case "scans cross shard boundaries" `Quick scan_windows_cross_shard_boundaries;
       Alcotest.test_case "concurrent domains stress" `Slow concurrent_domains_stress;
     ])
