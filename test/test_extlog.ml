(* Tests for the external undo log (§4.2). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes = 16 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  (r, Extlog.Log.attach r)

let node_addr = 1024 * 1024 (* inside the heap slice *)

let fill r addr n seed =
  for i = 0 to (n / 8) - 1 do
    Nvm.Region.write_i64 r (addr + (8 * i)) (Int64.of_int (seed + i))
  done

let content r addr n = Bytes.to_string (Nvm.Region.read_bytes r addr ~len:n)

(* Node images [Extlog.Log.replay] applied (it also returns the records). *)
let applied (n, _records) = n

let append_replay_roundtrip () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 128 100;
  let image = content r node_addr 128 in
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:128;
  (* Mutate the node, then roll it back. *)
  fill r node_addr 128 999;
  check "mutated" true (content r node_addr 128 <> image);
  check_int "one applied" 1
    (applied (Extlog.Log.replay log ~is_failed:(fun e -> e = 5)));
  Alcotest.(check string) "restored" image (content r node_addr 128)

let entries_are_durable_immediately () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 64 42;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:64;
  let image = content r node_addr 64 in
  fill r node_addr 64 777;
  (* Worst-case crash: nothing unflushed survives — but the log entry was
     fenced, so replay still restores the node. *)
  Nvm.Region.crash_persist_none r;
  let log2 = Extlog.Log.attach r in
  check_int "entry survived" 1
    (applied (Extlog.Log.replay log2 ~is_failed:(fun e -> e = 5)));
  Alcotest.(check string) "restored" image (content r node_addr 64)

let replay_skips_other_epochs () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  fill r node_addr 64 1;
  Extlog.Log.append log ~epoch:4 ~addr:node_addr ~size:64;
  check_int "wrong epoch not applied" 0
    (applied (Extlog.Log.replay log ~is_failed:(fun e -> e = 9)));
  ignore r

let truncation_floor_blocks_stale_entries () =
  (* Epoch 4 writes a long log; epoch 5 truncates and writes a short one;
     stale epoch-4 entries beyond the prefix must not replay even if epoch
     4 is in the failed set. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  let other = node_addr + 4096 in
  fill r other 64 50;
  Extlog.Log.append log ~epoch:4 ~addr:other ~size:64;
  fill r other 64 60;
  Extlog.Log.append log ~epoch:4 ~addr:other ~size:64;
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 64 70;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:64;
  let before = content r other 64 in
  let n = applied (Extlog.Log.replay log ~is_failed:(fun e -> e = 4 || e = 5)) in
  check_int "only the prefix entry" 1 n;
  Alcotest.(check string) "stale entry not applied" before (content r other 64)

let torn_tail_entry_rejected () =
  (* An entry whose payload lines were lost must fail its checksum. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:5;
  fill r node_addr 256 11;
  Extlog.Log.append log ~epoch:5 ~addr:node_addr ~size:256;
  (* Corrupt one payload word directly, then rebuild the reader. *)
  Nvm.Region.write_i64 r (Nvm.Layout.extlog_off + 64 + 48 + 16) 0xDEADL;
  Nvm.Region.wbinvd r;
  let log2 = Extlog.Log.attach r in
  check_int "rejected" 0
    (applied (Extlog.Log.replay log2 ~is_failed:(fun e -> e = 5)))

let log_full_raises () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 1024 0;
  check "raises" true
    (try
       for _ = 1 to 1000 do
         Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:1024
       done;
       false
     with Extlog.Log.Log_full -> true);
  check "capacity accounted" true (Extlog.Log.used log <= Extlog.Log.capacity log)

let truncate_resets_cursor () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 64 0;
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  let used = Extlog.Log.used log in
  check "used > 0" true (used > 0);
  Extlog.Log.truncate log ~epoch:4;
  check_int "cursor reset" 0 (Extlog.Log.used log);
  check_int "floor recorded" 4 (Extlog.Log.truncation_epoch log)

let replay_order_independent () =
  (* Entries are for distinct nodes (at-most-once-per-epoch), so replaying
     is just a set of memcpys; verify multiple entries all land. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:6;
  let addrs = List.init 5 (fun i -> node_addr + (i * 512)) in
  let images =
    List.map
      (fun a ->
        fill r a 64 (a / 7);
        let img = content r a 64 in
        Extlog.Log.append log ~epoch:6 ~addr:a ~size:64;
        img)
      addrs
  in
  List.iter (fun a -> fill r a 64 123456) addrs;
  check_int "all applied" 5
    (applied (Extlog.Log.replay log ~is_failed:(fun e -> e = 6)));
  List.iter2
    (fun a img -> Alcotest.(check string) "restored" img (content r a 64))
    addrs images

let replay_idempotent () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:6;
  fill r node_addr 64 5;
  let image = content r node_addr 64 in
  Extlog.Log.append log ~epoch:6 ~addr:node_addr ~size:64;
  fill r node_addr 64 99;
  ignore (Extlog.Log.replay log ~is_failed:(fun e -> e = 6));
  ignore (Extlog.Log.replay log ~is_failed:(fun e -> e = 6));
  Alcotest.(check string) "still correct" image (content r node_addr 64)

let scan_lists_entries () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:7;
  fill r node_addr 64 1;
  Extlog.Log.append log ~epoch:7 ~addr:node_addr ~size:64;
  fill r (node_addr + 512) 128 2;
  Extlog.Log.append log ~epoch:7 ~addr:(node_addr + 512) ~size:128;
  let seen = ref [] in
  Extlog.Log.scan_entries log (fun ~kind:_ ~epoch ~addr ~size ->
      seen := (epoch, addr, size) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "entries"
    [ (7, node_addr, 64); (7, node_addr + 512, 128) ]
    (List.rev !seen)

let stats_track_appends () =
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:3;
  fill r node_addr 64 0;
  let m = Nvm.Region.metrics r in
  let bytes () =
    match Obs.Registry.find_histogram m "extlog.append_bytes" with
    | Some h -> Obs.Histogram.sum h
    | None -> 0.0
  in
  let nodes0 = Extlog.Log.nodes_logged log and bytes0 = bytes () in
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:64;
  check_int "nodes" 2 (Extlog.Log.nodes_logged log - nodes0);
  check_int "bytes" 128 (int_of_float (bytes () -. bytes0))

let bad_sizes_rejected () =
  let _, log = mk () in
  check "odd size" true
    (try
       Extlog.Log.append log ~epoch:3 ~addr:node_addr ~size:63;
       false
     with Invalid_argument _ -> true)

let record_roundtrip () =
  let _, log = mk () in
  Extlog.Log.truncate log ~epoch:9;
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_prepare ~epoch:9
    ~txn_id:41 ~payload:"s0,s2";
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_commit ~epoch:9
    ~txn_id:41 ~payload:"";
  let _, records = Extlog.Log.replay log ~is_failed:(fun e -> e = 9) in
  match records with
  | [
   { Extlog.Log.kind = k1; epoch = e1; txn_id = id1; payload = p1 };
   { Extlog.Log.kind = k2; epoch = e2; txn_id = id2; payload = p2 };
  ] ->
      check_int "prepare kind" Extlog.Log.kind_txn_prepare k1;
      check_int "commit kind" Extlog.Log.kind_txn_commit k2;
      check_int "prepare epoch" 9 e1;
      check_int "commit epoch" 9 e2;
      check_int "prepare id" 41 id1;
      check_int "commit id" 41 id2;
      (* Payloads are NUL-padded to 8 bytes; content must round-trip as a
         prefix with only padding after it. *)
      check "prepare payload prefix" true
        (String.length p1 >= 5 && String.sub p1 0 5 = "s0,s2"
        && String.for_all (fun c -> c = '\000')
             (String.sub p1 5 (String.length p1 - 5)));
      check "commit payload is padding" true
        (String.for_all (fun c -> c = '\000') p2)
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let replay_skips_txn_records () =
  (* A txn record interleaved between node images must not be copied
     anywhere by replay, and live-epoch filtering applies to records
     exactly as to node entries. *)
  let r, log = mk () in
  Extlog.Log.truncate log ~epoch:4;
  fill r node_addr 64 1;
  let image = content r node_addr 64 in
  Extlog.Log.append log ~epoch:4 ~addr:node_addr ~size:64;
  Extlog.Log.append_record log ~kind:Extlog.Log.kind_txn_prepare ~epoch:4
    ~txn_id:7 ~payload:"x";
  let used = Extlog.Log.used log in
  fill r node_addr 64 2;
  let n, records = Extlog.Log.replay log ~is_failed:(fun e -> e = 4) in
  check_int "only the node entry applies" 1 n;
  check_int "the record is handed back" 1 (List.length records);
  check_int "cursor parked past the live prefix" used (Extlog.Log.used log);
  Alcotest.(check string) "node image restored" image (content r node_addr 64);
  let _, live = Extlog.Log.replay log ~is_failed:(fun e -> e = 5) in
  check_int "record of a non-failed epoch is not live" 0 (List.length live);
  check_int "nothing live, cursor at the start" 0 (Extlog.Log.used log);
  let all = ref 0 in
  Extlog.Log.fold_all_records log
    (fun ~kind:_ ~epoch:_ ~txn_id:_ ~payload:_ -> incr all);
  check_int "but fold_all still sees it" 1 !all

let tests =
  ( "extlog",
    [
      Alcotest.test_case "append/replay roundtrip" `Quick append_replay_roundtrip;
      Alcotest.test_case "entries durable immediately" `Quick entries_are_durable_immediately;
      Alcotest.test_case "replay skips other epochs" `Quick replay_skips_other_epochs;
      Alcotest.test_case "truncation floor blocks stale" `Quick truncation_floor_blocks_stale_entries;
      Alcotest.test_case "torn entry rejected" `Quick torn_tail_entry_rejected;
      Alcotest.test_case "log full raises" `Quick log_full_raises;
      Alcotest.test_case "truncate resets cursor" `Quick truncate_resets_cursor;
      Alcotest.test_case "replay multiple entries" `Quick replay_order_independent;
      Alcotest.test_case "replay idempotent" `Quick replay_idempotent;
      Alcotest.test_case "scan lists entries" `Quick scan_lists_entries;
      Alcotest.test_case "stats track appends" `Quick stats_track_appends;
      Alcotest.test_case "bad sizes rejected" `Quick bad_sizes_rejected;
      Alcotest.test_case "txn record roundtrip" `Quick record_roundtrip;
      Alcotest.test_case "replay skips txn records" `Quick replay_skips_txn_records;
    ] )
