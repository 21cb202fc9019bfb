(* Tests for the durable allocator (§5) and the transient baselines. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* --- size classes ------------------------------------------------------ *)

let classes_are_64_multiples () =
  for i = 0 to Alloc.Size_class.count - 1 do
    check "multiple of 64" true (Alloc.Size_class.chunk_size i mod 64 = 0);
    if i > 0 then
      check "ascending" true
        (Alloc.Size_class.chunk_size i > Alloc.Size_class.chunk_size (i - 1))
  done

let class_selection () =
  let c = Alloc.Size_class.class_of_payload 32 in
  check "fits" true (Alloc.Size_class.payload_capacity ~cls:c ~aligned:false >= 32);
  let c = Alloc.Size_class.class_of_aligned_payload 384 in
  check_int "node chunk" 448 (Alloc.Size_class.chunk_size c);
  check "too large raises" true
    (try
       ignore (Alloc.Size_class.class_of_payload 100_000);
       false
     with Invalid_argument _ -> true)

let payload_addressing () =
  let chunk = 64 * 1000 in
  let p = Alloc.Size_class.payload_of_chunk ~chunk ~aligned:false in
  check_int "ordinary offset" (chunk + 16) p;
  check_int "ordinary back" chunk (Alloc.Size_class.chunk_of_payload p);
  let pa = Alloc.Size_class.payload_of_chunk ~chunk ~aligned:true in
  check_int "aligned offset" (chunk + 64) pa;
  check_int "aligned back" chunk (Alloc.Size_class.chunk_of_payload pa)

(* --- chunk header (§5.1 encoding) -------------------------------------- *)

let header_roundtrip () =
  let r, em = mk_em () in
  ignore em;
  let chunk = 64 * 1024 in
  Alloc.Chunk_header.init r ~chunk ~epoch:0xABCD1234 ~cls:9;
  check_int "next" 0 (Alloc.Chunk_header.read_next r ~chunk);
  check_int "epoch (ctrs match)" 0xABCD1234 (Alloc.Chunk_header.read_epoch r ~chunk);
  check_int "class" 9 (Alloc.Chunk_header.read_class r ~chunk)

(* word1's pointer: [nextInCLL]. *)
let next_incll r ~chunk =
  let lo = Nvm.Region.read_u64 r (chunk + 8) in
  Alloc.Chunk_header.ptr ~hi:(Nvm.Region.hi32 r) ~lo

let header_first_touch_bumps_counter () =
  let r, _ = mk_em () in
  let chunk = 64 * 1024 in
  Alloc.Chunk_header.init r ~chunk ~epoch:5 ~cls:2;
  Alloc.Chunk_header.write_next r ~chunk ~next:(64 * 2048);
  Alloc.Chunk_header.first_touch r ~chunk ~epoch:6;
  check_int "incll copies next" (64 * 2048) (next_incll r ~chunk);
  check_int "epoch updated (ctrs match)" 6 (Alloc.Chunk_header.read_epoch r ~chunk);
  check_int "next kept" (64 * 2048) (Alloc.Chunk_header.read_next r ~chunk)

let header_torn_write_detected () =
  (* Crash between the two first-touch stores: word1 (new ctr) persists,
     word0 keeps the old ctr => ctr mismatch => recover from nextInCLL. *)
  let r, _ = mk_em () in
  let chunk = 64 * 1024 in
  Alloc.Chunk_header.init r ~chunk ~epoch:5 ~cls:2;
  Nvm.Region.wbinvd r;
  Alloc.Chunk_header.first_touch r ~chunk ~epoch:6;
  Nvm.Region.crash_with r ~choose:(fun ~line ~nwrites:_ ->
      if line = chunk / 64 then 1 (* only word1's store *) else 0);
  check_int "torn detected" (-1) (Alloc.Chunk_header.read_epoch r ~chunk);
  Alloc.Chunk_header.restore r ~chunk ~marker_epoch:7;
  check_int "restored consistent" 7 (Alloc.Chunk_header.read_epoch r ~chunk);
  check_int "next from incll" 0 (Alloc.Chunk_header.read_next r ~chunk);
  check_int "class preserved" 2 (Alloc.Chunk_header.read_class r ~chunk)

let header_encoding_property =
  QCheck.Test.make ~name:"chunk header packs epoch and class" ~count:500
    QCheck.(triple (int_bound 0xFFFFFFF) (int_bound 15) (int_bound 100000))
    (fun (epoch, cls, ptr16) ->
      let region, _ = mk_em () in
      let chunk = 64 * 512 in
      let ptr = ptr16 * 16 in
      Alloc.Chunk_header.init region ~chunk ~epoch ~cls;
      Alloc.Chunk_header.write_next region ~chunk ~next:ptr;
      Alloc.Chunk_header.first_touch region ~chunk ~epoch:(epoch + 1);
      Alloc.Chunk_header.read_next region ~chunk = ptr
      && next_incll region ~chunk = ptr
      && Alloc.Chunk_header.read_epoch region ~chunk = epoch + 1
      && Alloc.Chunk_header.read_class region ~chunk = cls)

(* --- meta lines --------------------------------------------------------- *)

let meta_line_rollback () =
  let r, _ = mk_em () in
  let line = Nvm.Layout.alloc_class_free_line 0 in
  Alloc.Meta_line.init r ~line ~head:(111 * 16) ~epoch:5;
  Nvm.Region.wbinvd r;
  (* Epoch 6 modifies the head twice. *)
  Alloc.Meta_line.touch r ~line ~epoch:6;
  Alloc.Meta_line.set_head r ~line (222 * 16);
  Alloc.Meta_line.touch r ~line ~epoch:6;
  Alloc.Meta_line.set_head r ~line (333 * 16);
  Nvm.Region.crash_persist_all r;
  Alloc.Meta_line.recover r ~line ~is_failed:(fun e -> e = 6) ~marker:7;
  check_int "rolled back" (111 * 16) (Alloc.Meta_line.head r ~line)

let meta_line_no_rollback_when_epoch_completed () =
  let r, _ = mk_em () in
  let line = Nvm.Layout.alloc_class_free_line 1 in
  Alloc.Meta_line.init r ~line ~head:0 ~epoch:5;
  Alloc.Meta_line.touch r ~line ~epoch:6;
  Alloc.Meta_line.set_head r ~line (992 * 16);
  Nvm.Region.crash_persist_all r;
  Alloc.Meta_line.recover r ~line ~is_failed:(fun _ -> false) ~marker:7;
  check_int "kept" (992 * 16) (Alloc.Meta_line.head r ~line)

(* --- durable allocator -------------------------------------------------- *)

(* A counter of the region's metric registry (it spans crashes). *)
let count r name = Obs.Registry.counter_value (Nvm.Region.metrics r) name

let alloc_basic () =
  let r, em = mk_em () in
  let a = Alloc.Durable.create em in
  let allocs0 = count r "alloc.allocs" in
  let p1 = Alloc.Durable.alloc a ~size:32 in
  let p2 = Alloc.Durable.alloc a ~size:32 in
  check "aligned 16" true (p1 land 15 = 0);
  check "distinct" true (p1 <> p2);
  check "capacity" true (Alloc.Durable.payload_capacity_of a p1 >= 32);
  let n = Alloc.Durable.alloc ~aligned:true a ~size:384 in
  check "node aligned 64" true (n land 63 = 0);
  check_int "three allocs" 3 (count r "alloc.allocs" - allocs0)

let dealloc_reuses_after_epoch () =
  let _, em = mk_em () in
  let a = Alloc.Durable.create em in
  let p = Alloc.Durable.alloc a ~size:32 in
  Alloc.Durable.dealloc a p;
  (* EBR: not reusable within the same epoch. *)
  let q = Alloc.Durable.alloc a ~size:32 in
  check "not immediately reused" true (q <> p);
  Epoch.Manager.advance em;
  (* After the checkpoint the limbo chunk is back on the free list. *)
  let r1 = Alloc.Durable.alloc a ~size:32 in
  check "reused now" true (r1 = p);
  Alloc.Durable.check_chains a

let limbo_counts () =
  let _, em = mk_em () in
  let a = Alloc.Durable.create em in
  let cls = Alloc.Size_class.class_of_payload 32 in
  let ps = List.init 10 (fun _ -> Alloc.Durable.alloc a ~size:32) in
  List.iter (Alloc.Durable.dealloc a) ps;
  check_int "limbo holds them" 10 (Alloc.Durable.limbo_count a ~cls);
  check_int "free empty" 0 (Alloc.Durable.free_count a ~cls);
  Epoch.Manager.advance em;
  check_int "limbo empty" 0 (Alloc.Durable.limbo_count a ~cls);
  check_int "free holds them" 10 (Alloc.Durable.free_count a ~cls)

let alloc_rollback_on_crash () =
  (* Bump allocations of a failed epoch are reclaimed. *)
  let r, em = mk_em () in
  let a = Alloc.Durable.create em in
  Epoch.Manager.advance em;
  let bump0 = Alloc.Durable.bump_position a in
  for _ = 1 to 50 do
    ignore (Alloc.Durable.alloc a ~size:32)
  done;
  check "bump moved" true (Alloc.Durable.bump_position a > bump0);
  let rng = Util.Rng.create ~seed:99 in
  Nvm.Region.crash r rng;
  let em2 = Epoch.Manager.open_after_crash r in
  let a2 = Alloc.Durable.open_after_crash em2 in
  check_int "bump rolled back" bump0 (Alloc.Durable.bump_position a2);
  Alloc.Durable.check_chains a2

let dealloc_rollback_on_crash () =
  (* Deallocations of a failed epoch are undone: the chunk is live again
     and the free/limbo lists match the epoch start. *)
  let r, em = mk_em () in
  let a = Alloc.Durable.create em in
  let cls = Alloc.Size_class.class_of_payload 32 in
  let ps = List.init 5 (fun _ -> Alloc.Durable.alloc a ~size:32) in
  Epoch.Manager.advance em;
  List.iter (Alloc.Durable.dealloc a) ps;
  check_int "limbo full" 5 (Alloc.Durable.limbo_count a ~cls);
  let rng = Util.Rng.create ~seed:7 in
  Nvm.Region.crash r rng;
  let em2 = Epoch.Manager.open_after_crash r in
  let a2 = Alloc.Durable.open_after_crash em2 in
  Epoch.Manager.advance em2;
  check_int "limbo rolled back" 0 (Alloc.Durable.limbo_count a2 ~cls);
  check_int "free rolled back" 0 (Alloc.Durable.free_count a2 ~cls);
  Alloc.Durable.check_chains a2

let free_list_survives_completed_epochs () =
  let r, em = mk_em () in
  let a = Alloc.Durable.create em in
  let cls = Alloc.Size_class.class_of_payload 32 in
  let ps = List.init 20 (fun _ -> Alloc.Durable.alloc a ~size:32) in
  List.iter (Alloc.Durable.dealloc a) ps;
  Epoch.Manager.advance em;
  (* Checkpoint happened: the merged free list is durable state. *)
  let rng = Util.Rng.create ~seed:3 in
  Nvm.Region.crash r rng;
  let em2 = Epoch.Manager.open_after_crash r in
  let a2 = Alloc.Durable.open_after_crash em2 in
  Epoch.Manager.advance em2;
  check_int "free list intact" 20 (Alloc.Durable.free_count a2 ~cls);
  (* And all 20 chunks can be re-allocated. *)
  let pops0 = count r "alloc.freelist_allocs" in
  let qs = List.init 20 (fun _ -> Alloc.Durable.alloc a2 ~size:32) in
  check_int "no bump needed" 20 (List.length (List.sort_uniq compare qs));
  check_int "popped from free list" 20
    (count r "alloc.freelist_allocs" - pops0)

let limbo_merge_after_crash_rebuilds_tail () =
  (* Crash with a non-empty limbo whose transient tail is lost; the next
     merge must walk the chain. *)
  let r, em = mk_em () in
  let a = Alloc.Durable.create em in
  let cls = Alloc.Size_class.class_of_payload 32 in
  let ps = List.init 8 (fun _ -> Alloc.Durable.alloc a ~size:32) in
  Epoch.Manager.advance em;
  List.iter (Alloc.Durable.dealloc a) ps;
  (* Make the whole epoch durable, then crash in the NEXT epoch so the
     deallocations belong to a completed epoch. *)
  Epoch.Manager.advance em;
  ignore (Alloc.Durable.alloc a ~size:32);
  let rng = Util.Rng.create ~seed:11 in
  Nvm.Region.crash r rng;
  let em2 = Epoch.Manager.open_after_crash r in
  let a2 = Alloc.Durable.open_after_crash em2 in
  (* The merge ran inside the crashed epoch and was rolled back; recovery's
     final advance must re-merge by walking the persisted chain. *)
  Epoch.Manager.advance em2;
  check_int "limbo drained" 0 (Alloc.Durable.limbo_count a2 ~cls);
  check_int "free has all 8" 8 (Alloc.Durable.free_count a2 ~cls);
  Alloc.Durable.check_chains a2

let heap_exhaustion_raises () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 64 * 1024;
      extlog_bytes = 8 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let em = Epoch.Manager.create r in
  let a = Alloc.Durable.create em in
  check "raises Heap_full" true
    (try
       for _ = 1 to 100_000 do
         ignore (Alloc.Durable.alloc a ~size:32)
       done;
       false
     with Alloc.Durable.Heap_full -> true)

(* --- transient allocators ----------------------------------------------- *)

let transient_pool_recycles () =
  let r, _ = mk_em () in
  let a = Alloc.Transient.create Alloc.Transient.Pool r in
  let p = Alloc.Transient.alloc a ~size:32 in
  Alloc.Transient.dealloc a p;
  let q = Alloc.Transient.alloc a ~size:32 in
  check "recycled immediately (no EBR)" true (p = q)

let transient_general_charges_more () =
  let r1, _ = mk_em () in
  let r2, _ = mk_em () in
  let pool = Alloc.Transient.create Alloc.Transient.Pool r1 in
  let gen = Alloc.Transient.create Alloc.Transient.General r2 in
  for _ = 1 to 1000 do
    ignore (Alloc.Transient.alloc pool ~size:32);
    ignore (Alloc.Transient.alloc gen ~size:32)
  done;
  let t1 = Nvm.Stats.sim_ns (Nvm.Region.stats r1) in
  let t2 = Nvm.Stats.sim_ns (Nvm.Region.stats r2) in
  check "general-purpose allocator costs more" true (t2 > t1 *. 2.0)

let tests =
  ( "alloc",
    [
      Alcotest.test_case "size classes are 64-multiples" `Quick classes_are_64_multiples;
      Alcotest.test_case "class selection" `Quick class_selection;
      Alcotest.test_case "payload addressing" `Quick payload_addressing;
      Alcotest.test_case "header roundtrip" `Quick header_roundtrip;
      Alcotest.test_case "header first touch bumps ctr" `Quick header_first_touch_bumps_counter;
      Alcotest.test_case "header torn write detected" `Quick header_torn_write_detected;
      QCheck_alcotest.to_alcotest header_encoding_property;
      Alcotest.test_case "meta line rollback" `Quick meta_line_rollback;
      Alcotest.test_case "meta line keeps completed epoch" `Quick meta_line_no_rollback_when_epoch_completed;
      Alcotest.test_case "alloc basics" `Quick alloc_basic;
      Alcotest.test_case "EBR delays reuse" `Quick dealloc_reuses_after_epoch;
      Alcotest.test_case "limbo merge counts" `Quick limbo_counts;
      Alcotest.test_case "bump rollback on crash" `Quick alloc_rollback_on_crash;
      Alcotest.test_case "dealloc rollback on crash" `Quick dealloc_rollback_on_crash;
      Alcotest.test_case "free list survives checkpoints" `Quick free_list_survives_completed_epochs;
      Alcotest.test_case "limbo merge rebuilds tail" `Quick limbo_merge_after_crash_rebuilds_tail;
      Alcotest.test_case "heap exhaustion" `Quick heap_exhaustion_raises;
      Alcotest.test_case "transient pool recycles" `Quick transient_pool_recycles;
      Alcotest.test_case "general allocator costs more" `Quick transient_general_charges_more;
    ] )
