(* Tests for the simulated NVM substrate: PCSO semantics, persistence
   instructions, crash injection, eviction and statistics. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let small_cfg ?(crash_support = Nvm.Config.Precise) ?max_dirty_lines () =
  {
    Nvm.Config.default with
    Nvm.Config.size_bytes = 1024 * 1024;
    extlog_bytes = 64 * 1024;
    crash_support;
    max_dirty_lines;
  }

let mk ?crash_support ?max_dirty_lines () =
  Nvm.Region.create (small_cfg ?crash_support ?max_dirty_lines ())

(* --- basic loads/stores ------------------------------------------------ *)

let rw_roundtrip () =
  let r = mk () in
  Nvm.Region.write_i64 r 4096 0x1122334455667788L;
  check_i64 "i64" 0x1122334455667788L (Nvm.Region.read_i64 r 4096);
  Nvm.Region.write_u8 r 5000 0xab;
  check_int "u8" 0xab (Nvm.Region.read_u8 r 5000);
  let b = Bytes.of_string "hello, nvm world" in
  Nvm.Region.write_bytes r 8000 b;
  Alcotest.(check string) "bytes" "hello, nvm world"
    (Bytes.to_string (Nvm.Region.read_bytes r 8000 ~len:16))

let unaligned_i64_rejected () =
  let r = mk () in
  Alcotest.check_raises "unaligned write" (Invalid_argument "Region.write_i64: unaligned")
    (fun () -> Nvm.Region.write_i64 r 4097 1L)

let out_of_bounds_rejected () =
  let r = mk () in
  check "oob caught" true
    (try
       Nvm.Region.write_i64 r (1024 * 1024) 1L;
       false
     with Invalid_argument _ -> true)

let overlong_length_rejected_at_once () =
  (* Regression: [addr + len] wrapped for a length near [max_int] (a
     damaged length word), so the bounds check passed and the read
     charged ~2^56 lines before failing. *)
  let r = mk () in
  let reads0 = (Nvm.Region.stats r).Nvm.Stats.reads in
  let rejected name f =
    check name true
      (try
         ignore (f ());
         false
       with Invalid_argument m ->
         String.starts_with ~prefix:"Region: address range" m)
  in
  let len = max_int - 500 in
  rejected "read_string" (fun () -> Nvm.Region.read_string r 1000 ~len);
  rejected "read_bytes" (fun () -> Nvm.Region.read_bytes r 1000 ~len);
  check_int "nothing charged" reads0 (Nvm.Region.stats r).Nvm.Stats.reads

let blit_within_copies () =
  let r = mk () in
  Nvm.Region.write_bytes r 4096 (Bytes.of_string "abcdefgh12345678");
  Nvm.Region.blit_within r ~src:4096 ~dst:8192 ~len:16;
  Alcotest.(check string) "copied" "abcdefgh12345678"
    (Bytes.to_string (Nvm.Region.read_bytes r 8192 ~len:16))

(* --- persistence ------------------------------------------------------- *)

let crash_without_flush_loses_data () =
  let r = mk () in
  Nvm.Region.write_i64 r 4096 42L;
  Nvm.Region.crash_persist_none r;
  check_i64 "lost" 0L (Nvm.Region.read_i64 r 4096)

let clwb_sfence_persists () =
  let r = mk () in
  Nvm.Region.write_i64 r 4096 42L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.sfence r;
  Nvm.Region.crash_persist_none r;
  check_i64 "kept" 42L (Nvm.Region.read_i64 r 4096)

let clwb_without_sfence_not_guaranteed () =
  (* clwb alone is asynchronous: with a worst-case crash nothing commits. *)
  let r = mk () in
  Nvm.Region.write_i64 r 4096 42L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.crash_persist_none r;
  check_i64 "not guaranteed" 0L (Nvm.Region.read_i64 r 4096)

let wbinvd_persists_everything () =
  let r = mk () in
  for i = 0 to 99 do
    Nvm.Region.write_i64 r (4096 + (i * 64)) (Int64.of_int i)
  done;
  Nvm.Region.wbinvd r;
  check_int "all clean" 0 (Nvm.Region.dirty_line_count r);
  Nvm.Region.crash_persist_none r;
  for i = 0 to 99 do
    check_i64 "survives" (Int64.of_int i) (Nvm.Region.read_i64 r (4096 + (i * 64)))
  done

let crash_all_equals_flush () =
  let r = mk () in
  Nvm.Region.write_i64 r 4096 7L;
  Nvm.Region.write_i64 r 4160 8L;
  Nvm.Region.crash_persist_all r;
  check_i64 "kept 1" 7L (Nvm.Region.read_i64 r 4096);
  check_i64 "kept 2" 8L (Nvm.Region.read_i64 r 4160)

(* --- PCSO: same-line prefix semantics ---------------------------------- *)

let pcso_same_line_prefix () =
  (* Writes w1 w2 w3 to one line: the crash may keep any prefix, never a
     subset that skips an earlier write. Enumerate all prefixes. *)
  for k = 0 to 3 do
    let r = mk () in
    Nvm.Region.write_i64 r 4096 1L;
    Nvm.Region.write_i64 r 4104 2L;
    Nvm.Region.write_i64 r 4112 3L;
    Nvm.Region.crash_with r ~choose:(fun ~line:_ ~nwrites ->
        Alcotest.(check int) "three pending" 3 nwrites;
        k);
    let v1 = Nvm.Region.read_i64 r 4096 in
    let v2 = Nvm.Region.read_i64 r 4104 in
    let v3 = Nvm.Region.read_i64 r 4112 in
    let expect = [| (0L, 0L, 0L); (1L, 0L, 0L); (1L, 2L, 0L); (1L, 2L, 3L) |] in
    let e1, e2, e3 = expect.(k) in
    check_i64 "w1" e1 v1;
    check_i64 "w2" e2 v2;
    check_i64 "w3" e3 v3
  done

let pcso_same_word_overwrites () =
  (* Two writes to the SAME word: prefix 1 must expose the first value. *)
  let r = mk () in
  Nvm.Region.write_i64 r 4096 10L;
  Nvm.Region.write_i64 r 4096 20L;
  Nvm.Region.crash_with r ~choose:(fun ~line:_ ~nwrites:_ -> 1);
  check_i64 "first value" 10L (Nvm.Region.read_i64 r 4096)

let pcso_lines_independent () =
  (* Different lines may persist different prefixes: the later line's write
     can survive while the earlier line's is lost. *)
  let r = mk () in
  Nvm.Region.write_i64 r 4096 1L;
  (* line A, first *)
  Nvm.Region.write_i64 r 8192 2L;
  (* line B, second *)
  Nvm.Region.crash_with r ~choose:(fun ~line ~nwrites:_ ->
      if line = 8192 / 64 then 1 else 0);
  check_i64 "A lost" 0L (Nvm.Region.read_i64 r 4096);
  check_i64 "B kept" 2L (Nvm.Region.read_i64 r 8192)

let pcso_random_crash_is_prefix =
  QCheck.Test.make ~name:"random crash keeps a per-line prefix" ~count:200
    QCheck.(pair (int_bound 1000000) (list_of_size Gen.(int_range 1 20) (int_bound 7)))
    (fun (seed, writes) ->
      QCheck.assume (writes <> []);
      let r = mk () in
      (* Write an increasing stamp to word [w] of one line; record order. *)
      List.iteri
        (fun i w -> Nvm.Region.write_i64 r (4096 + (8 * w)) (Int64.of_int (i + 1)))
        writes;
      let rng = Util.Rng.create ~seed in
      Nvm.Region.crash r rng;
      (* Persisted state must equal replaying some prefix k. *)
      let words () = List.init 8 (fun w -> Nvm.Region.read_i64 r (4096 + (8 * w))) in
      let got = words () in
      let model = Array.make 8 0L in
      let matches_prefix k =
        Array.fill model 0 8 0L;
        List.iteri
          (fun i w -> if i < k then model.(w) <- Int64.of_int (i + 1))
          writes;
        got = Array.to_list model
      in
      let n = List.length writes in
      let rec any k = k <= n && (matches_prefix k || any (k + 1)) in
      any 0)

let multi_line_write_splits () =
  (* A 16-byte store straddling a line boundary becomes two per-line
     stores; the second may persist without the first. *)
  let r = mk () in
  let addr = 4096 + 56 in
  Nvm.Region.write_bytes r addr (Bytes.make 16 'x');
  Nvm.Region.crash_with r ~choose:(fun ~line ~nwrites:_ ->
      if line = (4096 + 64) / 64 then 1 else 0);
  check_int "first half lost" 0 (Nvm.Region.read_u8 r addr);
  check_int "second half kept" (Char.code 'x') (Nvm.Region.read_u8 r (4096 + 64))

(* --- eviction and capacity --------------------------------------------- *)

let eviction_bounds_dirty_lines () =
  let r = mk ~max_dirty_lines:64 () in
  for i = 0 to 999 do
    Nvm.Region.write_i64 r (4096 + (i * 64)) (Int64.of_int i)
  done;
  check "dirty bounded" true (Nvm.Region.dirty_line_count r <= 64 + 1);
  check "evictions happened" true
    ((Nvm.Region.stats r).Nvm.Stats.evictions > 0)

let evicted_lines_survive_crash () =
  (* Background write-backs persist data even without explicit flushes. *)
  let r = mk ~max_dirty_lines:8 () in
  for i = 0 to 99 do
    Nvm.Region.write_i64 r (4096 + (i * 64)) (Int64.of_int (i + 1))
  done;
  Nvm.Region.crash_persist_none r;
  let survived = ref 0 in
  for i = 0 to 99 do
    if Nvm.Region.read_i64 r (4096 + (i * 64)) = Int64.of_int (i + 1) then
      incr survived
  done;
  check "most lines were evicted to NVM" true (!survived >= 80)

let line_log_overflow_evicts () =
  (* Hammering one line beyond the log bound behaves like an eviction:
     bounded memory, still crash-consistent (prefix of the tail). *)
  let r = mk () in
  for i = 1 to 10_000 do
    Nvm.Region.write_i64 r 4096 (Int64.of_int i)
  done;
  Nvm.Region.crash_with r ~choose:(fun ~line:_ ~nwrites:_ -> 0);
  let v = Int64.to_int (Nvm.Region.read_i64 r 4096) in
  check "value is some prior state" true (v >= 0 && v <= 10_000)

(* --- statistics and clock ---------------------------------------------- *)

let stats_count_events () =
  let r = mk () in
  let s0 = Nvm.Stats.snapshot (Nvm.Region.stats r) in
  Nvm.Region.write_i64 r 4096 1L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.sfence r;
  Nvm.Region.release_fence r;
  Nvm.Region.wbinvd r;
  let d = Nvm.Stats.diff ~after:(Nvm.Region.stats r) ~before:s0 in
  check_int "writes" 1 d.Nvm.Stats.writes;
  check_int "clwb" 1 d.Nvm.Stats.clwb;
  check_int "sfence" 1 d.Nvm.Stats.sfence;
  check_int "release" 1 d.Nvm.Stats.release_fence;
  check_int "wbinvd" 1 d.Nvm.Stats.wbinvd

let clock_prices_events () =
  let cfg = small_cfg () in
  let r = Nvm.Region.create cfg in
  let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  Nvm.Region.write_i64 r 4096 1L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.sfence r;
  let c = cfg.Nvm.Config.cost in
  (* The first touch of the line also pays one LLC miss. *)
  let expect =
    c.Nvm.Config.write_ns +. c.Nvm.Config.mem_miss_ns +. c.Nvm.Config.clwb_ns
    +. c.Nvm.Config.sfence_ns
  in
  let d = Nvm.Stats.sim_ns (Nvm.Region.stats r) -. t0 in
  Alcotest.(check (float 0.001)) "price" expect d

let sfence_extra_latency_charged () =
  let cfg = Nvm.Config.with_sfence_extra_ns (small_cfg ()) 1000.0 in
  let r = Nvm.Region.create cfg in
  let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  Nvm.Region.sfence r;
  let d = Nvm.Stats.sim_ns (Nvm.Region.stats r) -. t0 in
  check "includes emulated latency" true (d >= 1000.0)

let llc_misses_priced_once () =
  let cfg = small_cfg () in
  let r = Nvm.Region.create cfg in
  let c = cfg.Nvm.Config.cost in
  let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  ignore (Nvm.Region.read_i64 r 4096);
  let t1 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  Alcotest.(check (float 0.001)) "first access misses"
    (c.Nvm.Config.read_ns +. c.Nvm.Config.mem_miss_ns)
    (t1 -. t0);
  ignore (Nvm.Region.read_i64 r 4104);
  let t2 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  Alcotest.(check (float 0.001)) "same line hits" c.Nvm.Config.read_ns (t2 -. t1);
  ignore (Nvm.Region.read_i64 r 8192);
  let t3 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  Alcotest.(check (float 0.001)) "other line misses"
    (c.Nvm.Config.read_ns +. c.Nvm.Config.mem_miss_ns)
    (t3 -. t2)

let llc_rewards_locality () =
  (* A skewed access stream over a large footprint must be cheaper than a
     uniform one (the paper's zipfian-beats-uniform effect). *)
  let footprint = 512 * 1024 in
  let run hot =
    let r = Nvm.Region.create (small_cfg ()) in
    let rng = Util.Rng.create ~seed:5 in
    let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
    for _ = 1 to 20_000 do
      let addr =
        if hot && Util.Rng.int rng 10 < 9 then 8 * Util.Rng.int rng 64
        else 8 * Util.Rng.int rng (footprint / 8)
      in
      ignore (Nvm.Region.read_i64 r (addr land lnot 7))
    done;
    Nvm.Stats.sim_ns (Nvm.Region.stats r) -. t0
  in
  check "locality is cheaper" true (run true < run false /. 2.0)

(* A region four times the simulated LLC (2^18 lines of 64 B), so line
   ids use the bits above the slot index that the tags keep. *)
let llc_slots = 1 lsl 18
let big_cfg () =
  {
    Nvm.Config.default with
    Nvm.Config.size_bytes = 64 * 1024 * 1024;
    extlog_bytes = 64 * 1024;
    crash_support = Nvm.Config.Counting;
  }

let llc_aliases_evict_each_other () =
  let cfg = big_cfg () in
  let r = Nvm.Region.create cfg in
  let c = cfg.Nvm.Config.cost in
  let miss = c.Nvm.Config.read_ns +. c.Nvm.Config.mem_miss_ns in
  let a = 4096 and b = 4096 + (llc_slots * 64) and d = 4096 + (3 * llc_slots * 64) in
  let charge addr =
    let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
    ignore (Nvm.Region.read_i64 r addr);
    Nvm.Stats.sim_ns (Nvm.Region.stats r) -. t0
  in
  ignore (charge a);
  Alcotest.(check (float 0.001)) "a hits" c.Nvm.Config.read_ns (charge a);
  List.iter
    (fun (name, addr) -> Alcotest.(check (float 0.001)) name miss (charge addr))
    [ ("b evicts a", b); ("a evicts b", a); ("d evicts a", d); ("b evicts d", b) ]

(* The LLC as a full-tag direct-mapped cache, kept here: every access of a
   seeded stream must charge what this model charges, bit for bit. *)
let llc_matches_full_tag_model () =
  let cfg = big_cfg () in
  let r = Nvm.Region.create cfg in
  let c = cfg.Nvm.Config.cost in
  let tags = Array.make llc_slots (-1) in
  let clock = ref (Nvm.Stats.sim_ns (Nvm.Region.stats r)) in
  let touch line =
    let slot = line land (llc_slots - 1) in
    if tags.(slot) <> line then begin
      tags.(slot) <- line;
      clock := !clock +. c.Nvm.Config.mem_miss_ns
    end
  in
  let rng = Util.Rng.create ~seed:23 in
  let nlines = cfg.Nvm.Config.size_bytes / 64 in
  (* Half the accesses go to four aliases of 64 hot slots, so hits and
     conflict misses are both common; the rest are uniform. *)
  let hot = Array.init 64 (fun _ -> Util.Rng.int rng llc_slots) in
  let line () =
    if Util.Rng.bool rng then
      hot.(Util.Rng.int rng 64) + (llc_slots * Util.Rng.int rng (nlines / llc_slots))
    else Util.Rng.int rng nlines
  in
  for step = 1 to 50_000 do
    let addr = (64 * line ()) + (8 * Util.Rng.int rng 8) in
    (match Util.Rng.int rng 3 with
    | 0 ->
        ignore (Nvm.Region.read_i64 r addr);
        clock := !clock +. c.Nvm.Config.read_ns;
        touch (addr / 64)
    | 1 ->
        Nvm.Region.write_i64 r addr (Int64.of_int step);
        touch (addr / 64);
        clock := !clock +. c.Nvm.Config.write_ns
    | _ ->
        let len = 1 + Util.Rng.int rng 160 in
        let addr = min addr (cfg.Nvm.Config.size_bytes - len) in
        ignore (Nvm.Region.read_string r addr ~len);
        for l = addr / 64 to (addr + len - 1) / 64 do
          clock := !clock +. c.Nvm.Config.read_ns;
          touch l
        done);
    if Nvm.Stats.sim_ns (Nvm.Region.stats r) <> !clock then
      Alcotest.failf "step %d: charged %.17g, full-tag model %.17g" step
        (Nvm.Stats.sim_ns (Nvm.Region.stats r))
        !clock
  done

let counting_mode_rejects_crash () =
  let r = mk ~crash_support:Nvm.Config.Counting () in
  Nvm.Region.write_i64 r 4096 1L;
  check "crash rejected" true
    (try
       Nvm.Region.crash_persist_none r;
       false
     with Failure _ -> true)

let crash_leaves_llc_cold () =
  (* Regression: crash_with used to leave the LLC tag array warm, so the
     first post-crash read of a previously-hot line was priced as a hit.
     Power loss empties the cache hierarchy; the read must pay a miss. *)
  let cfg = small_cfg () in
  let r = Nvm.Region.create cfg in
  let c = cfg.Nvm.Config.cost in
  Nvm.Region.write_i64 r 4096 42L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.sfence r;
  ignore (Nvm.Region.read_i64 r 4096);
  (* line is now hot *)
  Nvm.Region.crash_persist_all r;
  let t0 = Nvm.Stats.sim_ns (Nvm.Region.stats r) in
  ignore (Nvm.Region.read_i64 r 4096);
  let d = Nvm.Stats.sim_ns (Nvm.Region.stats r) -. t0 in
  Alcotest.(check (float 0.001)) "first post-crash read misses"
    (c.Nvm.Config.read_ns +. c.Nvm.Config.mem_miss_ns)
    d

let clwb_dedups_pending_writebacks () =
  (* Regression: clwb on an already-pending line used to push a duplicate
     entry into the write-back queue. The instruction (and its stat) still
     counts, but the queue holds each line once. *)
  let r = mk () in
  Nvm.Region.write_i64 r 4096 1L;
  Nvm.Region.write_i64 r 8192 2L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.clwb r 4096;
  Nvm.Region.clwb r 8192;
  Nvm.Region.clwb r 4096;
  check_int "queue holds each line once" 2 (Nvm.Region.pending_wb_count r);
  check_int "every clwb still counted" 4 (Nvm.Region.stats r).Nvm.Stats.clwb;
  Nvm.Region.sfence r;
  check_int "sfence drains the queue" 0 (Nvm.Region.pending_wb_count r);
  (* The pending flag must be cleared by the drain, not stuck. *)
  Nvm.Region.write_i64 r 4096 3L;
  Nvm.Region.clwb r 4096;
  check_int "line can be queued again" 1 (Nvm.Region.pending_wb_count r)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let stats_outputs_cover_every_field () =
  (* Regression: pp used to omit wbinvd_lines. Give every counter a
     distinct value and require each to appear in pp, snapshot and diff. *)
  let r = mk () in
  let s = Nvm.Region.stats r in
  let before = Nvm.Stats.snapshot s in
  s.Nvm.Stats.writes <- 2;
  s.Nvm.Stats.reads <- 3;
  s.Nvm.Stats.bytes_written <- 5;
  s.Nvm.Stats.clwb <- 7;
  s.Nvm.Stats.sfence <- 11;
  s.Nvm.Stats.release_fence <- 13;
  s.Nvm.Stats.wbinvd <- 17;
  s.Nvm.Stats.wbinvd_lines <- 19;
  s.Nvm.Stats.lines_committed <- 23;
  s.Nvm.Stats.sweep_quanta <- 37;
  s.Nvm.Stats.sweep_lines <- 41;
  s.Nvm.Stats.evictions <- 29;
  s.Nvm.Stats.crashes <- 31;
  check_int "int_fields is exhaustive" 13 (List.length (Nvm.Stats.int_fields s));
  let distinct =
    List.sort_uniq compare (List.map snd (Nvm.Stats.int_fields s))
  in
  check_int "test gave every field a distinct value" 13 (List.length distinct);
  let printed = Format.asprintf "%a" Nvm.Stats.pp s in
  List.iter
    (fun (name, v) ->
      let cell = Printf.sprintf "%s=%d" name v in
      check (cell ^ " printed") true (contains ~sub:cell printed))
    (Nvm.Stats.int_fields s);
  check "sim time printed" true (contains ~sub:"sim_ms=" printed);
  (* snapshot and diff carry every field through. *)
  let snap = Nvm.Stats.int_fields (Nvm.Stats.snapshot s) in
  List.iter2
    (fun (n, a) (n', b) ->
      Alcotest.(check string) "field order" n n';
      check_int ("snapshot " ^ n) a b)
    (Nvm.Stats.int_fields s) snap;
  let d = Nvm.Stats.diff ~after:s ~before in
  List.iter2
    (fun (n, a) ((_, b), (_, b0)) -> check_int ("diff " ^ n) a (b - b0))
    (Nvm.Stats.int_fields d)
    (List.combine (Nvm.Stats.int_fields s) (Nvm.Stats.int_fields before))

(* --- superblock --------------------------------------------------------- *)

let superblock_format_check () =
  let r = mk () in
  check "unformatted" false (Nvm.Superblock.is_formatted r);
  Nvm.Superblock.format r;
  check "formatted" true (Nvm.Superblock.is_formatted r);
  Nvm.Superblock.check r;
  (* Formatting is immediately durable. *)
  Nvm.Region.crash_persist_none r;
  check "survives crash" true (Nvm.Superblock.is_formatted r)

let layout_lines_disjoint () =
  (* Allocator metadata lines must be distinct cache lines. *)
  let lines = ref [] in
  for i = 0 to Nvm.Layout.max_size_classes - 1 do
    lines := Nvm.Layout.alloc_class_free_line i :: Nvm.Layout.alloc_class_limbo_line i :: !lines
  done;
  lines := Nvm.Layout.off_bump :: Nvm.Layout.off_durable_epoch :: !lines;
  let ids = List.map (fun o -> o / 64) !lines in
  let sorted = List.sort_uniq compare ids in
  check_int "all distinct lines" (List.length ids) (List.length sorted);
  check "inside superblock" true
    (List.for_all (fun o -> o < Nvm.Layout.superblock_bytes) !lines)

let tests =
  ( "nvm",
    [
      Alcotest.test_case "read/write roundtrip" `Quick rw_roundtrip;
      Alcotest.test_case "unaligned i64 rejected" `Quick unaligned_i64_rejected;
      Alcotest.test_case "out of bounds rejected" `Quick out_of_bounds_rejected;
      Alcotest.test_case "overlong length rejected at once" `Quick
        overlong_length_rejected_at_once;
      Alcotest.test_case "blit within" `Quick blit_within_copies;
      Alcotest.test_case "crash loses unflushed data" `Quick crash_without_flush_loses_data;
      Alcotest.test_case "clwb+sfence persists" `Quick clwb_sfence_persists;
      Alcotest.test_case "clwb alone insufficient" `Quick clwb_without_sfence_not_guaranteed;
      Alcotest.test_case "wbinvd persists everything" `Quick wbinvd_persists_everything;
      Alcotest.test_case "crash_persist_all" `Quick crash_all_equals_flush;
      Alcotest.test_case "PCSO same-line prefixes" `Quick pcso_same_line_prefix;
      Alcotest.test_case "PCSO same-word overwrite" `Quick pcso_same_word_overwrites;
      Alcotest.test_case "PCSO lines independent" `Quick pcso_lines_independent;
      QCheck_alcotest.to_alcotest pcso_random_crash_is_prefix;
      Alcotest.test_case "multi-line write splits" `Quick multi_line_write_splits;
      Alcotest.test_case "eviction bounds dirty set" `Quick eviction_bounds_dirty_lines;
      Alcotest.test_case "evicted lines survive" `Quick evicted_lines_survive_crash;
      Alcotest.test_case "line-log overflow evicts" `Quick line_log_overflow_evicts;
      Alcotest.test_case "stats count events" `Quick stats_count_events;
      Alcotest.test_case "clock prices events" `Quick clock_prices_events;
      Alcotest.test_case "sfence extra latency" `Quick sfence_extra_latency_charged;
      Alcotest.test_case "LLC misses priced once" `Quick llc_misses_priced_once;
      Alcotest.test_case "LLC rewards locality" `Quick llc_rewards_locality;
      Alcotest.test_case "LLC aliases evict each other" `Quick
        llc_aliases_evict_each_other;
      Alcotest.test_case "LLC = full-tag model on 64 MiB" `Quick
        llc_matches_full_tag_model;
      Alcotest.test_case "counting mode rejects crash" `Quick counting_mode_rejects_crash;
      Alcotest.test_case "crash leaves LLC cold" `Quick crash_leaves_llc_cold;
      Alcotest.test_case "clwb dedups pending write-backs" `Quick clwb_dedups_pending_writebacks;
      Alcotest.test_case "stats outputs cover every field" `Quick stats_outputs_cover_every_field;
      Alcotest.test_case "superblock format/check" `Quick superblock_format_check;
      Alcotest.test_case "layout lines disjoint" `Quick layout_lines_disjoint;
    ] )
