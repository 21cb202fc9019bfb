(* Tail-latency observability: the stall ledger's ring and scoping, the
   cause-enum/Perfetto naming contract, and the bench runner's per-op
   latency recording with stall attribution in both loop modes. The
   runner tests lean on the simulated clock being a pure function of
   (seed, config), so "deterministic" means bit-identical. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
module R = Bench_harness.Runner
module LR = Bench_harness.Latency_report
module Y = Workload.Ycsb

(* --- stall ledger ------------------------------------------------------- *)

(* The per-cause histogram of a recorder's registry. *)
let stall_hist reg cause =
  match
    Obs.Registry.find_histogram reg ("stall." ^ Obs.Stall.cause_name cause ^ "_ns")
  with
  | Some h -> h
  | None -> Alcotest.fail "missing stall histogram"

let ring_wraps_but_totals_do_not () =
  let reg = Obs.Registry.create () in
  let t = Obs.Stall.create ~capacity:8 ~registry:reg () in
  for i = 0 to 19 do
    Obs.Stall.record t Obs.Stall.Extlog
      ~start_ns:(float_of_int (100 * i))
      ~dur_ns:10.0
  done;
  check_int "ring holds capacity" 8 (Obs.Stall.length t);
  check_int "all entries admitted" 20 (Obs.Stall.admitted t);
  let h = stall_hist reg Obs.Stall.Extlog in
  check_int "histogram count survives the wrap" 20 (Obs.Histogram.count h);
  check "histogram total survives the wrap" true (Obs.Histogram.sum h = 200.0);
  (* The ring keeps the newest entries, oldest first. *)
  match Obs.Stall.entries t with
  | first :: _ ->
      check "oldest surviving entry is #12" true
        (first.Obs.Stall.start_ns = 1200.0)
  | [] -> Alcotest.fail "ring empty after 20 records"

let min_dur_filters_ring_not_totals () =
  let reg = Obs.Registry.create () in
  let t = Obs.Stall.create ~capacity:8 ~registry:reg () in
  Obs.Stall.set_min_dur_ns t 50.0;
  Obs.Stall.record t Obs.Stall.Clwb_sweep ~start_ns:0.0 ~dur_ns:10.0;
  Obs.Stall.record t Obs.Stall.Clwb_sweep ~start_ns:100.0 ~dur_ns:60.0;
  check_int "short entry kept out of the ring" 1 (Obs.Stall.length t);
  let h = stall_hist reg Obs.Stall.Clwb_sweep in
  check_int "both counted" 2 (Obs.Histogram.count h);
  check "both totalled" true (Obs.Histogram.sum h = 70.0)

let outermost_scope_wins () =
  let now = ref 0.0 in
  let at ns = now := ns in
  let t = Obs.Stall.create ~clock:(fun () -> !now) () in
  let fence =
    Obs.Stall.point t ~name:"sfence" ~histogram:"nvm.sfence_ns"
      Obs.Stall.Clwb_sweep
  in
  at 1000.0;
  Obs.Stall.enter t Obs.Stall.Epoch_advance;
  (* Nested scope and a point inside it: both swallowed. *)
  at 1100.0;
  Obs.Stall.enter t Obs.Stall.Extlog;
  at 1160.0;
  Obs.Stall.leaf t fence ~dur_ns:10.0 ~arg:1;
  at 1200.0;
  Obs.Stall.exit t;
  at 1500.0;
  Obs.Stall.exit t;
  (match Obs.Stall.entries t with
  | [ e ] ->
      check "root cause" true (e.Obs.Stall.cause = Obs.Stall.Epoch_advance);
      check "spans the whole scope" true
        (e.Obs.Stall.start_ns = 1000.0 && e.Obs.Stall.dur_ns = 500.0)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  (* Outside any scope the point is a stall of its own cause. *)
  at 2010.0;
  Obs.Stall.leaf t fence ~dur_ns:10.0 ~arg:1;
  check_int "free-standing point recorded" 2 (Obs.Stall.length t);
  match List.rev (Obs.Stall.entries t) with
  | e :: _ ->
      check "point cause" true (e.Obs.Stall.cause = Obs.Stall.Clwb_sweep);
      check "point ends now" true (e.Obs.Stall.start_ns = 2000.0)
  | [] -> Alcotest.fail "empty ring"

(* Every cause must have a distinct, stable name: the names are the
   stall.<cause>_ns metric suffixes, the Perfetto slice names and the
   bench report's attribution keys, so a collision would silently merge
   two causes everywhere downstream. *)
let cause_names_are_exhaustive_and_unique () =
  let names = List.map Obs.Stall.cause_name Obs.Stall.all_causes in
  check_int "eight causes" 8 (List.length names);
  (* The wire protocol ships a cause as its index byte; the round trip
     must hold for every cause or remote attribution silently drifts. *)
  List.iter
    (fun c ->
      check "cause index round-trips" true
        (Obs.Stall.cause_of_index (Obs.Stall.cause_index c) = Some c))
    Obs.Stall.all_causes;
  check "out-of-range index is None" true
    (Obs.Stall.cause_of_index (List.length names) = None);
  check_int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      check ("name well-formed: " ^ n) true
        (n <> ""
        && String.for_all
             (fun c -> (c >= 'a' && c <= 'z') || c = '_')
             n))
    names;
  (* The Perfetto export names slices after the causes, verbatim. *)
  let ledger = Obs.Stall.create () in
  List.iteri
    (fun i c ->
      Obs.Stall.record ledger c ~start_ns:(float_of_int (100 * i)) ~dur_ns:5.0)
    Obs.Stall.all_causes;
  let slice_names =
    List.filter_map
      (fun ev -> Option.map Obs.Json.to_string (Obs.Json.find ev "name"))
      (Obs.Perfetto.events_of_stalls ~pid:1 ~tid:7 ledger)
  in
  check "one slice per cause, named after it" true
    (List.sort compare slice_names
    = List.sort compare (List.map (fun n -> "\"" ^ n ^ "\"") names))

(* And the registry wiring: a ledger created against a registry grows one
   stall.<cause>_ns histogram per cause, fed by record. *)
let registry_histograms_per_cause () =
  let reg = Obs.Registry.create () in
  let ledger = Obs.Stall.create ~registry:reg () in
  List.iter
    (fun c -> Obs.Stall.record ledger c ~start_ns:0.0 ~dur_ns:42.0)
    Obs.Stall.all_causes;
  List.iter
    (fun c ->
      let name = "stall." ^ Obs.Stall.cause_name c ^ "_ns" in
      match Obs.Registry.find_histogram reg name with
      | Some h -> check_int ("histogram fed: " ^ name) 1 (Obs.Histogram.count h)
      | None -> Alcotest.fail ("missing histogram " ^ name))
    Obs.Stall.all_causes

(* --- runner: latency recording and attribution -------------------------- *)

(* Small but flush-heavy: short epochs force several wbinvd flushes into
   a few thousand ops, so the tail is epoch-advance-shaped by design. *)
let flushy ~threads ~nkeys =
  R.config_for ~epoch_len_ns:2.0e5 ~nkeys_per_shard:((nkeys / threads) + 1) ()

let run_once ?arrival_rate () =
  let threads = 2 and nkeys = 4_000 in
  R.run ~seed:7 ~threads ~ops_per_thread:5_000
    ~config:(flushy ~threads ~nkeys)
    ?arrival_rate ~variant:Incll.System.Incll ~mix:Y.A ~dist:Y.Zipfian ~nkeys
    ()

let attributed_counts (r : R.result) =
  List.map
    (fun c ->
      Obs.Registry.counter_value r.R.metrics
        ("latency.attributed." ^ Obs.Stall.cause_name c))
    Obs.Stall.all_causes

let latency_json (r : R.result) =
  match Obs.Registry.find_histogram r.R.metrics "op.latency_ns" with
  | Some h -> Obs.Json.to_string (Obs.Histogram.to_json h)
  | None -> Alcotest.fail "run recorded no op.latency_ns histogram"

let attribution_is_deterministic () =
  let a = run_once () and b = run_once () in
  check "attributed counters identical across runs" true
    (attributed_counts a = attributed_counts b);
  check "latency histogram identical across runs" true
    (latency_json a = latency_json b);
  (* Under the flush-heavy config the over-threshold ops exist and are
     overwhelmingly blamed on the epoch flush. *)
  let over =
    Obs.Registry.counter_value a.R.metrics "latency.over_threshold"
  in
  let epoch_adv =
    Obs.Registry.counter_value a.R.metrics "latency.attributed.epoch_advance"
  in
  check "some ops crossed the threshold" true (over > 0);
  check "epoch_advance dominates the attribution" true
    (2 * epoch_adv > over)

let open_loop_is_deterministic () =
  let closed = run_once () in
  let rate = 0.95 *. closed.R.mops_sim *. 1e6 in
  let a = run_once ~arrival_rate:rate () in
  let b = run_once ~arrival_rate:rate () in
  check "open-loop run is flagged" true (a.R.latency.LR.arrival_rate <> None);
  check "open-loop latency histogram identical across runs" true
    (latency_json a = latency_json b);
  check "open-loop attribution identical across runs" true
    (attributed_counts a = attributed_counts b)

(* Coordinated omission: the closed loop only charges a flush to the one
   op that met it, the open loop charges it to every op queued behind it,
   so near capacity the open-loop tail must be far fatter. *)
let open_loop_fattens_the_tail () =
  let closed = run_once () in
  let rate = 0.95 *. closed.R.mops_sim *. 1e6 in
  let opened = run_once ~arrival_rate:rate () in
  let p999 (r : R.result) =
    match Obs.Registry.find_histogram r.R.metrics "op.latency_ns" with
    | Some h -> Obs.Histogram.percentile h 0.999
    | None -> 0.0
  in
  check "open p999 well above closed p999" true
    (p999 opened > 2.0 *. p999 closed);
  (* Both modes saw the same flushes; the open loop just blames them for
     more queued ops. *)
  let over (r : R.result) =
    Obs.Registry.counter_value r.R.metrics "latency.over_threshold"
  in
  check "open loop has at least as many over-threshold ops" true
    (over opened >= over closed)

let spikes_carry_their_evidence () =
  let r = run_once () in
  check "spikes were captured" true (r.R.latency.LR.spikes <> []);
  List.iter
    (fun (s : LR.spike) ->
      check "spike is over threshold" true
        (s.LR.lat_ns > r.R.latency.LR.threshold_ns);
      check "spike cites at least one overlapping stall" true
        (s.LR.stalls <> []))
    r.R.latency.LR.spikes;
  (* Slowest first. *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.LR.lat_ns >= b.LR.lat_ns && sorted tl
    | _ -> true
  in
  check "spikes sorted by latency" true (sorted r.R.latency.LR.spikes)

(* --- the shared latency report ------------------------------------------ *)

let spike ?(shard = 0) index lat_ns =
  {
    LR.shard;
    index;
    tag = '\000';
    start_ns = 0.0;
    lat_ns;
    wall_ns = lat_ns;
    queue_ns = 0.0;
    cause = None;
    stalls = [];
  }

let ids l = List.map (fun s -> (s.LR.shard, s.LR.index)) l

(* The top-k keeps the slowest [spike_k], slowest first; an op tying one
   already kept goes after it, so the first seen stays first. *)
let top_k_keeps_the_slowest () =
  (* 40 ops whose latencies cycle through 0..9 (four ops per value). *)
  let buf =
    List.fold_left LR.insert_spike []
      (List.init 40 (fun i -> spike i (float_of_int (i mod 10))))
  in
  check_int "k kept" LR.spike_k (List.length buf);
  let expected =
    List.concat_map
      (fun v -> List.init 4 (fun j -> (0, v + (10 * j))))
      [ 9; 8; 7; 6 ]
  in
  check "slowest first, ties in first-seen order" true (ids buf = expected);
  (* Merging per-shard lists: ties go to the earlier list. *)
  let a = [ spike ~shard:0 0 5.0; spike ~shard:0 1 3.0 ]
  and b = [ spike ~shard:1 0 5.0; spike ~shard:1 1 4.0 ] in
  check "merge orders by latency, then list" true
    (ids (LR.merge_spikes [ a; b ]) = [ (0, 0); (1, 0); (1, 1); (0, 1) ]);
  check_int "merge keeps k" LR.spike_k
    (List.length (LR.merge_spikes [ buf; buf ]))

(* The remote bench blames an over-threshold op from its reply alone. *)
let remote_attribution_rule () =
  let attr queue_ns cause =
    Bench_harness.Remote.attribute ~threshold_ns:50.0 ~lat_ns:200.0 ~queue_ns
      cause
  in
  let server = Some Obs.Stall.Epoch_advance in
  let net = Some Obs.Stall.Net_queue in
  check "queue >= half the latency" true (attr 100.0 server = net);
  (* Under half the latency, but covering all of it above the (higher)
     threshold: 60 >= 200 - 150. *)
  check "queue >= latency - threshold" true
    (Bench_harness.Remote.attribute ~threshold_ns:150.0 ~lat_ns:200.0
       ~queue_ns:60.0 server
    = net);
  check "otherwise the server's cause" true (attr 10.0 server = server);
  check "no cause, some queue" true (attr 10.0 None = net);
  check "no cause, no queue" true (attr 0.0 None = None)

(* Every gated cell to_json writes is one bench_compare finds through the
   cell list, with the value the report holds. *)
let cells_cover_the_json () =
  let h = Obs.Histogram.create () in
  List.iter (fun x -> Obs.Histogram.record h x) [ 10.0; 20.0; 30000.0 ];
  let stall_totals =
    List.mapi
      (fun i c -> (Obs.Stall.cause_name c, (i, 1000.0 *. float_of_int (i + 1))))
      Obs.Stall.all_causes
  in
  let report =
    {
      LR.threshold_ns = 50.0;
      arrival_rate = Some 1e6;
      latency = h;
      wall = None;
      shards = [ h; h ];
      over_threshold = 1;
      attributed = LR.attribution (fun c -> if c = None then 1 else 0);
      stall_totals;
      spikes = [ spike 2 30000.0 ];
      robust =
        Some
          { LR.ops = 64; retries = 3; reconnects = 1; backoff_ns = 5e5;
            dedup_hits = 1 };
    }
  in
  let json = Obs.Json.of_string (Obs.Json.to_string (LR.to_json report)) in
  let cells = LR.cells json in
  let value label =
    match List.find_opt (fun c -> c.LR.label = label) cells with
    | Some c -> LR.cell_value json c
    | None -> None
  in
  let gated label expected =
    check ("gated cell " ^ label) true (value label = Some expected)
  in
  List.iter
    (fun (label, q) -> gated label (Obs.Histogram.percentile h q))
    [ ("p50", 0.5); ("p99", 0.99); ("p999", 0.999) ];
  List.iter
    (fun (name, (_, total)) -> gated ("stall." ^ name) total)
    stall_totals;
  gated "robust.retries" 3.0;
  gated "robust.reconnects" 1.0;
  gated "robust.backoff_ns" 5e5;
  check "shard p99 shown" true
    (value "shard1 p99" = Some (Obs.Histogram.percentile h 0.99));
  check "every listed cell has a value" true
    (List.for_all (fun c -> LR.cell_value json c <> None) cells)

let tests =
  ( "latency",
    [
      Alcotest.test_case "stall ring wraps, totals don't" `Quick
        ring_wraps_but_totals_do_not;
      Alcotest.test_case "min_dur filters ring only" `Quick
        min_dur_filters_ring_not_totals;
      Alcotest.test_case "outermost scope wins" `Quick outermost_scope_wins;
      Alcotest.test_case "cause names exhaustive + unique" `Quick
        cause_names_are_exhaustive_and_unique;
      Alcotest.test_case "per-cause registry histograms" `Quick
        registry_histograms_per_cause;
      Alcotest.test_case "attribution deterministic on sim clock" `Quick
        attribution_is_deterministic;
      Alcotest.test_case "open loop deterministic" `Quick
        open_loop_is_deterministic;
      Alcotest.test_case "open loop fattens the tail (CO)" `Quick
        open_loop_fattens_the_tail;
      Alcotest.test_case "spikes carry their evidence" `Quick
        spikes_carry_their_evidence;
      Alcotest.test_case "top-k keeps the slowest, first seen first" `Quick
        top_k_keeps_the_slowest;
      Alcotest.test_case "remote attribution rule" `Quick
        remote_attribution_rule;
      Alcotest.test_case "bench_compare cells cover the report" `Quick
        cells_cover_the_json;
    ] )
