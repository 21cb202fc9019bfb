(* The in-process workloads (kv_a_zipf, kv_e_uniform): one domain
   driving one [Incll.System], closed loop. *)

open Common

type st = {
  sys : Sys_.t;
  spec : Y.spec;
  mutable max_key : string;  (** largest key in the model (scan ends) *)
  mutable inserted : string list;  (** YCSB-E keys inserted after populate *)
}

type cursor = { gen : Gen.t; c : Gen.chunk; mutable pos : int }

let cursor gen = { gen; c = Gen.make_chunk (); pos = Gen.chunk_size }

let next cur =
  if cur.pos >= Gen.chunk_size then begin
    Gen.fill cur.gen cur.c;
    cur.pos <- 0
  end;
  let i = cur.pos in
  cur.pos <- i + 1;
  i

(* Seeds of the streams a run draws: warm-up, timed, crash segment. *)
let warm_seed seed = (seed * 3) + 1
let timed_seed seed = seed * 3
let crash_seed seed = (seed * 3) + 2

let note_insert st key =
  st.inserted <- key :: st.inserted;
  if String.compare key st.max_key > 0 then st.max_key <- key

(* One op, timed around the store call only; the result is checked
   against the model after the clock has stopped. *)
let step st cur (m : Meas.t) =
  let c = cur.c in
  let i = next cur in
  let key = Array.unsafe_get c.keys i in
  let tag = Bytes.unsafe_get c.tags i in
  if tag = Gen.tag_get then begin
    let t0 = Clock.now_ns () in
    let r = Sys_.get st.sys ~key in
    let t1 = Clock.now_ns () in
    Meas.note m m.get ~t0 ~t1;
    if not (check_get ~expect:(Array.unsafe_get c.values i) r) then
      m.failed <- m.failed + 1
  end
  else if tag = Gen.tag_put then begin
    let value = Array.unsafe_get c.values i in
    let t0 = Clock.now_ns () in
    Sys_.put st.sys ~key ~value;
    let t1 = Clock.now_ns () in
    Meas.note m m.put ~t0 ~t1;
    Meas.note_put m ~key ~value;
    if st.spec.mix = Y.E then note_insert st key
  end
  else begin
    let n = Array.unsafe_get c.scan_n i in
    let t0 = Clock.now_ns () in
    let r = Sys_.scan st.sys ~start:key ~n in
    let t1 = Clock.now_ns () in
    Meas.note m m.scan ~t0 ~t1;
    if not (check_scan ~start:key ~n ~max_key:st.max_key r) then
      m.failed <- m.failed + 1
  end

let run_n st cur m n =
  for _ = 1 to n do
    step st cur m
  done

(* ------------------------------------------------------------ setup *)

(* Create, populate (YCSB load order) and warm up. Returns the state,
   the timed-phase cursor (its YCSB-E insert cursor continues after the
   warm-up's), the warm-up's failures and the set-up wall time. *)
let populate ?crash_support spec =
  let sys = Sys_.create ~config:(config ?crash_support ~nkeys:spec.Y.nkeys ()) Sys_.Incll in
  let max_key = ref "" in
  for r = 0 to spec.Y.nkeys - 1 do
    let key = Y.key_of_rank r in
    Sys_.put sys ~key ~value:(Y.value_for key);
    if String.compare key !max_key > 0 then max_key := key
  done;
  { sys; spec; max_key = !max_key; inserted = [] }

let setup ?crash_support spec sizes ~seed =
  let t0 = Clock.now_ns () in
  let st = populate ?crash_support spec in
  let warm = Gen.create spec ~seed:(warm_seed seed) in
  let wm = Meas.create () in
  run_n st (cursor warm) wm sizes.warm_ops;
  let timed = cursor (Gen.derive warm ~seed:(timed_seed seed)) in
  let setup_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  (st, timed, wm.failed, setup_s)

(* ------------------------------------------- deterministic snapshot *)

type snap = {
  stats : Nvm.Stats.t;
  minor : float;
  epochs : int;
  busy : int;
  puts : int;
  put_bytes : int;
  incll_hit : int;
  incll_fallback : int;
  first_touch : int;
  appends : int;
  alloc_slow : int;
}

let em st = Option.get (Sys_.epoch_manager st.sys)

(* The allocator's bump slow path is counted by its stall histogram. *)
let alloc_slow_h st = Obs.Registry.histogram (Sys_.metrics st.sys) "stall.alloc_slow_ns"
let alloc_slow_count st = Obs.Histogram.count (alloc_slow_h st)

let snap st (m : Meas.t) =
  let reg = Sys_.metrics st.sys in
  {
    stats = Nvm.Stats.snapshot (Nvm.Region.stats (Sys_.region st.sys));
    minor = Gc.minor_words ();
    epochs = Epoch.Manager.epochs_elapsed (em st);
    busy = m.busy_ns;
    puts = m.puts;
    put_bytes = m.put_bytes;
    incll_hit = Obs.Registry.counter_value reg "incll_hit";
    incll_fallback = Obs.Registry.counter_value reg "incll_fallback";
    first_touch = Obs.Registry.counter_value reg "incll_first_touch";
    appends = Obs.Registry.counter_value reg "extlog.appends";
    alloc_slow = alloc_slow_count st;
  }

(* Timed phase: until [deadline] and at least [det_ops] ops, with the
   deterministic window's end snapshot taken at exactly op [det_ops];
   also returns the process's peak RSS at op [rss_ops]. *)
let timed st cur m ~deadline ~det_ops ~rss_ops =
  let det_end = ref None and rss = ref 0.0 in
  let fin = ref false in
  while not !fin do
    step st cur m;
    if m.Meas.ops = det_ops then det_end := Some (snap st m);
    if m.Meas.ops = rss_ops then rss := Procfs.peak_rss_mb ~pid:"self";
    if m.Meas.ops >= max det_ops rss_ops && Clock.now_ns () >= deadline then
      fin := true
  done;
  (Option.get !det_end, !rss)

let cost_of_flushes (cost : Nvm.Config.cost_model) (d : Nvm.Stats.t) =
  (fi d.clwb *. cost.clwb_ns)
  +. (fi d.sfence *. (cost.sfence_ns +. cost.sfence_extra_ns))
  +. (fi d.wbinvd *. cost.wbinvd_base_ns)
  +. (fi d.wbinvd_lines *. cost.wbinvd_per_line_ns)

(* Simulated-clock and count metrics over the deterministic window. *)
let det_metrics r ~cost ~ops ~(a : snap) ~(b : snap) ~traced =
  let d = Nvm.Stats.diff ~after:b.stats ~before:a.stats in
  let sim = Nvm.Stats.sim_ns d in
  let opsf = fi ops in
  let user = fi (b.put_bytes - a.put_bytes) in
  if not traced then begin
    metric r "sim_kops" "Kops/sim-s" (ratio opsf sim *. 1e6);
    metric r "nvm_bytes_per_user_byte" "ratio"
      (ratio (fi (d.lines_committed * Nvm.Config.line_size)) user)
  end
  else begin
    let puts = fi (b.puts - a.puts) in
    let per_op name v = metric r ("nvm." ^ name ^ "_per_op") "count" (ratio (fi v) opsf) in
    per_op "reads" d.reads;
    per_op "writes" d.writes;
    per_op "clwbs" d.clwb;
    per_op "sfences" d.sfence;
    per_op "lines_committed" d.lines_committed;
    per_op "evictions" d.evictions;
    metric r "nvm.sim_ns_per_op" "ns" (ratio sim opsf);
    metric r "nvm.flush_sim_share" "ratio" (ratio (cost_of_flushes cost d) sim);
    let hit = fi (b.incll_hit - a.incll_hit)
    and fb = fi (b.incll_fallback - a.incll_fallback) in
    metric r "incll.hit_frac" "ratio" (ratio hit (hit +. fb));
    metric r "incll.first_touch_per_put" "count"
      (ratio (fi (b.first_touch - a.first_touch)) puts);
    metric r "extlog.appends_per_put" "count" (ratio (fi (b.appends - a.appends)) puts);
    metric r "alloc.slow_per_put" "count" (ratio (fi (b.alloc_slow - a.alloc_slow)) puts);
    let cps = b.epochs - a.epochs in
    metric r "epoch.checkpoints" "count" (fi cps);
    metric r "epoch.lines_per_checkpoint" "count"
      (ratio (fi d.wbinvd_lines) (fi cps));
    metric r "gc.minor_words_per_op" "words" (ratio (b.minor -. a.minor) opsf)
  end

(* ----------------------------------------------------- traced phase *)

(* Like [step], but brackets the call with reads of the public counters
   and records a span attributed to the layer whose counter moved. *)
let traced_step st cur (m : Meas.t) (sp : Spans.t) ~stats ~em ~appends ~alloc_h
    ~(lat_plain_put : Lat.t) ~(lat_extlog_put : Lat.t) ~(lat_pair : Lat.t)
    ~(cp : int ref) ~(cp_ns : int ref) =
  let c = cur.c in
  let i = next cur in
  let key = Array.unsafe_get c.keys i in
  let tag = Bytes.unsafe_get c.tags i in
  let e0 = Epoch.Manager.epochs_elapsed em
  and a0 = !appends
  and h0 = Obs.Histogram.count alloc_h
  and l0 = stats.Nvm.Stats.lines_committed
  and s0 = Nvm.Stats.sim_ns stats in
  let t0 = Clock.now_ns () in
  let t1, pairs =
    if tag = Gen.tag_get then begin
      let r = Sys_.get st.sys ~key in
      let t1 = Clock.now_ns () in
      Meas.note m m.get ~t0 ~t1;
      if not (check_get ~expect:(Array.unsafe_get c.values i) r) then
        m.failed <- m.failed + 1;
      (t1, 0)
    end
    else if tag = Gen.tag_put then begin
      let value = Array.unsafe_get c.values i in
      Sys_.put st.sys ~key ~value;
      let t1 = Clock.now_ns () in
      Meas.note m m.put ~t0 ~t1;
      Meas.note_put m ~key ~value;
      if st.spec.mix = Y.E then note_insert st key;
      (t1, 0)
    end
    else begin
      let n = Array.unsafe_get c.scan_n i in
      let r = Sys_.scan st.sys ~start:key ~n in
      let t1 = Clock.now_ns () in
      Meas.note m m.scan ~t0 ~t1;
      if not (check_scan ~start:key ~n ~max_key:st.max_key r) then
        m.failed <- m.failed + 1;
      (t1, List.length r)
    end
  in
  let dur = t1 - t0 in
  let cls =
    if Epoch.Manager.epochs_elapsed em > e0 then Spans.cls_checkpoint
    else if !appends > a0 then Spans.cls_extlog
    else if Obs.Histogram.count alloc_h > h0
    then Spans.cls_alloc
    else Spans.cls_plain
  in
  if cls = Spans.cls_checkpoint then begin
    incr cp;
    cp_ns := !cp_ns + dur
  end;
  if tag = Gen.tag_put then begin
    if cls = Spans.cls_plain then Lat.add lat_plain_put dur
    else if cls = Spans.cls_extlog then Lat.add lat_extlog_put dur
  end
  else if tag = Gen.tag_scan && pairs > 0 then Lat.add lat_pair (dur / pairs);
  Spans.add sp ~start:t0 ~dur
    ~sim:(int_of_float (Nvm.Stats.sim_ns stats -. s0))
    ~lines:(stats.Nvm.Stats.lines_committed - l0)
    ~tag ~cls

type traced = {
  tm : Meas.t;
  spans : Spans.t;
  plain_put : Lat.t;
  extlog_put : Lat.t;
  per_pair : Lat.t;
  checkpoints : int;
  checkpoint_ns : int;
}

let traced_phase st cur ~deadline ~cap =
  let m = Meas.create () in
  let sp = Spans.create cap in
  let stats = Nvm.Region.stats (Sys_.region st.sys) in
  let appends = Obs.Registry.counter (Sys_.metrics st.sys) "extlog.appends" in
  let plain_put = Lat.create () and extlog_put = Lat.create ()
  and per_pair = Lat.create () in
  let cp = ref 0 and cp_ns = ref 0 in
  while (not (Spans.full sp)) && Clock.now_ns () < deadline do
    traced_step st cur m sp ~stats ~em:(em st) ~appends ~alloc_h:(alloc_slow_h st)
      ~lat_plain_put:plain_put ~lat_extlog_put:extlog_put ~lat_pair:per_pair ~cp
      ~cp_ns
  done;
  { tm = m; spans = sp; plain_put; extlog_put; per_pair; checkpoints = !cp;
    checkpoint_ns = !cp_ns }

(* ------------------------------------------------ durability check *)

(* Checkpoint, seed [Chaos_runner.Oracle] with the model's whole key
   space (durable at that checkpoint), run a seeded segment recording
   every PUT before it applies, crash with a seeded PCSO cut, recover,
   cut the oracle at the crashed epoch and compare: every PUT durable
   before the crash must read back, nothing else may. *)
let crash_check r st cur ~seed ~crash_ops =
  let module O = Chaos_runner.Oracle in
  let sys = st.sys in
  Sys_.advance_epoch sys;
  let o = O.create () in
  let seed_key key = O.record o ~shard:0 (O.Put { key; value = Y.value_for key }) in
  for rank = 0 to st.spec.Y.nkeys - 1 do
    seed_key (Y.key_of_rank rank)
  done;
  List.iter seed_key st.inserted;
  let epoch () = Epoch.Manager.current (em st) in
  O.mark_epoch o ~shard:0 ~epoch:(epoch ());
  let c = cur.c in
  for _ = 1 to crash_ops do
    let i = next cur in
    let key = c.keys.(i) in
    let tag = Bytes.get c.tags i in
    if tag = Gen.tag_put then begin
      O.record o ~shard:0 (O.Put { key; value = c.values.(i) });
      Sys_.put sys ~key ~value:c.values.(i)
    end
    else if tag = Gen.tag_get then ignore (Sys_.get sys ~key)
    else ignore (Sys_.scan sys ~start:key ~n:c.scan_n.(i));
    O.mark_epoch o ~shard:0 ~epoch:(epoch ())
  done;
  Sys_.crash sys (Util.Rng.create ~seed:(crash_seed seed));
  let region = Sys_.region sys in
  let crashed =
    Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_durable_epoch)
  in
  let boundary = O.boundary_at o ~shard:0 ~crashed_epoch:crashed in
  let sys' = Sys_.recover sys in
  O.compact o ~boundary:(fun _ -> boundary) ~committed:(fun _ -> false);
  (match Masstree.Tree.validate (Sys_.tree sys') with
  | () -> ()
  | exception Failure msg -> fail r "recovered tree invalid: %s" msg);
  (match
     O.check o
       ~get:(fun key -> Sys_.get sys' ~key)
       ~cardinal:(Masstree.Tree.cardinal (Sys_.tree sys'))
   with
  | Ok _ -> ()
  | Error msg -> fail r "post-crash durability check: %s" msg);
  Sys_.last_recover_stats sys'

(* ------------------------------------------------- wire codec cost *)

(* Encode the run's own requests and decode the replies the store gave
   them, through the public [Wire.Proto] codec; ns per frame each. *)
let wire_costs (frames : (Wire.Proto.op * Wire.Proto.payload) array) =
  let module P = Wire.Proto in
  let n = Array.length frames in
  let t0 = Clock.now_ns () in
  let reqs =
    Array.mapi (fun id (op, _) -> P.frame_of_request { P.id; op; sess = None }) frames
  in
  let t1 = Clock.now_ns () in
  let buf =
    Bytes.of_string
      (String.concat ""
         (Array.to_list
            (Array.mapi
               (fun id (_, payload) ->
                 P.frame_of_reply
                   { P.id; status = P.Ok; queue_ns = 0.0; cause = P.no_cause; payload })
               frames)))
  in
  let dec = P.Decoder.create () in
  let decoded = ref 0 in
  let t2 = Clock.now_ns () in
  let pos = ref 0 in
  while !pos < Bytes.length buf do
    let len = min 65536 (Bytes.length buf - !pos) in
    P.Decoder.feed dec buf !pos len;
    pos := !pos + len;
    let rec drain () =
      match P.Decoder.next dec with
      | Some payload ->
          ignore (P.reply_of_payload payload);
          incr decoded;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  let t3 = Clock.now_ns () in
  ignore reqs;
  if !decoded <> n then failwith "wire: decoded frame count mismatch";
  (ratio (fi (t1 - t0)) (fi n), ratio (fi (t3 - t2)) (fi n))

(* The first [n] ops of a stream as request/reply pairs, answered by
   [sys] (read-only: PUTs are answered without applying). *)
let wire_frames sys spec ~seed ~nfresh ~n =
  let module P = Wire.Proto in
  let gen = Gen.create spec ~seed in
  gen.Gen.next_fresh <- nfresh;
  let cur = cursor gen in
  Array.init n (fun _ ->
      let i = next cur in
      let key = cur.c.keys.(i) in
      let tag = Bytes.get cur.c.tags i in
      if tag = Gen.tag_put then (P.Put (key, cur.c.values.(i)), P.Unit)
      else if tag = Gen.tag_get then
        (P.Get key,
         match Sys_.get sys ~key with Some v -> P.Value v | None -> P.Unit)
      else
        let k = cur.c.scan_n.(i) in
        (P.Scan (key, k), P.Pairs (Sys_.scan sys ~start:key ~n:k)))

(* ------------------------------------------------------------- run *)

let trace_cap = 400_000
let trace_file_events = 100_000
let wire_sample = 20_000

(* The end-to-end latency metrics every workload reports. YCSB-A's read
   is a GET, YCSB-E's a SCAN. *)
let latency_metrics r (m : Meas.t) ~thr =
  metric r "throughput_kops" "Kops/s" thr;
  metric r "read_p50_us" "us" (us (Meas.read_p50_ns m));
  metric r "put_p50_us" "us" (us (Meas.put_p50_ns m));
  metric r "p99_us" "us" (us (Meas.p99_ns m))

(* Layers the in-process workloads never reach report 0. *)
let absent r names = List.iter (fun (n, u) -> metric r n u 0.0) names

let serving_layers =
  [
    ("server.cpu_us_per_op", "us"); ("server.ctx_switches_per_op", "count");
    ("server.tasks", "count"); ("server.queue_wait_us", "us");
    ("server.queue_wait_p99_us", "us"); ("server.rtt_minus_queue_us", "us");
    ("server.sfences_per_put", "count"); ("server.log_records_per_put", "count");
    ("server.checkpoints", "count"); ("server.stall_net_queue_ms", "ms");
    ("server.stall_epoch_advance_ms", "ms"); ("server.stall_extlog_ms", "ms");
    ("server.stall_alloc_slow_ms", "ms"); ("session.retries", "count");
    ("session.reconnects", "count"); ("client.cpu_us_per_op", "us");
  ]

let run ~name ~spec ~sizes ~seed ~seconds ~trace ~setup_only ~trace_path r =
  let st, cur, warm_failed, setup_s = setup spec sizes ~seed in
  r.setup_s <- setup_s;
  r.attempted <- sizes.warm_ops;
  r.failed <- warm_failed;
  if not setup_only then begin
    let cost = (Nvm.Region.config (Sys_.region st.sys)).Nvm.Config.cost in
    let phase_ns = int_of_float (seconds *. 1e9 /. if trace then 2.0 else 1.0) in
    let gc0 = Gc.quick_stat () in
    let m = Meas.create () in
    let a = snap st m in
    let b, rss =
      timed st cur m ~deadline:(m.start + phase_ns) ~det_ops:sizes.det_ops
        ~rss_ops:sizes.rss_ops
    in
    let gc1 = Gc.quick_stat () in
    let thr = Meas.throughput_kops m in
    r.attempted <- r.attempted + m.ops;
    r.failed <- r.failed + m.failed;
    det_metrics r ~cost ~ops:sizes.det_ops ~a ~b ~traced:trace;
    if not trace then begin
      latency_metrics r m ~thr;
      metric r "peak_rss_mb" "MiB" rss
    end
    else begin
      let nfresh = Gen.next_fresh cur.gen in
      let tr = traced_phase st cur ~deadline:(Clock.now_ns () + phase_ns) ~cap:trace_cap in
      r.attempted <- r.attempted + tr.tm.ops;
      r.failed <- r.failed + tr.tm.failed;
      let tthr = Meas.throughput_kops tr.tm in
      metric r "core.get_us" "us" (us (Lat.quantile tr.tm.get 0.5));
      metric r "core.put_plain_us" "us" (us (Lat.quantile tr.plain_put 0.5));
      metric r "core.scan_us_per_pair" "us" (us (Lat.quantile tr.per_pair 0.5));
      metric r "extlog.put_us" "us" (us (Lat.quantile tr.extlog_put 0.5));
      metric r "epoch.checkpoint_op_us" "us"
        (us (ratio (fi tr.checkpoint_ns) (fi tr.checkpoints)));
      metric r "epoch.checkpoint_wall_share" "ratio"
        (ratio (fi tr.checkpoint_ns) (fi tr.tm.busy_ns));
      metric r "gc.promoted_words_per_op" "words"
        (ratio (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) (fi m.ops));
      metric r "gc.major_collections" "count"
        (fi (gc1.Gc.major_collections - gc0.Gc.major_collections));
      metric r "trace.overhead_frac" "ratio" (1.0 -. ratio tthr thr);
      Spans.write tr.spans ~path:trace_path ~workload:name
        ~sim_label:"sim_ns" ~max_events:trace_file_events;
      let enc, dec =
        wire_costs
          (wire_frames st.sys spec ~seed:(timed_seed seed) ~nfresh ~n:wire_sample)
      in
      metric r "wire.encode_ns" "ns" enc;
      metric r "wire.decode_ns" "ns" dec;
      absent r serving_layers
    end;
    let rs = crash_check r st cur ~seed ~crash_ops:sizes.crash_ops in
    if trace then begin
      let rs = Option.get rs in
      metric r "recovery.wall_ms" "ms" (rs.Sys_.recovery_wall_ns /. 1e6);
      metric r "recovery.sim_ms" "ms" (rs.Sys_.recovery_sim_ns /. 1e6);
      metric r "recovery.replayed_entries" "count" (fi rs.Sys_.replayed_entries);
      (* How much of an op's wall time is the simulator's crash
         bookkeeping: the same populate, warm-up and deterministic
         window on a Counting region. *)
      let precise_busy = b.busy - a.busy in
      let cst, ccur, _, _ =
        setup ~crash_support:Nvm.Config.Counting spec sizes ~seed
      in
      let cm = Meas.create () in
      ignore (timed cst ccur cm ~deadline:0 ~det_ops:sizes.det_ops ~rss_ops:0);
      metric r "nvm.precise_share" "ratio"
        (1.0 -. ratio (fi cm.busy_ns) (fi precise_busy))
    end
  end
