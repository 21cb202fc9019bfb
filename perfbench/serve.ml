(* The serve workload (serve_a_session): a fresh [incll_server] child per
   run on a private Unix socket, one shard; population through a
   pipelined [Wire.Client]; YCSB-A through one [Wire.Session], one
   request outstanding. Everything about the server is read from outside
   its process: /proc, STATS and the replies themselves. *)

open Common
module P = Wire.Proto
module C = Wire.Client
module S = Wire.Session

(* ------------------------------------------------------ server child *)

type server = { pid : int; addr : C.addr; sock : string }

let alive = ref None

let kill_child () =
  match !alive with
  | Some pid ->
      alive := None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  | None -> ()

let () = at_exit kill_child

(* Read the banner line, waiting at most [timeout] seconds: the server
   prints it once its socket is listening. *)
let read_banner fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 128 and b = Bytes.create 256 in
  let rec go () =
    if String.contains (Buffer.contents buf) '\n' then Buffer.contents buf
    else begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then failwith "server: no banner before the readiness timeout";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ ->
          let n = Unix.read fd b 0 (Bytes.length b) in
          if n = 0 then failwith "server: exited before listening";
          Buffer.add_subbytes buf b 0 n;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

(* The server runs with a 4 Mi-word (32 MiB) minor heap per domain
   instead of OCaml's 256 Ki words. Each minor collection stops all of
   the server's five domains, and run.py pins them to one CPU with the
   client: the domains waiting at the barrier sleep, the CPU idles, and
   the wake-up waits on the host's scheduler. At the default size that
   happened once per ~70 ops, so p99 measured those pauses (~600 us
   against ~110 us) and the host's load moved throughput by up to a
   quarter between runs; at 4 Mi words it is once per ~1100 ops. Any
   [OCAMLRUNPARAM] of the caller is replaced. *)
let server_runparam = "s=4M"

let spawn ~exe ~out_dir ~nkeys =
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat out_dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [| exe; "--listen"; "unix:" ^ sock; "--variant"; "INCLL"; "--shards"; "1";
       "--policy"; Nvm.Config.policy_name policy;
       "--epoch-ms"; Printf.sprintf "%g" epoch_ms;
       "--size-mb"; string_of_int (size_mb nkeys);
       "--log-kb"; string_of_int log_kb |]
  in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=" ^ server_runparam |]
  in
  let pid = Unix.create_process_env exe args env Unix.stdin out_w log in
  alive := Some pid;
  Unix.close out_w;
  Unix.close log;
  let banner =
    Fun.protect ~finally:(fun () -> Unix.close out_r) (fun () ->
        read_banner out_r ~timeout:60.0)
  in
  if not (String.starts_with ~prefix:"incll_server listening" banner) then
    failwith ("server: unexpected banner " ^ banner);
  { pid; addr = C.Unix_sock sock; sock }

(* SIGTERM drain, checked: the server must exit 0 within [timeout]. *)
let stop r srv ~timeout =
  Unix.kill srv.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          fail r "server did not drain within %.0f s of SIGTERM" timeout;
          kill_child ()
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _, Unix.WEXITED 0 -> alive := None
    | _, _ ->
        alive := None;
        fail r "server exited abnormally after SIGTERM"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  try Sys.remove srv.sock with Sys_error _ -> ()

(* ---------------------------------------------------------- populate *)

(* Pipelined population (window 256); BUSY bounces are resent, so the
   key space is complete before the session starts. *)
let populate c ~nkeys =
  let window = 256 in
  let inflight = Hashtbl.create window in
  let retry = ref [] in
  let settle () =
    let rep = C.recv c in
    let key = Hashtbl.find inflight rep.P.id in
    Hashtbl.remove inflight rep.P.id;
    match rep.P.status with
    | P.Ok -> ()
    | P.Busy -> retry := key :: !retry
    | s -> failwith ("populate: " ^ P.status_name s)
  in
  for rank = 0 to nkeys - 1 do
    if C.pending c >= window then settle ();
    let key = Y.key_of_rank rank in
    Hashtbl.replace inflight (C.send c (P.Put (key, Y.value_for key))) key
  done;
  while C.pending c > 0 do
    settle ()
  done;
  List.iter (fun key -> C.put c key (Y.value_for key)) !retry

(* ------------------------------------------------------- session ops *)

(* One op through the session, timed around the call. A refused or
   failed op (exception or wrong value) counts as failed. *)
let session_step sess (cur : Kv.cursor) (m : Meas.t) =
  let c = cur.c in
  let i = Kv.next cur in
  let key = c.keys.(i) in
  let value = c.values.(i) in
  let tag = Bytes.get c.tags i in
  match
    if tag = Gen.tag_get then begin
      let t0 = Clock.now_ns () in
      let r = S.get sess key in
      let t1 = Clock.now_ns () in
      Meas.note m m.get ~t0 ~t1;
      check_get ~expect:value r
    end
    else begin
      let t0 = Clock.now_ns () in
      S.put sess key value;
      let t1 = Clock.now_ns () in
      Meas.note m m.put ~t0 ~t1;
      Meas.note_put m ~key ~value;
      true
    end
  with
  | true -> ()
  | false -> m.failed <- m.failed + 1
  | exception (S.Timed_out | S.Retries_exhausted | Failure _ | Unix.Unix_error _) ->
      m.ops <- m.ops + 1;
      m.failed <- m.failed + 1

(* ---------------------------------------------------- traced phase *)

type traced = {
  tm : Meas.t;
  spans : Spans.t;
  queue : Lat.t;  (** reply queue_ns *)
  rtt_minus_queue : Lat.t;
  checkpoints : int;
  checkpoint_ns : int;
}

let cls_of_cause cause =
  match Obs.Stall.cause_of_index cause with
  | Some Obs.Stall.Epoch_advance -> Spans.cls_checkpoint
  | Some Obs.Stall.Extlog -> Spans.cls_extlog
  | Some Obs.Stall.Alloc_slow -> Spans.cls_alloc
  | _ -> Spans.cls_plain

let call_timeout_s = 30.0

(* Raw [Client.call ~sess] on a HELLO-granted session id, so the frames
   are the session's and each reply's [queue_ns] and stall cause are
   visible per call. *)
let traced_phase conn ~sid (cur : Kv.cursor) ~deadline ~cap =
  let m = Meas.create () in
  let sp = Spans.create cap in
  let queue = Lat.create () and rtt_minus_queue = Lat.create () in
  let cp = ref 0 and cp_ns = ref 0 in
  let seq = ref 0 in
  while (not (Spans.full sp)) && Clock.now_ns () < deadline do
    let c = cur.c in
    let i = Kv.next cur in
    let key = c.keys.(i) in
    let value = c.values.(i) in
    let tag = Bytes.get c.tags i in
    let op, sess =
      if tag = Gen.tag_get then (P.Get key, None)
      else begin
        incr seq;
        (P.Put (key, value), Some (sid, !seq))
      end
    in
    let deadline = Unix.gettimeofday () +. call_timeout_s in
    let t0 = Clock.now_ns () in
    match C.call ~deadline ?sess conn op with
    | rep ->
        let t1 = Clock.now_ns () in
        let dur = t1 - t0 in
        let ok =
          match (rep.P.status, rep.P.payload) with
          | P.Ok, P.Value v -> tag = Gen.tag_get && String.equal v value
          | P.Ok, P.Unit -> tag = Gen.tag_put
          | _ -> false
        in
        if tag = Gen.tag_get then Meas.note m m.get ~t0 ~t1
        else begin
          Meas.note m m.put ~t0 ~t1;
          Meas.note_put m ~key ~value
        end;
        if not ok then m.failed <- m.failed + 1;
        let q = int_of_float rep.P.queue_ns in
        Lat.add queue q;
        Lat.add rtt_minus_queue (dur - q);
        let cls = cls_of_cause rep.P.cause in
        if cls = Spans.cls_checkpoint then begin
          incr cp;
          cp_ns := !cp_ns + dur
        end;
        Spans.add sp ~start:t0 ~dur ~sim:q ~lines:0 ~tag ~cls
    | exception (Failure _ | Unix.Unix_error _ | End_of_file | C.Timeout) ->
        m.ops <- m.ops + 1;
        m.failed <- m.failed + 1
  done;
  { tm = m; spans = sp; queue; rtt_minus_queue; checkpoints = !cp;
    checkpoint_ns = !cp_ns }

(* -------------------------------------------------- STATS snapshots *)

(* A control connection for the final state check only: each open
   connection adds a reader and a writer domain to the server, and every
   domain takes part in each minor collection, so none stays open while
   ops are timed (the traced phase reads STATS on its own connection). *)
let with_ctl srv f =
  let ctl = C.connect srv.addr in
  Fun.protect ~finally:(fun () -> C.close ctl) (fun () -> f ctl)

let stats_json ctl = Obs.Json.of_string (C.stats ctl P.Stats_json)

let json_num j path =
  match Obs.Json.find_path j path with
  | Some v -> Option.value ~default:0.0 (Obs.Json.to_float_opt v)
  | None -> 0.0

let counter j name = json_num j [ "counters"; name ]
let hist j name field = json_num j [ "histograms"; name; field ]

(* ----------------------------------------------------------- replay *)

(* The same streams applied in-process to a fresh store with the
   server's configuration, including the fenced session record the
   server writes after every stamped PUT. Its final state must equal the
   server's; its simulated clock and counters are the served stream's
   deterministic metrics. *)
type segment = { sid : int; ops : int }

(* Warm-up under the first segment's session, then the timed stream cut
   into [segments], each its own session with seqs from 1. [on_op st m j]
   runs before the first timed op (j = 0) and after each op j of the
   first segment. *)
let replay ?crash_support spec ~seed ~warm ~segments ~on_op =
  let st = Kv.populate ?crash_support spec in
  let m = Meas.create () in
  let apply (cur : Kv.cursor) ~sid ~seq =
    let c = cur.c in
    let i = Kv.next cur in
    let key = c.keys.(i) in
    let t0 = Clock.now_ns () in
    if Bytes.get c.tags i = Gen.tag_put then begin
      let value = c.values.(i) in
      Sys_.put st.sys ~key ~value;
      incr seq;
      Sys_.record_session st.sys ~sid ~seq:!seq ~status:(P.status_code P.Ok)
        (Incll.Session.Put { key; value });
      let t1 = Clock.now_ns () in
      Meas.note m m.put ~t0 ~t1;
      Meas.note_put m ~key ~value
    end
    else begin
      ignore (Sys_.get st.sys ~key);
      let t1 = Clock.now_ns () in
      Meas.note m m.get ~t0 ~t1
    end
  in
  let wgen = Gen.create spec ~seed:(Kv.warm_seed seed) in
  let wcur = Kv.cursor wgen in
  let seq = ref 0 in
  let first = List.hd segments in
  for _ = 1 to warm do
    apply wcur ~sid:first.sid ~seq
  done;
  let tcur = Kv.cursor (Gen.derive wgen ~seed:(Kv.timed_seed seed)) in
  List.iteri
    (fun k seg ->
      if k > 0 then seq := 0 else on_op st m 0;
      for j = 1 to seg.ops do
        apply tcur ~sid:seg.sid ~seq;
        if k = 0 then on_op st m j
      done)
    segments;
  st

(* Page through the server's whole key space and compare it pair for
   pair with the replayed store. *)
let compare_state r ctl (st : Kv.st) =
  let page = 512 in
  let rec go start n =
    let remote = C.scan ctl ~start ~n:page in
    let local = Sys_.scan st.sys ~start ~n:page in
    if remote <> local then begin
      fail r "final state differs from the in-process replay after key %S"
        (String.escaped start);
      n
    end
    else
      match List.rev remote with
      | [] -> n
      | (last, _) :: _ ->
          let n = n + List.length remote in
          if List.length remote < page then n else go (last ^ "\000") n
  in
  let n = go "" 0 in
  let expect = Masstree.Tree.cardinal (Sys_.tree st.sys) in
  if r.correct && n <> expect then
    fail r "server holds %d keys, replay %d" n expect

(* -------------------------------------------------------------- run *)

let run ~name ~exe ~out_dir ~spec ~sizes ~seed ~seconds ~trace ~setup_only ~trace_path r =
  let nkeys = spec.Y.nkeys in
  let t0 = Clock.now_ns () in
  let srv = spawn ~exe ~out_dir ~nkeys in
  Fun.protect ~finally:(fun () -> if !alive <> None then stop r srv ~timeout:30.0)
  @@ fun () ->
  let pop = C.connect srv.addr in
  populate pop ~nkeys;
  C.close pop;
  let sess = S.connect srv.addr in
  let sid = S.session_id sess in
  let wgen = Gen.create spec ~seed:(Kv.warm_seed seed) in
  let wcur = Kv.cursor wgen in
  let wm = Meas.create () in
  for _ = 1 to sizes.warm_ops do
    session_step sess wcur wm
  done;
  r.setup_s <- fi (Clock.now_ns () - t0) /. 1e9;
  r.attempted <- sizes.warm_ops;
  r.failed <- wm.failed;
  if not setup_only then begin
    let tcur = Kv.cursor (Gen.derive wgen ~seed:(Kv.timed_seed seed)) in
    let phase_ns = int_of_float (seconds *. 1e9 /. if trace then 2.0 else 1.0) in
    let gc0 = Gc.quick_stat () in
    let m = Meas.create () in
    let deadline = m.start + phase_ns in
    let fin = ref false and rss = ref 0.0 in
    while not !fin do
      session_step sess tcur m;
      if m.ops = sizes.rss_ops then
        rss := Procfs.peak_rss_mb ~pid:(string_of_int srv.pid);
      if m.ops >= sizes.rss_ops && Clock.now_ns () >= deadline then fin := true
    done;
    let gc1 = Gc.quick_stat () in
    let thr = Meas.throughput_kops m in
    r.attempted <- r.attempted + m.ops;
    r.failed <- r.failed + m.failed;
    let retries = S.retries sess and reconnects = S.reconnects sess in
    S.close sess;
    let segments = ref [ { sid; ops = m.ops } ] in
    if not trace then begin
      Kv.latency_metrics r m ~thr;
      metric r "peak_rss_mb" "MiB" !rss
    end
    else begin
      let conn = C.connect srv.addr in
      let sid2 =
        match C.call conn (P.Hello 0) with
        | { P.status = P.Ok; payload = P.Value granted; _ } -> int_of_string granted
        | rep -> failwith ("HELLO: " ^ P.status_name rep.P.status)
      in
      let s0 = stats_json conn in
      let cpu0 = Procfs.cpu_s ~pid:srv.pid and ctx0 = Procfs.ctx_switches ~pid:srv.pid in
      let cli0 = Unix.times () in
      let tr =
        traced_phase conn ~sid:sid2 tcur ~deadline:(Clock.now_ns () + phase_ns)
          ~cap:Kv.trace_cap
      in
      let cli1 = Unix.times () in
      let cpu1 = Procfs.cpu_s ~pid:srv.pid and ctx1 = Procfs.ctx_switches ~pid:srv.pid in
      let tasks = List.length (Procfs.tasks ~pid:srv.pid) in
      let s1 = stats_json conn in
      C.close conn;
      r.attempted <- r.attempted + tr.tm.ops;
      r.failed <- r.failed + tr.tm.failed;
      segments := !segments @ [ { sid = sid2; ops = tr.tm.ops } ];
      let tops = fi tr.tm.ops and tputs = fi tr.tm.puts in
      let tthr = Meas.throughput_kops tr.tm in
      metric r "server.cpu_us_per_op" "us" (ratio ((cpu1 -. cpu0) *. 1e6) tops);
      metric r "server.ctx_switches_per_op" "count" (ratio (fi (ctx1 - ctx0)) tops);
      metric r "server.tasks" "count" (fi tasks);
      metric r "server.queue_wait_us" "us" (us (Lat.quantile tr.queue 0.5));
      metric r "server.queue_wait_p99_us" "us" (us (Lat.quantile tr.queue 0.99));
      metric r "server.rtt_minus_queue_us" "us" (us (Lat.quantile tr.rtt_minus_queue 0.5));
      let dc name = counter s1 name -. counter s0 name in
      let dh name field = hist s1 name field -. hist s0 name field in
      metric r "server.sfences_per_put" "count" (ratio (dh "nvm.sfence_ns" "count") tputs);
      metric r "server.log_records_per_put" "count" (ratio (dc "extlog.appends") tputs);
      metric r "server.checkpoints" "count" (dc "epoch.advances");
      List.iter
        (fun cause ->
          metric r ("server.stall_" ^ cause ^ "_ms") "ms"
            (dh ("stall." ^ cause ^ "_ns") "sum" /. 1e6))
        [ "net_queue"; "epoch_advance"; "extlog"; "alloc_slow" ];
      metric r "session.retries" "count" (fi retries);
      metric r "session.reconnects" "count" (fi reconnects);
      metric r "client.cpu_us_per_op" "us"
        (ratio
           ((cli1.Unix.tms_utime +. cli1.Unix.tms_stime -. cli0.Unix.tms_utime
           -. cli0.Unix.tms_stime) *. 1e6)
           tops);
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
        ~sim_label:"queue_ns" ~max_events:Kv.trace_file_events;
      (* In-process layers are not visible from outside the server. *)
      Kv.absent r
        [ ("core.get_us", "us"); ("core.put_plain_us", "us");
          ("core.scan_us_per_pair", "us"); ("extlog.put_us", "us");
          ("recovery.wall_ms", "ms"); ("recovery.sim_ms", "ms");
          ("recovery.replayed_entries", "count") ]
    end;
    (* The served state must equal the replay of exactly the ops served. *)
    let rst =
      replay spec ~seed ~warm:sizes.warm_ops ~segments:!segments ~on_op:(fun _ _ _ -> ())
    in
    with_ctl srv (fun ctl -> compare_state r ctl rst);
    if trace then begin
      let enc, dec =
        Kv.wire_costs
          (Kv.wire_frames rst.sys spec ~seed:(Kv.timed_seed seed) ~nfresh:nkeys
             ~n:Kv.wire_sample)
      in
      metric r "wire.encode_ns" "ns" enc;
      metric r "wire.decode_ns" "ns" dec
    end;
    (* The deterministic window is a model run: the first [det_ops] ops
       of the timed stream replayed in-process under one session,
       whatever the host's speed let the server complete. *)
    let window ?crash_support () =
      Gc.compact ();
      let snaps = ref [] in
      let on_op st m j =
        if j = 0 || j = sizes.det_ops then snaps := Kv.snap st m :: !snaps
      in
      let st =
        replay ?crash_support spec ~seed ~warm:sizes.warm_ops
          ~segments:[ { sid = 1; ops = sizes.det_ops } ]
          ~on_op
      in
      match !snaps with [ b; a ] -> (st, a, b) | _ -> assert false
    in
    let st, a, b = window () in
    let cost = (Nvm.Region.config (Sys_.region st.sys)).Nvm.Config.cost in
    Kv.det_metrics r ~cost ~ops:sizes.det_ops ~a ~b ~traced:trace;
    if trace then begin
      let _, ca, cb = window ~crash_support:Nvm.Config.Counting () in
      metric r "nvm.precise_share" "ratio"
        (1.0 -. ratio (fi (cb.Kv.busy - ca.Kv.busy)) (fi (b.busy - a.busy)))
    end
  end
