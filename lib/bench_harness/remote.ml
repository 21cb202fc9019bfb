module P = Wire.Proto
module C = Wire.Client
module S = Wire.Session
module Y = Workload.Ycsb
module O = Workload.Opstream

module LR = Latency_report

type result = {
  busy : int;
  mops_wall : float;
  calibrated_mops : float;
  latency : LR.t;
  oracle_ok : bool option;
}

let wire_op = function
  | Y.Put (k, v) -> P.Put (k, v)
  | Y.Get k -> P.Get k
  | Y.Scan (k, n) -> P.Scan (k, n)

let op_tag = function Y.Put _ -> '\000' | Y.Get _ -> '\001' | Y.Scan _ -> '\002'

(* The calibration stream must be disjoint from the measured stream's
   seed space or the two would be the same ops twice. *)
let calibration_seed seed = seed lxor 0x5eed

let pipeline_window = 256

(* Send [n] requests, at most [pipeline_window] in flight; [on_reply i r]
   sees each reply with the index of its request. *)
let pipelined c n request on_reply =
  let inflight = Hashtbl.create pipeline_window in
  let drain () =
    let r = C.recv c in
    let i = Hashtbl.find inflight r.P.id in
    Hashtbl.remove inflight r.P.id;
    on_reply i r
  in
  for i = 0 to n - 1 do
    if C.pending c >= pipeline_window then drain ();
    Hashtbl.replace inflight (C.send c (request i)) i
  done;
  while C.pending c > 0 do
    drain ()
  done

(* --------------------------------------------------------- populate *)

(* Population must land completely (the oracle replays it verbatim), so
   BUSY here is retried — safe: one put per distinct key. *)
let populate c ~nkeys =
  let keys = Y.load_keys ~nkeys in
  let retry = ref [] in
  let note (r : P.reply) key =
    match r.P.status with
    | P.Ok -> ()
    | P.Busy -> retry := key :: !retry
    | s -> failwith ("populate: " ^ P.status_name s)
  in
  let put key = P.Put (key, Y.value_for key) in
  pipelined c (Array.length keys)
    (fun i -> put keys.(i))
    (fun i r -> note r keys.(i));
  while !retry <> [] do
    let keys = !retry in
    retry := [];
    List.iter (fun key -> note (C.call c (put key)) key) keys
  done

(* --------------------------------------------------------- calibrate *)

(* Closed-loop capacity estimate: a bounded-window pipelined burst. The
   busy-bounced op indices are returned so the oracle can skip them. *)
let calibrate c ops =
  let n = Array.length ops in
  let busy = Array.make n false in
  let t0 = Util.Clock.now_ns () in
  pipelined c n
    (fun i -> wire_op ops.(i))
    (fun i r -> if r.P.status = P.Busy then busy.(i) <- true);
  let wall_ns = Util.Clock.now_ns () -. t0 in
  (float_of_int n /. wall_ns *. 1e9, busy)

(* ------------------------------------------------- server stall diff *)

let stall_snapshot c =
  let json = Obs.Json.of_string (C.stats c P.Stats_json) in
  List.map
    (fun cause ->
      let name = "stall." ^ Obs.Stall.cause_name cause ^ "_ns" in
      let field f =
        match Obs.Json.find_path json [ "histograms"; name; f ] with
        | Some v -> Option.value ~default:0.0 (Obs.Json.to_float_opt v)
        | None -> 0.0
      in
      (Obs.Stall.cause_name cause, (field "count", field "sum")))
    Obs.Stall.all_causes

let stall_diff ~before ~after =
  List.map2
    (fun (name, (c0, s0)) (name', (c1, s1)) ->
      assert (name = name');
      (name, (int_of_float (c1 -. c0), s1 -. s0)))
    before after

(* ------------------------------------------------- robustness probe *)

let dedup_hits_snapshot c =
  let json = Obs.Json.of_string (C.stats c P.Stats_json) in
  match Obs.Json.find_path json [ "counters"; "server.dedup_hits" ] with
  | Some v -> int_of_float (Option.value ~default:0.0 (Obs.Json.to_float_opt v))
  | None -> 0

(* Exercise the fault-tolerant session layer against the live server:
   a short stamped mutation stream through [Wire.Session] (its telemetry
   lands in the report), then a deliberate duplicate-stamp replay that
   MUST be answered from the server's dedup table — proving exactly-once
   is armed on the serving path, not only under the chaos harness. Keys
   live in a reserved "rb!" prefix so the oracle's replayed state is
   untouched. *)
let robust_probe ~addr c =
  let before = dedup_hits_snapshot c in
  let nops = 64 in
  let s = S.connect addr in
  for i = 1 to nops do
    S.put s (Printf.sprintf "rb!k%d" (i mod 8)) (string_of_int i)
  done;
  let probe =
    {
      LR.ops = nops;
      retries = S.retries s;
      reconnects = S.reconnects s;
      backoff_ns = S.backoff_ns s;
      dedup_hits = 0;
    }
  in
  S.close s;
  (* The deliberate replay: same (sid, seq) stamp sent twice. *)
  let raw = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close raw) @@ fun () ->
  let sid =
    match C.call raw (P.Hello 0) with
    | { P.status = P.Ok; payload = P.Value granted; _ } -> int_of_string granted
    | r -> failwith ("robust probe: HELLO " ^ P.status_name r.P.status)
  in
  let once () =
    match C.call ~sess:(sid, 1) raw (P.Put ("rb!dup", "v")) with
    | { P.status = P.Ok; _ } -> ()
    | r -> failwith ("robust probe: dup put " ^ P.status_name r.P.status)
  in
  once ();
  once ();
  let after = dedup_hits_snapshot c in
  if after - before < 1 then
    failwith "robust probe: duplicate stamp was not deduplicated";
  { probe with dedup_hits = after - before }

(* ----------------------------------------------------- measured phase *)

(* The queue wait measured by the server is the only wall component the
   reply quantifies; when it explains the excursion (or dominates the
   latency) the op is a net_queue casualty, otherwise blame falls to the
   persistence stall the server saw overlapping the op, if any. *)
let attribute ~threshold_ns ~lat_ns ~queue_ns server_cause =
  if queue_ns >= 0.5 *. lat_ns || queue_ns >= lat_ns -. threshold_ns then
    Some Obs.Stall.Net_queue
  else
    match server_cause with
    | Some _ -> server_cause
    | None -> if queue_ns > 0.0 then Some Obs.Stall.Net_queue else None

let run ~addr ~seed ~n ~mix ~dist ~nkeys ?arrival_rate ?(latency_threshold_ns = 50_000.0)
    ?oracle () =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  populate c ~nkeys;
  let spec = { Y.mix; dist; nkeys } in
  let cal_ops =
    O.generate spec ~seed:(calibration_seed seed)
      ~n:(min n (max 1_000 (n / 4)))
  in
  let calibrated_rate, cal_busy = calibrate c cal_ops in
  let rate =
    match arrival_rate with Some r -> r | None -> 0.9 *. calibrated_rate
  in
  let interval = 1e9 /. rate in
  let ops = O.generate spec ~seed ~n in
  let before = stall_snapshot c in
  (* Open loop: send op [i] at wall time [i * interval] from phase start,
     never gating on replies; drain replies while waiting out the gap. *)
  let lat = Array.make n nan in
  let queue = Array.make n 0.0 in
  let cause = Array.make n P.no_cause in
  let busy = Array.make n false in
  let inflight = Hashtbl.create (min n 65536) in
  let completed = ref 0 in
  let t0 = Util.Clock.now_ns () in
  let now_ns () = Util.Clock.now_ns () -. t0 in
  let record (r : P.reply) tr =
    let i = Hashtbl.find inflight r.P.id in
    Hashtbl.remove inflight r.P.id;
    (match r.P.status with
    | P.Busy -> busy.(i) <- true
    | P.Ok | P.Not_found -> ()
    | s -> failwith ("measured op: " ^ P.status_name s));
    lat.(i) <- Float.max 0.0 (tr -. (float_of_int i *. interval));
    queue.(i) <- r.P.queue_ns;
    cause.(i) <- r.P.cause;
    incr completed
  in
  for i = 0 to n - 1 do
    let intended = float_of_int i *. interval in
    let rec pace () =
      if now_ns () < intended then begin
        (match C.recv_opt c with
        | Some r -> record r (now_ns ())
        | None -> if intended -. now_ns () > 2e5 then Unix.sleepf 1e-4);
        pace ()
      end
    in
    pace ();
    Hashtbl.replace inflight (C.send c (wire_op ops.(i))) i
  done;
  while !completed < n do
    record (C.recv c) (now_ns ())
  done;
  let wall_s = now_ns () /. 1e9 in
  let after = stall_snapshot c in
  let hist = Obs.Histogram.create () in
  let blamed = ref [] in
  let spikes = ref [] in
  for i = 0 to n - 1 do
    Obs.Histogram.record hist lat.(i);
    if lat.(i) > latency_threshold_ns then begin
      let server_cause = Obs.Stall.cause_of_index cause.(i) in
      blamed :=
        attribute ~threshold_ns:latency_threshold_ns ~lat_ns:lat.(i)
          ~queue_ns:queue.(i) server_cause
        :: !blamed;
      spikes :=
        LR.insert_spike !spikes
          {
            LR.shard = 0;
            index = i;
            tag = op_tag ops.(i);
            start_ns = float_of_int i *. interval;
            lat_ns = lat.(i);
            wall_ns = lat.(i);
            queue_ns = queue.(i);
            cause = server_cause;
            stalls = [];
          }
    end
  done;
  let oracle_ok =
    match oracle with
    | None -> None
    | Some (config, shards) ->
        let local = Store.Sharded.create ~config Incll.System.Incll ~shards in
        Array.iter
          (fun key -> Store.Sharded.put local ~key ~value:(Y.value_for key))
          (Y.load_keys ~nkeys);
        let replay stream skipped =
          Array.iteri
            (fun i op ->
              if not skipped.(i) then
                match op with
                | Y.Put (key, value) -> Store.Sharded.put local ~key ~value
                | Y.Get key -> ignore (Store.Sharded.get local ~key)
                | Y.Scan (start, n) ->
                    ignore (Store.Sharded.scan local ~start ~n))
            stream
        in
        replay cal_ops cal_busy;
        replay ops busy;
        (* Page the complete remote state and compare, key for key. *)
        let rec page start acc =
          match C.scan c ~start ~n:512 with
          | [] -> List.rev acc
          | pairs ->
              let last, _ = List.nth pairs (List.length pairs - 1) in
              page (last ^ "\x00") (List.rev_append pairs acc)
        in
        let remote = page "" [] in
        let expected =
          Store.Sharded.scan local ~start:""
            ~n:(Store.Sharded.cardinal local + 1)
        in
        if remote <> expected then
          failwith
            (Printf.sprintf
               "remote oracle mismatch: server has %d entries, in-process \
                replay has %d (or contents differ)"
               (List.length remote) (List.length expected));
        Some true
  in
  let robust = robust_probe ~addr c in
  let busy_n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 busy in
  {
    busy = busy_n;
    mops_wall = float_of_int n /. wall_s /. 1e6;
    calibrated_mops = calibrated_rate /. 1e6;
    latency =
      {
        LR.threshold_ns = latency_threshold_ns;
        arrival_rate = Some rate;
        latency = hist;
        wall = None;
        shards = [];
        over_threshold = List.length !blamed;
        attributed =
          LR.attribution (fun c -> List.length (List.filter (( = ) c) !blamed));
        stall_totals = stall_diff ~before ~after;
        spikes = !spikes;
        robust = Some robust;
      };
    oracle_ok;
  }
