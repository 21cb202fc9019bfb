type cause =
  | Epoch_advance
  | Clwb_sweep
  | Extlog
  | Limbo_merge
  | Alloc_slow
  | Txn_fence
  | Recovery
  | Net_queue

let all_causes =
  [
    Epoch_advance;
    Clwb_sweep;
    Extlog;
    Limbo_merge;
    Alloc_slow;
    Txn_fence;
    Recovery;
    Net_queue;
  ]

let ncauses = List.length all_causes

let cause_index = function
  | Epoch_advance -> 0
  | Clwb_sweep -> 1
  | Extlog -> 2
  | Limbo_merge -> 3
  | Alloc_slow -> 4
  | Txn_fence -> 5
  | Recovery -> 6
  | Net_queue -> 7

let cause_name = function
  | Epoch_advance -> "epoch_advance"
  | Clwb_sweep -> "clwb_sweep"
  | Extlog -> "extlog"
  | Limbo_merge -> "limbo_merge"
  | Alloc_slow -> "alloc_slow"
  | Txn_fence -> "txn_fence"
  | Recovery -> "recovery"
  | Net_queue -> "net_queue"

let cause_of_index i = List.nth_opt all_causes i

type entry = { cause : cause; start_ns : float; dur_ns : float; epoch : int }

(* Attribute a [t0, t1) window to the cause with the largest total overlap
   among [entries]; [None] when nothing overlaps. Shared by the bench
   runner's slow-op attribution and the server's per-request stall
   reporting. *)
let dominant_cause entries ~t0 ~t1 =
  let sums = Array.make ncauses 0.0 in
  List.iter
    (fun e ->
      let o = Float.min t1 (e.start_ns +. e.dur_ns) -. Float.max t0 e.start_ns in
      if o > 0.0 then
        let i = cause_index e.cause in
        sums.(i) <- sums.(i) +. o)
    entries;
  List.fold_left
    (fun best c ->
      let v = sums.(cause_index c) in
      if v <= 0.0 then best
      else
        match best with
        | Some (_, b) when b >= v -> best
        | _ -> Some (c, v))
    None all_causes
  |> Option.map fst

let nil_entry = { cause = Epoch_advance; start_ns = 0.0; dur_ns = 0.0; epoch = 0 }

type t = {
  buf : entry array;
  mutable len : int;
  mutable next : int;  (* ring write cursor *)
  mutable admitted : int;
  mutable min_dur_ns : float;
  mutable epoch : int;
  (* Outermost-wins scope state. *)
  mutable scope_depth : int;
  mutable scope_cause : cause;
  mutable scope_start : float;
  hist : Histogram.t array;  (* per-cause durations, ncauses entries *)
  counts : int array;
  totals : float array;
}

let create ?(capacity = 1024) ?registry () =
  let capacity = max 1 capacity in
  let hist =
    match registry with
    | Some r ->
        Array.of_list
          (List.map
             (fun c -> Registry.histogram r ("stall." ^ cause_name c ^ "_ns"))
             all_causes)
    | None -> Array.init ncauses (fun _ -> Histogram.create ())
  in
  {
    buf = Array.make capacity nil_entry;
    len = 0;
    next = 0;
    admitted = 0;
    min_dur_ns = 0.0;
    epoch = 0;
    scope_depth = 0;
    scope_cause = Epoch_advance;
    scope_start = 0.0;
    hist;
    counts = Array.make ncauses 0;
    totals = Array.make ncauses 0.0;
  }

let set_epoch t e = t.epoch <- e
let set_min_dur_ns t ns = t.min_dur_ns <- ns

let record t cause ~start_ns ~dur_ns =
  let i = cause_index cause in
  t.counts.(i) <- t.counts.(i) + 1;
  t.totals.(i) <- t.totals.(i) +. dur_ns;
  Histogram.record t.hist.(i) dur_ns;
  if dur_ns >= t.min_dur_ns then begin
    t.buf.(t.next) <- { cause; start_ns; dur_ns; epoch = t.epoch };
    t.next <- (t.next + 1) mod Array.length t.buf;
    if t.len < Array.length t.buf then t.len <- t.len + 1;
    t.admitted <- t.admitted + 1
  end

let enter t cause ~now =
  if t.scope_depth = 0 then begin
    t.scope_cause <- cause;
    t.scope_start <- now
  end;
  t.scope_depth <- t.scope_depth + 1

let exit t ~now =
  if t.scope_depth > 0 then begin
    t.scope_depth <- t.scope_depth - 1;
    if t.scope_depth = 0 then
      record t t.scope_cause ~start_ns:t.scope_start
        ~dur_ns:(Float.max 0.0 (now -. t.scope_start))
  end

let leaf t cause ~start_ns ~dur_ns =
  if t.scope_depth = 0 then record t cause ~start_ns ~dur_ns

let length t = t.len
let capacity t = Array.length t.buf
let admitted t = t.admitted

let entries t =
  let cap = Array.length t.buf in
  let first = (t.next - t.len + cap) mod cap in
  List.init t.len (fun i -> t.buf.((first + i) mod cap))

let overlapping t ~t0 ~t1 =
  List.filter
    (fun e -> e.start_ns < t1 && e.start_ns +. e.dur_ns > t0)
    (entries t)

let since t ~admitted =
  let cap = Array.length t.buf in
  let fresh = if t.admitted >= admitted then t.admitted - admitted else t.admitted in
  let n = min t.len fresh in
  List.init n (fun i -> t.buf.((t.next - n + i + cap) mod cap))

let counts t = List.map (fun c -> (c, t.counts.(cause_index c))) all_causes

let totals_ns t =
  List.map (fun c -> (c, t.totals.(cause_index c))) all_causes

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.admitted <- 0;
  t.scope_depth <- 0;
  Array.fill t.counts 0 ncauses 0;
  Array.fill t.totals 0 ncauses 0.0

let to_json t =
  let cause_obj =
    List.map
      (fun c ->
        let i = cause_index c in
        ( cause_name c,
          Json.Obj
            [
              ("count", Json.Int t.counts.(i));
              ("total_ns", Json.Float t.totals.(i));
            ] ))
      all_causes
  in
  let entry_json e =
    Json.Obj
      [
        ("cause", Json.String (cause_name e.cause));
        ("start_ns", Json.Float e.start_ns);
        ("dur_ns", Json.Float e.dur_ns);
        ("epoch", Json.Int e.epoch);
      ]
  in
  Json.Obj
    [
      ("causes", Json.Obj cause_obj);
      ("entries", Json.List (List.map entry_json (entries t)));
    ]
