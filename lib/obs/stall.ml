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
  match entries with
  | [] -> None (* the per-op case: allocate nothing *)
  | _ ->
      let sums = Array.make ncauses 0.0 in
      List.iter
        (fun e ->
          let o =
            Float.min t1 (e.start_ns +. e.dur_ns) -. Float.max t0 e.start_ns
          in
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

type interval = {
  name : string;
  start_ns : float;
  end_ns : float;
  wall_ns : float;
  children : interval list;
}

(* An open named interval. [scoped]: it opened a stall scope that its
   end closes. *)
type frame = {
  fname : string;
  t0 : float;
  wall0 : float;
  mutable scoped : bool;
  mutable closed : interval list;  (* closed children, newest first *)
}

type point = {
  pname : string;
  phist : Histogram.t;
  label : string;
  pcause : cause;
}

type t = {
  clock : unit -> float;
  wall_clock : (unit -> float) option;
  registry : Registry.t;
  trace : Trace.t option;
  (* The attribution ring. *)
  buf : entry array;
  mutable len : int;
  mutable next : int;  (* ring write cursor *)
  mutable admitted : int;
  mutable min_dur_ns : float;
  mutable epoch : int;
  (* Outermost-wins stall scope. *)
  mutable scope_depth : int;
  mutable scope_cause : cause;
  mutable scope_start : float;
  hist : Histogram.t array;  (* stall durations per cause *)
  mutable frames : frame list;  (* open named intervals, innermost first *)
}

let no_clock () = 0.0

let create ?(capacity = 1024) ?registry ?trace ?wall_clock ?(clock = no_clock)
    () =
  let capacity = max 1 capacity in
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  {
    clock;
    wall_clock;
    registry;
    trace;
    buf = Array.make capacity nil_entry;
    len = 0;
    next = 0;
    admitted = 0;
    min_dur_ns = 0.0;
    epoch = 0;
    scope_depth = 0;
    scope_cause = Epoch_advance;
    scope_start = 0.0;
    hist =
      Array.of_list
        (List.map
           (fun c ->
             Registry.histogram registry ("stall." ^ cause_name c ^ "_ns"))
           all_causes);
    frames = [];
  }

let set_epoch t e = t.epoch <- e
let set_min_dur_ns t ns = t.min_dur_ns <- ns

(* The op-track slice of an interval that ends now. *)
let slice t ~now ~name ~dur_ns ~label ~arg =
  match t.trace with
  | Some tr when Trace.enabled tr ->
      Trace.record tr ~ts_ns:now (Trace.Slice { name; dur_ns; label; arg })
  | _ -> ()

(* --- stalls ------------------------------------------------------------- *)

let record t cause ~start_ns ~dur_ns =
  Histogram.record t.hist.(cause_index cause) dur_ns;
  if dur_ns >= t.min_dur_ns then begin
    t.buf.(t.next) <- { cause; start_ns; dur_ns; epoch = t.epoch };
    t.next <- (t.next + 1) mod Array.length t.buf;
    if t.len < Array.length t.buf then t.len <- t.len + 1;
    t.admitted <- t.admitted + 1
  end

let enter t cause =
  if t.scope_depth = 0 then begin
    t.scope_cause <- cause;
    t.scope_start <- t.clock ()
  end;
  t.scope_depth <- t.scope_depth + 1

let exit t =
  if t.scope_depth > 0 then begin
    t.scope_depth <- t.scope_depth - 1;
    if t.scope_depth = 0 then
      record t t.scope_cause ~start_ns:t.scope_start
        ~dur_ns:(Float.max 0.0 (t.clock () -. t.scope_start))
  end

(* --- points ------------------------------------------------------------- *)

let point t ~name ~histogram ?(label = "") cause =
  {
    pname = name;
    phist = Registry.histogram t.registry histogram;
    label;
    pcause = cause;
  }

let leaf t p ~dur_ns ~arg =
  Histogram.record p.phist dur_ns;
  let tracing =
    match t.trace with Some tr -> Trace.enabled tr | None -> false
  in
  if t.scope_depth = 0 || tracing then begin
    let now = t.clock () in
    (* Inside a scope the scope owns this time. *)
    if t.scope_depth = 0 then
      record t p.pcause ~start_ns:(now -. dur_ns) ~dur_ns;
    slice t ~now ~name:p.pname ~dur_ns ~label:p.label ~arg
  end

(* --- named intervals ------------------------------------------------------ *)

let innermost t name what =
  match t.frames with
  | [] ->
      invalid_arg (Printf.sprintf "Stall.%s: no open interval (%S)" what name)
  | f :: _ when f.fname <> name ->
      invalid_arg
        (Printf.sprintf "Stall.%s: unbalanced (%S open, %S given)" what f.fname
           name)
  | f :: rest -> (f, rest)

let stall t name cause =
  let f, _ = innermost t name "stall" in
  if not f.scoped then begin
    enter t cause;
    f.scoped <- true
  end

let begin_ t ?cause name =
  let wall0 = match t.wall_clock with Some w -> w () | None -> 0.0 in
  t.frames <-
    { fname = name; t0 = t.clock (); wall0; scoped = false; closed = [] }
    :: t.frames;
  Option.iter (stall t name) cause

let end_ t ?arg name =
  let f, rest = innermost t name "end_" in
  t.frames <- rest;
  if f.scoped then exit t;
  let now = t.clock () in
  let dur_ns = now -. f.t0 in
  let hist suffix = Registry.histogram t.registry ("span." ^ name ^ suffix) in
  Histogram.record (hist "_ns") dur_ns;
  let wall_ns =
    match t.wall_clock with
    | Some w ->
        let d = w () -. f.wall0 in
        Histogram.record (hist "_wall_ns") d;
        d
    | None -> 0.0
  in
  let iv =
    {
      name;
      start_ns = f.t0;
      end_ns = now;
      wall_ns;
      children = List.rev f.closed;
    }
  in
  (match rest with p :: _ -> p.closed <- iv :: p.closed | [] -> ());
  let label, arg = Option.value arg ~default:("", 0) in
  slice t ~now ~name ~dur_ns ~label ~arg;
  iv

let with_ t name f =
  begin_ t name;
  let r = f () in
  ignore (end_ t name : interval);
  r

let abandon t =
  t.frames <- [];
  t.scope_depth <- 0

(* --- the attribution ring --------------------------------------------------- *)

let length t = t.len
let capacity t = Array.length t.buf
let admitted t = t.admitted

let entries t =
  let cap = Array.length t.buf in
  let first = (t.next - t.len + cap) mod cap in
  List.init t.len (fun i -> t.buf.((first + i) mod cap))

let overlapping t ~t0 ~t1 =
  List.filter
    (fun (e : entry) -> e.start_ns < t1 && e.start_ns +. e.dur_ns > t0)
    (entries t)

let since t ~admitted =
  let cap = Array.length t.buf in
  let fresh = if t.admitted >= admitted then t.admitted - admitted else t.admitted in
  let n = min t.len fresh in
  List.init n (fun i -> t.buf.((t.next - n + i + cap) mod cap))

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.admitted <- 0;
  t.scope_depth <- 0;
  Option.iter Trace.clear t.trace
