(* Chrome trace_event JSON ("JSON Array Format" with the traceEvents
   wrapper), loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
   Timestamps are microseconds; the simulator's ns stamps divide by 1e3. *)

let us ns = ns /. 1000.0

let ev ~name ~cat ~ph ~ts ~pid ~tid extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String ph);
       ("ts", Json.Float (us ts));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extra)

let instant ~name ~cat ~ts ~pid ~tid args =
  ev ~name ~cat ~ph:"i" ~ts ~pid ~tid
    (("s", Json.String "t") :: if args = [] then [] else [ ("args", Json.Obj args) ])

let complete ~name ~cat ~ts ~dur_ns ~pid ~tid args =
  (* ts is the event's END stamp (costs are charged before recording);
     shift back by the duration so the slice covers the paid interval. *)
  ev ~name ~cat ~ph:"X" ~ts:(ts -. dur_ns) ~pid ~tid
    (("dur", Json.Float (us dur_ns))
    :: (if args = [] then [] else [ ("args", Json.Obj args) ]))

let thread_name ~pid ~tid name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

(* Category and argument name of an event. *)
let meta = function
  | Trace.Clwb _ -> ("persist", "line")
  | Trace.Crash -> ("crash", "")
  | Trace.Extlog_append _ -> ("extlog", "bytes")
  | Trace.Extlog_replay _ -> ("extlog", "entries")
  | Trace.Incll_first_touch _ | Trace.Incll_fallback _ -> ("incll", "leaf")
  | Trace.Custom _ -> ("custom", "arg")
  | Trace.Slice { label; _ } -> ("interval", label)

(* One trace ring -> events on one tid. A checkpoint slice starts at the
   boundary of the epoch it enters, so consecutive checkpoints frame
   synthesized "epoch N" slices: an epoch's life (dirty buildup, flush
   burst, extlog appends) reads as one box in the timeline. *)
let events_of_trace ~pid ~tid trace =
  let out = ref [] in
  let push j = out := j :: !out in
  let open_epoch = ref None in
  let close_epoch ts =
    match !open_epoch with
    | Some (e0, t0) when ts > t0 ->
        push
          (complete ~name:(Printf.sprintf "epoch %d" e0) ~cat:"epoch" ~ts
             ~dur_ns:(ts -. t0) ~pid ~tid [ ("epoch", Json.Int e0) ])
    | _ -> ()
  in
  let last_ts = ref 0.0 in
  List.iter
    (fun { Trace.ts_ns = ts; payload } ->
      last_ts := ts;
      let cat, label = meta payload in
      let args =
        if label = "" then [] else [ (label, Json.Int (Trace.arg payload)) ]
      in
      let name = Trace.kind payload in
      match payload with
      | Trace.Slice { dur_ns; arg; _ } ->
          push (complete ~name ~cat ~ts ~dur_ns ~pid ~tid args);
          if name = "checkpoint" then begin
            close_epoch (ts -. dur_ns);
            open_epoch := Some (arg, ts -. dur_ns)
          end
      | _ -> push (instant ~name ~cat ~ts ~pid ~tid args))
    (Trace.to_list trace);
  (* Close the trailing epoch at the last seen stamp. *)
  close_epoch !last_ts;
  List.rev !out

let counter_events ~pid ~name series =
  List.map
    (fun (ts, v) ->
      Json.Obj
        [
          ("name", Json.String name);
          ("cat", Json.String "series");
          ("ph", Json.String "C");
          ("ts", Json.Float (us ts));
          ("pid", Json.Int pid);
          ("args", Json.Obj [ ("value", Json.Float v) ]);
        ])
    (Series.points series)

(* One stall ledger -> complete slices (named by cause) on a dedicated
   tid, so a shard's stalls line up under its main track in the UI. *)
let events_of_stalls ~pid ~tid ledger =
  List.map
    (fun { Stall.cause; start_ns; dur_ns; epoch } ->
      complete
        ~name:(Stall.cause_name cause)
        ~cat:"stall" ~ts:(start_ns +. dur_ns) ~dur_ns ~pid ~tid
        [ ("epoch", Json.Int epoch) ])
    (Stall.entries ledger)

let export ?(pid = 1) ?(series = []) ?(stalls = []) ~tracks () =
  let track_events =
    List.concat
      (List.mapi
         (fun tid (label, trace) ->
           thread_name ~pid ~tid label :: events_of_trace ~pid ~tid trace)
         tracks)
  in
  (* Stall tracks take tids above the trace tracks. *)
  let base = List.length tracks in
  let stall_events =
    List.concat
      (List.mapi
         (fun i (label, ledger) ->
           let tid = base + i in
           thread_name ~pid ~tid (label ^ " stalls")
           :: events_of_stalls ~pid ~tid ledger)
         stalls)
  in
  let series_events =
    List.concat_map (fun (name, s) -> counter_events ~pid ~name s) series
  in
  Json.Obj
    [
      ("traceEvents", Json.List (track_events @ stall_events @ series_events));
      ("displayTimeUnit", Json.String "ns");
    ]
