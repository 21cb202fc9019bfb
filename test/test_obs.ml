(* Tests for the observability layer: JSON serializer, log-scale
   histograms, metric registries and the bounded trace ring. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- JSON --------------------------------------------------------------- *)

let json_renders_scalars () =
  let open Obs.Json in
  check_str "null" "null" (to_string Null);
  check_str "true" "true" (to_string (Bool true));
  check_str "int" "42" (to_string (Int 42));
  check_str "neg" "-7" (to_string (Int (-7)));
  check_str "string" "\"hi\"" (to_string (String "hi"));
  check_str "empty list" "[]" (to_string (List []));
  check_str "empty obj" "{}" (to_string (Obj []))

let json_escapes_strings () =
  let open Obs.Json in
  check_str "quote/backslash" "\"a\\\"b\\\\c\"" (to_string (String "a\"b\\c"));
  check_str "newline" "\"a\\nb\"" (to_string (String "a\nb"));
  check_str "control" "\"\\u0001\"" (to_string (String "\x01"))

let json_floats_are_valid () =
  let open Obs.Json in
  (* NaN / infinities are not JSON; they must degrade to null. *)
  check_str "nan" "null" (to_string (Float Float.nan));
  check_str "inf" "null" (to_string (Float Float.infinity));
  check_str "-inf" "null" (to_string (Float Float.neg_infinity));
  (* Integer-valued floats keep a decimal point (stay floats on re-read). *)
  check_str "whole float" "2.0" (to_string (Float 2.0));
  check_str "fraction" "2.5" (to_string (Float 2.5))

let json_nests () =
  let open Obs.Json in
  let v = Obj [ ("a", List [ Int 1; Obj [ ("b", Bool false) ] ]) ] in
  check_str "compact" "{\"a\":[1,{\"b\":false}]}" (to_string v);
  (* Pretty rendering stays parseable-equivalent: same tokens, plus
     whitespace. *)
  let strip s =
    String.concat ""
      (String.split_on_char '\n' (String.concat "" (String.split_on_char ' ' s)))
  in
  check_str "pretty = compact modulo whitespace" (to_string v)
    (strip (to_string_pretty v))

(* --- JSON parser -------------------------------------------------------- *)

let json_parses_back () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("a", List [ Int 1; Float 2.5; Null; Bool true ]);
        ("s", String "he said \"hi\"\n\ttab");
        ("nested", Obj [ ("neg", Int (-3)); ("empty", List []) ]);
      ]
  in
  check "compact roundtrip" true (of_string (to_string v) = v);
  check "pretty roundtrip" true (of_string (to_string_pretty v) = v)

let json_parses_numbers () =
  let open Obs.Json in
  check "int stays int" true (of_string "42" = Int 42);
  check "negative" true (of_string "-7" = Int (-7));
  check "decimal is float" true (of_string "2.0" = Float 2.0);
  check "exponent is float" true (of_string "1e3" = Float 1000.0);
  check "unicode escape" true (of_string "\"\\u0041\"" = String "A")

let json_rejects_garbage () =
  let open Obs.Json in
  List.iter
    (fun s ->
      check (Printf.sprintf "rejects %S" s) true (of_string_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let json_accessors () =
  let open Obs.Json in
  let v = of_string "{\"a\":{\"b\":[1,2]},\"n\":3.5}" in
  check "find" true (find v "n" = Some (Float 3.5));
  check "find missing" true (find v "zzz" = None);
  check "find_path" true (find_path v [ "a"; "b" ] = Some (List [ Int 1; Int 2 ]));
  check "to_float int" true (to_float_opt (Int 2) = Some 2.0);
  check "to_float string" true (to_float_opt (String "2") = None)

(* --- histogram ---------------------------------------------------------- *)

let histogram_exact_aggregates () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 10.0; 20.0; 30.0; 40.0 ];
  check_int "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 100.0 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 25.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 10.0 (Obs.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 40.0 (Obs.Histogram.max_value h)

let histogram_percentiles_approximate () =
  (* 1..1000: each log-bucket is at most ~12.5% wide, so every quantile
     must land within ~13% of the true value. *)
  let h = Obs.Histogram.create () in
  for i = 1 to 1000 do
    Obs.Histogram.record h (float_of_int i)
  done;
  List.iter
    (fun (q, truth) ->
      let got = Obs.Histogram.percentile h q in
      check
        (Printf.sprintf "p%.0f within bucket error (got %.1f, true %.1f)"
           (q *. 100.0) got truth)
        true
        (Float.abs (got -. truth) /. truth < 0.13))
    [ (0.5, 500.0); (0.9, 900.0); (0.99, 990.0) ];
  (* Extremes stay inside the observed range and in order. *)
  let p0 = Obs.Histogram.percentile h 0.0
  and p50 = Obs.Histogram.percentile h 0.5
  and p100 = Obs.Histogram.percentile h 1.0 in
  check "p0 within range" true (p0 >= 1.0 && p0 <= 2.0);
  check "p100 within range" true (p100 > 900.0 && p100 <= 1000.0);
  check "quantiles ordered" true (p0 <= p50 && p50 <= p100)

let histogram_empty_is_quiet () =
  let h = Obs.Histogram.create () in
  check_int "count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (Obs.Histogram.percentile h 0.5);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Obs.Histogram.mean h)

let histogram_merge_and_diff () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record a) [ 1.0; 2.0 ];
  List.iter (Obs.Histogram.record b) [ 100.0; 200.0 ];
  let m = Obs.Histogram.copy a in
  Obs.Histogram.merge_into ~into:m b;
  check_int "merged count" 4 (Obs.Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged sum" 303.0 (Obs.Histogram.sum m);
  let d = Obs.Histogram.diff ~after:m ~before:a in
  check_int "diff count" 2 (Obs.Histogram.count d);
  Alcotest.(check (float 1e-9)) "diff sum" 300.0 (Obs.Histogram.sum d);
  (* The window's quantiles come from the window's buckets only. *)
  check "diff p50 in b's range" true (Obs.Histogram.percentile d 0.5 >= 90.0)

let histogram_diff_window_extremes () =
  (* The all-time min (1.0) and max (800.0) both land outside the
     window; the window's min/max must be rebuilt from its own occupied
     buckets, not copied from [after]. *)
  let before = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record before) [ 1.0; 800.0 ];
  let after = Obs.Histogram.copy before in
  List.iter (Obs.Histogram.record after) [ 100.0; 200.0 ];
  let d = Obs.Histogram.diff ~after ~before in
  check_int "window count" 2 (Obs.Histogram.count d);
  let mn = Obs.Histogram.min_value d and mx = Obs.Histogram.max_value d in
  (* Bucket bounds: at most ~12.5% away from the true extremes, and
     never as wide as the lifetime range. *)
  check (Printf.sprintf "window min ~100 (got %.1f)" mn) true
    (mn > 80.0 && mn <= 100.0);
  check (Printf.sprintf "window max ~200 (got %.1f)" mx) true
    (mx >= 200.0 && mx < 250.0);
  (* Quantiles clamp to the window's extremes, not the lifetime's. *)
  let p100 = Obs.Histogram.percentile d 1.0 in
  check (Printf.sprintf "window p100 below 250 (got %.1f)" p100) true
    (p100 < 250.0);
  (* An empty window stays quiet even though [after] is not empty. *)
  let e = Obs.Histogram.diff ~after ~before:after in
  check_int "empty window count" 0 (Obs.Histogram.count e);
  Alcotest.(check (float 0.0)) "empty window min" 0.0 (Obs.Histogram.min_value e);
  Alcotest.(check (float 0.0)) "empty window max" 0.0 (Obs.Histogram.max_value e);
  Alcotest.(check (float 0.0)) "empty window p50" 0.0
    (Obs.Histogram.percentile e 0.5)

(* --- registry ----------------------------------------------------------- *)

let registry_handles_are_stable () =
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter r "x" in
  let c2 = Obs.Registry.counter r "x" in
  check "same ref" true (c1 == c2);
  incr c1;
  incr c2;
  check_int "both bump one counter" 2 (Obs.Registry.counter_value r "x");
  check_int "absent counter reads 0" 0 (Obs.Registry.counter_value r "y");
  let h1 = Obs.Registry.histogram r "h" in
  let h2 = Obs.Registry.histogram r "h" in
  check "same histogram" true (h1 == h2)

let registry_merge_sums_shards () =
  let shard i =
    let r = Obs.Registry.create () in
    Obs.Registry.counter r "ops" := 10 * (i + 1);
    Obs.Histogram.record (Obs.Registry.histogram r "lat") (float_of_int (i + 1));
    r
  in
  let m = Obs.Registry.merged [ shard 0; shard 1; shard 2 ] in
  check_int "counters summed" 60 (Obs.Registry.counter_value m "ops");
  match Obs.Registry.find_histogram m "lat" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h -> check_int "histograms summed" 3 (Obs.Histogram.count h)

let registry_snapshot_diff_windows () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "n" in
  c := 5;
  let before = Obs.Registry.snapshot r in
  c := 12;
  Obs.Histogram.record (Obs.Registry.histogram r "h") 3.0;
  let d = Obs.Registry.diff ~after:r ~before in
  check_int "window counter" 7 (Obs.Registry.counter_value d "n");
  (* Snapshot is a deep copy: mutating the live registry never moves it. *)
  check_int "snapshot frozen" 5 (Obs.Registry.counter_value before "n");
  (* Name only in [after] passes through. *)
  match Obs.Registry.find_histogram d "h" with
  | None -> Alcotest.fail "after-only histogram missing from diff"
  | Some h -> check_int "after-only histogram" 1 (Obs.Histogram.count h)

let registry_diff_is_exhaustive () =
  (* Regression: diff used to walk only [after]'s names, so anything
     present in [before] alone silently vanished from the window. *)
  let before = Obs.Registry.create () in
  Obs.Registry.counter before "gone" := 9;
  Obs.Histogram.record (Obs.Registry.histogram before "gone_h") 5.0;
  let after = Obs.Registry.create () in
  Obs.Registry.counter after "kept" := 3;
  let d = Obs.Registry.diff ~after ~before in
  check_int "after-only counter" 3 (Obs.Registry.counter_value d "kept");
  check_int "before-only counter negated" (-9)
    (Obs.Registry.counter_value d "gone");
  match Obs.Registry.find_histogram d "gone_h" with
  | None -> Alcotest.fail "before-only histogram missing from diff"
  | Some h -> check_int "before-only histogram negated" (-1) (Obs.Histogram.count h)

let registry_json_shape () =
  let r = Obs.Registry.create () in
  Obs.Registry.counter r "a" := 1;
  Obs.Histogram.record (Obs.Registry.histogram r "b") 4.0;
  match Obs.Registry.to_json r with
  | Obs.Json.Obj [ ("counters", Obs.Json.Obj cs); ("histograms", Obs.Json.Obj hs) ]
    ->
      check_int "one counter" 1 (List.length cs);
      check_int "one histogram" 1 (List.length hs);
      check "histogram has p99" true
        (match List.assoc "b" hs with
        | Obs.Json.Obj fields -> List.mem_assoc "p99" fields
        | _ -> false)
  | _ -> Alcotest.fail "unexpected registry JSON shape"

(* --- trace ring --------------------------------------------------------- *)

let custom kind arg = Obs.Trace.Custom { kind; arg }
let event_arg e = Obs.Trace.arg e.Obs.Trace.payload
let event_kind e = Obs.Trace.kind e.Obs.Trace.payload

let trace_disabled_by_default () =
  let tr = Obs.Trace.create () in
  check "disabled" false (Obs.Trace.enabled tr);
  Obs.Trace.record tr ~ts_ns:1.0 (custom "x" 0);
  check_int "no-op while disabled" 0 (Obs.Trace.length tr)

let trace_ring_bounds_memory () =
  let tr = Obs.Trace.create ~capacity:4 () in
  Obs.Trace.set_enabled tr true;
  for i = 1 to 10 do
    Obs.Trace.record tr ~ts_ns:(float_of_int i) (custom "e" i)
  done;
  check_int "bounded" 4 (Obs.Trace.length tr);
  check_int "total counts all" 10 (Obs.Trace.total tr);
  check_int "dropped = overflow" 6 (Obs.Trace.dropped tr);
  (* Oldest-first, and the survivors are the newest events. *)
  Alcotest.(check (list int)) "keeps the tail" [ 7; 8; 9; 10 ]
    (List.map event_arg (Obs.Trace.to_list tr));
  Obs.Trace.clear tr;
  check_int "clear empties" 0 (Obs.Trace.length tr)

let trace_wraparound_ordering () =
  (* Ordering must hold in the wrapped regime, where the ring's write
     cursor sits mid-array: to_list must stitch [cursor..end] before
     [0..cursor-1], oldest first, for any overflow amount. *)
  List.iter
    (fun n ->
      let tr = Obs.Trace.create ~capacity:5 () in
      Obs.Trace.set_enabled tr true;
      for i = 1 to n do
        Obs.Trace.record tr ~ts_ns:(float_of_int i) (custom "e" i)
      done;
      let got = List.map event_arg (Obs.Trace.to_list tr) in
      let expect = List.init (min n 5) (fun i -> max 0 (n - 5) + i + 1) in
      Alcotest.(check (list int))
        (Printf.sprintf "order after %d records" n)
        expect got;
      let ts = List.map (fun e -> e.Obs.Trace.ts_ns) (Obs.Trace.to_list tr) in
      check "timestamps sorted" true (List.sort compare ts = ts))
    [ 3; 5; 6; 7; 11; 23 ]

let trace_events_through_region () =
  (* End-to-end: the NVM region stamps events with the simulated clock. *)
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 1024 * 1024;
      extlog_bytes = 64 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Obs.Trace.set_enabled (Nvm.Region.trace r) true;
  Nvm.Region.write_i64 r 4096 1L;
  Nvm.Region.clwb r 4096;
  Nvm.Region.sfence r;
  let events = Obs.Trace.to_list (Nvm.Region.trace r) in
  Alcotest.(check (list string)) "clwb then sfence" [ "clwb"; "sfence" ]
    (List.map event_kind events);
  (match events with
  | [ { Obs.Trace.payload = Obs.Trace.Clwb { line }; _ };
      { Obs.Trace.payload = Obs.Trace.Slice { arg = drained; dur_ns; _ }; _ } ] ->
      check_int "clwb line" (4096 / 64) line;
      check_int "sfence drained the line" 1 drained;
      check "sfence cost recorded" true (dur_ns > 0.0)
  | _ -> Alcotest.fail "unexpected payloads");
  let ts = List.map (fun e -> e.Obs.Trace.ts_ns) events in
  check "timestamps monotone" true (List.sort compare ts = ts)

(* --- named intervals -------------------------------------------------------- *)

let span_env () =
  let now = ref 0.0 in
  let reg = Obs.Registry.create () in
  let tr = Obs.Trace.create () in
  Obs.Trace.set_enabled tr true;
  let sp =
    Obs.Stall.create ~registry:reg ~trace:tr ~clock:(fun () -> !now) ()
  in
  (now, reg, tr, sp)

let dur (iv : Obs.Stall.interval) = iv.end_ns -. iv.start_ns

let span_nesting_and_histograms () =
  let now, reg, tr, sp = span_env () in
  Obs.Stall.begin_ sp "outer";
  now := 10.0;
  Obs.Stall.begin_ sp "inner";
  now := 30.0;
  let inner = Obs.Stall.end_ sp "inner" in
  now := 100.0;
  let outer = Obs.Stall.end_ sp "outer" in
  Alcotest.(check (float 1e-9)) "inner duration" 20.0 (dur inner);
  Alcotest.(check (float 1e-9)) "outer spans the inner one" 100.0 (dur outer);
  check "outer's children" true (outer.Obs.Stall.children = [ inner ]);
  (match Obs.Stall.end_ sp "outer" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stack must be empty");
  (* Durations fold into per-name histograms in the registry. *)
  (match Obs.Registry.find_histogram reg "span.inner_ns" with
  | Some h ->
      check_int "inner count" 1 (Obs.Histogram.count h);
      Alcotest.(check (float 1e-9)) "inner sum" 20.0 (Obs.Histogram.sum h)
  | None -> Alcotest.fail "span.inner_ns histogram missing");
  (* And each closed interval is one slice in the trace ring. *)
  Alcotest.(check (list string)) "one slice per interval, as they close"
    [ "inner"; "outer" ]
    (List.map event_kind (Obs.Trace.to_list tr));
  (* None of them was a stall. *)
  check_int "no stall" 0 (Obs.Stall.admitted sp)

(* A named interval given a cause is also a stall scope of that cause,
   from the moment the cause is given until the interval ends. *)
let span_stalls_from_its_cause () =
  let now, _, _, sp = span_env () in
  Obs.Stall.begin_ sp ~cause:Obs.Stall.Recovery "recover";
  now := 50.0;
  ignore (Obs.Stall.end_ sp "recover" : Obs.Stall.interval);
  Obs.Stall.begin_ sp "checkpoint";
  now := 80.0;
  Obs.Stall.stall sp "checkpoint" Obs.Stall.Epoch_advance;
  now := 100.0;
  ignore (Obs.Stall.end_ sp "checkpoint" : Obs.Stall.interval);
  match Obs.Stall.entries sp with
  | [ r; c ] ->
      check "recover stall" true
        (r.Obs.Stall.cause = Obs.Stall.Recovery
        && r.Obs.Stall.start_ns = 0.0 && r.Obs.Stall.dur_ns = 50.0);
      check "checkpoint stalls from its cause" true
        (c.Obs.Stall.cause = Obs.Stall.Epoch_advance
        && c.Obs.Stall.start_ns = 80.0 && c.Obs.Stall.dur_ns = 20.0)
  | l -> Alcotest.failf "expected 2 stalls, got %d" (List.length l)

let span_unbalanced_end_raises () =
  let _, _, _, sp = span_env () in
  (match Obs.Stall.end_ sp "never_opened" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "end on empty stack must raise");
  Obs.Stall.begin_ sp "a";
  (match Obs.Stall.end_ sp "b" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched name must raise");
  (* The mismatch must not have popped the real frame. *)
  check "frame intact" true
    ((Obs.Stall.end_ sp "a").Obs.Stall.name = "a")

(* An exception out of [with_] leaves its interval open and unrecorded,
   with whatever [f] opened inside it (as a crash point inside a
   checkpoint inside a recovery phase does); [abandon], which a region
   crash calls, drops them all, stall scope included. *)
let span_with_on_exception () =
  let now, reg, tr, sp = span_env () in
  Obs.Stall.begin_ sp ~cause:Obs.Stall.Recovery "recover";
  (try
     Obs.Stall.with_ sp "risky" (fun () ->
         Obs.Stall.begin_ sp "inner";
         now := 7.0;
         failwith "boom")
   with Failure _ -> ());
  check "nothing recorded" true
    (Obs.Registry.find_histogram reg "span.risky_ns" = None
    && Obs.Trace.length tr = 0
    && Obs.Stall.admitted sp = 0);
  Obs.Stall.abandon sp;
  (match Obs.Stall.end_ sp "recover" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "abandon must empty the stack");
  (* The recorder works on, and no stale scope swallows a new stall. *)
  Obs.Stall.with_ sp "after" (fun () -> now := 9.0);
  (match Obs.Registry.find_histogram reg "span.after_ns" with
  | Some h -> Alcotest.(check (float 1e-9)) "after recorded" 2.0 (Obs.Histogram.sum h)
  | None -> Alcotest.fail "span.after_ns histogram missing");
  Obs.Stall.enter sp Obs.Stall.Extlog;
  now := 10.0;
  Obs.Stall.exit sp;
  check_int "a fresh scope records" 1 (Obs.Stall.admitted sp)

(* --- series ------------------------------------------------------------- *)

let series_bounded_downsampling () =
  let s = Obs.Series.create ~capacity:8 ~name:"x" () in
  for i = 0 to 999 do
    Obs.Series.sample s ~ts_ns:(float_of_int i) ~value:(float_of_int (i * 2))
  done;
  check "bounded" true (Obs.Series.length s <= 8);
  check_int "every offer counted" 1000 (Obs.Series.seen s);
  let stride = Obs.Series.stride s in
  check "stride is a power of two" true (stride land (stride - 1) = 0);
  let pts = Obs.Series.points s in
  (* The first sample survives every compaction, spacing stays uniform,
     and timestamps stay sorted. *)
  (match pts with
  | (ts0, v0) :: _ ->
      Alcotest.(check (float 0.0)) "first point kept" 0.0 ts0;
      Alcotest.(check (float 0.0)) "first value kept" 0.0 v0
  | [] -> Alcotest.fail "empty series");
  let ts = List.map fst pts in
  check "sorted" true (List.sort compare ts = ts);
  (match ts with
  | t0 :: t1 :: _ ->
      Alcotest.(check (float 1e-9)) "uniform spacing = stride"
        (float_of_int stride) (t1 -. t0)
  | _ -> Alcotest.fail "expected >= 2 points");
  (* The newest stored point can lag the newest offer by at most two
     strides (offers between acceptance points are dropped). *)
  check "last stored point is recent" true
    (match Obs.Series.last s with
    | Some (t, _) -> t >= float_of_int (1000 - (2 * stride))
    | None -> false)

let series_small_keeps_everything () =
  let s = Obs.Series.create ~capacity:16 ~name:"y" () in
  for i = 1 to 10 do
    Obs.Series.sample s ~ts_ns:(float_of_int i) ~value:(float_of_int i)
  done;
  check_int "no downsampling below capacity" 10 (Obs.Series.length s);
  check_int "stride 1" 1 (Obs.Series.stride s);
  match Obs.Series.to_json s with
  | Obs.Json.Obj fields ->
      check "json has points" true (List.mem_assoc "points" fields);
      check "json has stride" true (List.mem_assoc "stride" fields)
  | _ -> Alcotest.fail "unexpected series JSON shape"

(* --- stall ledger ------------------------------------------------------- *)

(* [since ~admitted] must attribute a window exactly like [overlapping]
   whenever the window opens at an admission point and entries arrive in
   clock order, as they do from a region: random stalls (some below the
   admission filter), random gaps, a ring small enough to wrap often,
   and windows longer than the ring. *)
let stall_since_matches_overlapping () =
  let rng = Random.State.make [| 13 |] in
  let causes = Array.of_list Obs.Stall.all_causes in
  let l = Obs.Stall.create ~capacity:16 () in
  Obs.Stall.set_min_dur_ns l 5.0;
  let clock = ref 0.0 and attributed = ref 0 in
  let stall () =
    clock := !clock +. Random.State.float rng 50.0;
    let dur = Random.State.float rng 100.0 in
    Obs.Stall.record l
      causes.(Random.State.int rng (Array.length causes))
      ~start_ns:!clock ~dur_ns:dur;
    clock := !clock +. dur
  in
  for _ = 1 to 500 do
    for _ = 1 to Random.State.int rng 40 do
      stall ()
    done;
    let a0 = Obs.Stall.admitted l and t0 = !clock in
    for _ = 1 to Random.State.int rng 24 do
      stall ()
    done;
    let t1 = !clock +. Random.State.float rng 10.0 +. 1.0 in
    let via_since = Obs.Stall.since l ~admitted:a0 in
    check "since is bounded by the ring" true
      (List.length via_since <= Obs.Stall.capacity l);
    let cause = Obs.Stall.dominant_cause via_since ~t0 ~t1 in
    if cause <> None then incr attributed;
    check "same dominant cause" true
      (cause
      = Obs.Stall.dominant_cause (Obs.Stall.overlapping l ~t0 ~t1) ~t0 ~t1)
  done;
  check "most windows attribute a cause" true (!attributed > 250);
  check "the ring wrapped" true
    (Obs.Stall.admitted l > 10 * Obs.Stall.capacity l)

(* --- Perfetto export ---------------------------------------------------- *)

let perfetto_export_well_formed () =
  let tr = Obs.Trace.create () in
  Obs.Trace.set_enabled tr true;
  let ev ts p = Obs.Trace.record tr ~ts_ns:ts p in
  let slice name dur_ns label arg = Obs.Trace.Slice { name; dur_ns; label; arg } in
  ev 10.0 (Obs.Trace.Clwb { line = 3 });
  ev 60.0 (slice "sfence" 50.0 "drained" 1);
  ev 200.0 (slice "wbinvd" 120.0 "lines" 4);
  ev 210.0 (slice "checkpoint" 210.0 "epoch" 3);
  ev 400.0 (slice "checkpoint" 10.0 "epoch" 4);
  let series = Obs.Series.create ~capacity:8 ~name:"epoch.dirty_lines" () in
  Obs.Series.sample series ~ts_ns:200.0 ~value:4.0;
  let json =
    Obs.Perfetto.export
      ~series:[ ("shard0/epoch.dirty_lines", series) ]
      ~tracks:[ ("shard0", tr) ] ()
  in
  (* The export must be parseable by our own reader (and hence valid
     JSON for Perfetto / chrome://tracing). *)
  let parsed = Obs.Json.of_string (Obs.Json.to_string_pretty json) in
  check "roundtrips" true (parsed = json);
  let events =
    match Obs.Json.find parsed "traceEvents" with
    | Some (Obs.Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let field e name =
    match Obs.Json.find e name with Some v -> v | None -> Obs.Json.Null
  in
  let phases =
    List.filter_map
      (fun e -> match field e "ph" with Obs.Json.String p -> Some p | _ -> None)
      events
  in
  List.iter
    (fun p ->
      check (Printf.sprintf "has a %S event" p) true (List.mem p phases))
    [ "X"; "i"; "C"; "M" ];
  let names =
    List.filter_map
      (fun e ->
        match field e "name" with Obs.Json.String n -> Some n | _ -> None)
      events
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "has a %S slice" n) true (List.mem n names))
    [ "checkpoint"; "sfence"; "wbinvd"; "epoch 3"; "epoch 4" ];
  (* Complete slices carry a duration and start at end - dur. *)
  List.iter
    (fun e ->
      if field e "ph" = Obs.Json.String "X" then
        check "X slice has dur" true
          (match Obs.Json.to_float_opt (field e "dur") with
          | Some d -> d >= 0.0
          | None -> false))
    events;
  (* Every event sits on a numbered pid/tid. *)
  List.iter
    (fun e ->
      check "event has pid" true (Obs.Json.to_float_opt (field e "pid") <> None))
    events

let tests =
  ( "obs",
    [
      Alcotest.test_case "json scalars" `Quick json_renders_scalars;
      Alcotest.test_case "json escaping" `Quick json_escapes_strings;
      Alcotest.test_case "json floats valid" `Quick json_floats_are_valid;
      Alcotest.test_case "json nesting/pretty" `Quick json_nests;
      Alcotest.test_case "json parser roundtrip" `Quick json_parses_back;
      Alcotest.test_case "json parser numbers" `Quick json_parses_numbers;
      Alcotest.test_case "json parser rejects garbage" `Quick json_rejects_garbage;
      Alcotest.test_case "json accessors" `Quick json_accessors;
      Alcotest.test_case "histogram aggregates exact" `Quick histogram_exact_aggregates;
      Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles_approximate;
      Alcotest.test_case "histogram empty" `Quick histogram_empty_is_quiet;
      Alcotest.test_case "histogram merge/diff" `Quick histogram_merge_and_diff;
      Alcotest.test_case "histogram diff window extremes" `Quick
        histogram_diff_window_extremes;
      Alcotest.test_case "registry stable handles" `Quick registry_handles_are_stable;
      Alcotest.test_case "registry merges shards" `Quick registry_merge_sums_shards;
      Alcotest.test_case "registry snapshot/diff" `Quick registry_snapshot_diff_windows;
      Alcotest.test_case "registry diff exhaustive" `Quick registry_diff_is_exhaustive;
      Alcotest.test_case "registry JSON shape" `Quick registry_json_shape;
      Alcotest.test_case "trace disabled by default" `Quick trace_disabled_by_default;
      Alcotest.test_case "trace ring bounds memory" `Quick trace_ring_bounds_memory;
      Alcotest.test_case "trace wrap-around ordering" `Quick trace_wraparound_ordering;
      Alcotest.test_case "trace via region" `Quick trace_events_through_region;
      Alcotest.test_case "span nesting/histograms" `Quick span_nesting_and_histograms;
      Alcotest.test_case "span stalls from its cause" `Quick span_stalls_from_its_cause;
      Alcotest.test_case "span unbalanced end" `Quick span_unbalanced_end_raises;
      Alcotest.test_case "span with_ on exception" `Quick span_with_on_exception;
      Alcotest.test_case "series downsampling" `Quick series_bounded_downsampling;
      Alcotest.test_case "series below capacity" `Quick series_small_keeps_everything;
      Alcotest.test_case "stall since = overlapping attribution" `Quick
        stall_since_matches_overlapping;
      Alcotest.test_case "perfetto export" `Quick perfetto_export_well_formed;
    ] )
