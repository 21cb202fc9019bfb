(* Traced-run span store: one span per call into the store (or per
   client call on the serve workload), kept in preallocated flat arrays
   so tracing costs a few stores per op, and written as Chrome/Perfetto
   trace_event JSON once the run is over. *)

(* Layer the call is attributed to: the first of these counters that
   moved during it, in this order. *)
let cls_plain = 0
let cls_checkpoint = 1
let cls_extlog = 2
let cls_alloc = 3
let cls_names = [| "plain"; "checkpoint"; "extlog_append"; "alloc_slow" |]

type t = {
  cap : int;
  start : int array;  (** monotonic ns *)
  dur : int array;
  sim : int array;  (** simulated ns charged (in-process) / reply queue ns (serve) *)
  lines : int array;  (** NVM lines committed during the call (in-process) *)
  tag : Bytes.t;  (** Gen tag *)
  cls : Bytes.t;
  mutable n : int;
}

let create cap =
  {
    cap;
    start = Array.make cap 0;
    dur = Array.make cap 0;
    sim = Array.make cap 0;
    lines = Array.make cap 0;
    tag = Bytes.make cap '\000';
    cls = Bytes.make cap '\000';
    n = 0;
  }

let full t = t.n >= t.cap

let add t ~start ~dur ~sim ~lines ~tag ~cls =
  let i = t.n in
  if i < t.cap then begin
    Array.unsafe_set t.start i start;
    Array.unsafe_set t.dur i dur;
    Array.unsafe_set t.sim i sim;
    Array.unsafe_set t.lines i lines;
    Bytes.unsafe_set t.tag i tag;
    Bytes.unsafe_set t.cls i (Char.unsafe_chr cls);
    t.n <- i + 1
  end

let tag_name c =
  if c = Gen.tag_put then "put" else if c = Gen.tag_get then "get" else "scan"

(* Write at most [max_events] spans (the first ones) as complete ("X")
   slices on one track, timestamps in us relative to the first span. *)
let write t ~path ~workload ~sim_label ~max_events =
  let n = min t.n max_events in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc
    "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
    workload;
  for i = 0 to n - 1 do
    Printf.fprintf oc
      ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"%s\":%d,\"lines_committed\":%d}}"
      (tag_name (Bytes.get t.tag i))
      cls_names.(Char.code (Bytes.get t.cls i))
      (float_of_int (t.start.(i) - t0) /. 1000.0)
      (float_of_int t.dur.(i) /. 1000.0)
      i sim_label t.sim.(i) t.lines.(i)
  done;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n"
