type payload =
  | Clwb of { line : int }
  | Crash
  | Extlog_append of { bytes : int }
  | Extlog_replay of { entries : int }
  | Incll_first_touch of { leaf : int }
  | Incll_fallback of { leaf : int }
  | Custom of { kind : string; arg : int }
  | Slice of { name : string; dur_ns : float; label : string; arg : int }

type event = { ts_ns : float; payload : payload }

let kind = function
  | Clwb _ -> "clwb"
  | Crash -> "crash"
  | Extlog_append _ -> "extlog_append"
  | Extlog_replay _ -> "extlog_replay"
  | Incll_first_touch _ -> "incll_first_touch"
  | Incll_fallback _ -> "incll_fallback"
  | Custom { kind; _ } -> kind
  | Slice { name; _ } -> name

let arg = function
  | Clwb { line } -> line
  | Crash -> 0
  | Extlog_append { bytes } -> bytes
  | Extlog_replay { entries } -> entries
  | Incll_first_touch { leaf } -> leaf
  | Incll_fallback { leaf } -> leaf
  | Custom { arg; _ } | Slice { arg; _ } -> arg

let dummy = { ts_ns = 0.0; payload = Crash }

type t = {
  buf : event array;
  mutable enabled : bool;
  mutable len : int;  (* events held *)
  mutable next : int;  (* write cursor *)
  mutable total : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity dummy; enabled = false; len = 0; next = 0; total = 0 }

let capacity t = Array.length t.buf
let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let record t ~ts_ns payload =
  if t.enabled then begin
    t.buf.(t.next) <- { ts_ns; payload };
    t.next <- (t.next + 1) mod Array.length t.buf;
    if t.len < Array.length t.buf then t.len <- t.len + 1;
    t.total <- t.total + 1
  end

let length t = t.len
let total t = t.total
let dropped t = t.total - t.len

let to_list t =
  let cap = Array.length t.buf in
  let first = (t.next - t.len + cap) mod cap in
  List.init t.len (fun i -> t.buf.((first + i) mod cap))

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.total <- 0

let to_json t =
  Json.Obj
    [
      ("total", Json.Int t.total);
      ("dropped", Json.Int (dropped t));
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("ts_ns", Json.Float e.ts_ns);
                   ("kind", Json.String (kind e.payload));
                   ("arg", Json.Int (arg e.payload));
                 ])
             (to_list t)) );
    ]
