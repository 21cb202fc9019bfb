exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let max_frame = 1 lsl 20
let no_cause = 0xff

type txn_write = Tw_put of string * string | Tw_remove of string
type stats_format = Stats_json | Stats_prom

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Scan of string * int
  | Txn_commit of txn_write list
  | Stats of stats_format
  | Hello of int
      (* proposed session id (0 = assign a fresh one); the reply's Value
         payload is the decimal id the server actually granted *)

type status = Ok | Not_found | Busy | Bad_request | Shutting_down

let status_name = function
  | Ok -> "OK"
  | Not_found -> "NOT_FOUND"
  | Busy -> "BUSY"
  | Bad_request -> "BAD_REQUEST"
  | Shutting_down -> "SHUTTING_DOWN"

type payload =
  | Unit
  | Value of string
  | Pairs of (string * string) list
  | Text of string

type request = {
  id : int;
  op : op;
  sess : (int * int) option;  (* (session_id, seqno) stamped on mutations *)
}

type reply = {
  id : int;
  status : status;
  queue_ns : float;
  cause : int;
  payload : payload;
}

(* ------------------------------------------------------------- writing *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b (v lsr 8);
  put_u8 b v

let put_u32 b v =
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_i64 b v = Buffer.add_int64_be b (Int64.of_float v)
let put_u64 b v = Buffer.add_int64_be b (Int64.of_int v)

let put_str b s =
  if String.length s > 0xffff then
    malformed "string of %d bytes exceeds the u16 limit" (String.length s);
  put_u16 b (String.length s);
  Buffer.add_string b s

let put_text b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let opcode = function
  | Get _ -> 1
  | Put _ -> 2
  | Delete _ -> 3
  | Scan _ -> 4
  | Txn_commit _ -> 7
  | Stats _ -> 9
  | Hello _ -> 10

let status_code = function
  | Ok -> 0
  | Not_found -> 1
  | Busy -> 2
  | Bad_request -> 3
  | Shutting_down -> 5

let status_of_code = function
  | 0 -> Ok
  | 1 -> Not_found
  | 2 -> Busy
  | 3 -> Bad_request
  | 5 -> Shutting_down
  | c -> malformed "unknown status code %d" c

(* A frame is built in one buffer: [frame_buffer] reserves the length
   prefix, [frame] fills it in place once the body is written. *)
let frame_buffer () =
  let b = Buffer.create 64 in
  put_u32 b 0;
  b

let frame b =
  let n = Buffer.length b - 4 in
  if n > max_frame then malformed "frame of %d bytes exceeds max_frame" n;
  let f = Buffer.to_bytes b in
  Bytes.set_int32_be f 0 (Int32.of_int n);
  Bytes.unsafe_to_string f

let frame_of_request { id; op; sess } =
  let b = frame_buffer () in
  put_u32 b id;
  put_u8 b (opcode op);
  (match op with
  | Get k | Delete k -> put_str b k
  | Put (k, v) ->
      put_str b k;
      put_str b v
  | Scan (start, n) ->
      put_str b start;
      put_u32 b n
  | Txn_commit writes ->
      put_u32 b (List.length writes);
      List.iter
        (function
          | Tw_put (k, v) ->
              put_u8 b 0;
              put_str b k;
              put_str b v
          | Tw_remove k ->
              put_u8 b 1;
              put_str b k)
        writes
  | Stats f -> put_u8 b (match f with Stats_json -> 0 | Stats_prom -> 1)
  | Hello sid -> put_u64 b sid);
  (* Uniform trailer on every request: 0 = no session stamp, 1 = an
     8-byte session id plus an 8-byte seqno follow. *)
  (match sess with
  | None -> put_u8 b 0
  | Some (sid, seq) ->
      put_u8 b 1;
      put_u64 b sid;
      put_u64 b seq);
  frame b

let frame_of_reply { id; status; queue_ns; cause; payload } =
  let b = frame_buffer () in
  put_u32 b id;
  put_u8 b (status_code status);
  put_i64 b queue_ns;
  put_u8 b cause;
  (match payload with
  | Unit -> put_u8 b 0
  | Value v ->
      put_u8 b 1;
      put_str b v
  | Pairs l ->
      put_u8 b 2;
      put_u32 b (List.length l);
      List.iter
        (fun (k, v) ->
          put_str b k;
          put_str b v)
        l
  | Text t ->
      put_u8 b 3;
      put_text b t);
  frame b

(* ------------------------------------------------------------- reading *)

type reader = { s : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.s then
    malformed "truncated payload: need %d bytes at offset %d of %d" n r.pos
      (String.length r.s)

let get_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  let hi = get_u8 r in
  let lo = get_u8 r in
  (hi lsl 8) lor lo

let get_u32 r =
  let hi = get_u16 r in
  let lo = get_u16 r in
  (hi lsl 16) lor lo

let get_i64 r =
  need r 8;
  let v = String.get_int64_be r.s r.pos in
  r.pos <- r.pos + 8;
  Int64.to_float v

let get_u64 r =
  need r 8;
  let v = String.get_int64_be r.s r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int v

let get_str r =
  let n = get_u16 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let get_text r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let finish r what =
  if r.pos <> String.length r.s then
    malformed "%s carries %d trailing bytes" what (String.length r.s - r.pos)

let request_of_payload s =
  let r = { s; pos = 0 } in
  let id = get_u32 r in
  let op =
    match get_u8 r with
    | 1 -> Get (get_str r)
    | 2 ->
        let k = get_str r in
        Put (k, get_str r)
    | 3 -> Delete (get_str r)
    | 4 ->
        let start = get_str r in
        Scan (start, get_u32 r)
    | 7 ->
        let n = get_u32 r in
        (* Bound before allocating: each write needs >= 3 bytes. *)
        if n > (String.length s - r.pos) / 3 then
          malformed "write count %d cannot fit the remaining payload" n;
        Txn_commit
          (List.init n (fun _ ->
               match get_u8 r with
               | 0 ->
                   let k = get_str r in
                   Tw_put (k, get_str r)
               | 1 -> Tw_remove (get_str r)
               | k -> malformed "unknown txn-write kind %d" k))
    | 9 -> (
        match get_u8 r with
        | 0 -> Stats Stats_json
        | 1 -> Stats Stats_prom
        | f -> malformed "unknown stats format %d" f)
    | 10 -> Hello (get_u64 r)
    | c -> malformed "unknown opcode %d" c
  in
  let sess =
    match get_u8 r with
    | 0 -> None
    | 1 ->
        let sid = get_u64 r in
        let seq = get_u64 r in
        Some (sid, seq)
    | f -> malformed "unknown session-trailer flag %d" f
  in
  finish r "request";
  { id; op; sess }

let reply_of_payload s =
  let r = { s; pos = 0 } in
  let id = get_u32 r in
  let status = status_of_code (get_u8 r) in
  let queue_ns = get_i64 r in
  let cause = get_u8 r in
  let payload =
    match get_u8 r with
    | 0 -> Unit
    | 1 -> Value (get_str r)
    | 2 ->
        let n = get_u32 r in
        (* Bound before allocating: each pair needs >= 4 header bytes. *)
        if n > (String.length s - r.pos) / 4 then
          malformed "pair count %d cannot fit the remaining payload" n;
        Pairs
          (List.init n (fun _ ->
               let k = get_str r in
               (k, get_str r)))
    | 3 -> Text (get_text r)
    | k -> malformed "unknown payload kind %d" k
  in
  finish r "reply";
  { id; status; queue_ns; cause; payload }

(* ------------------------------------------------------------- decoder *)

module Decoder = struct
  (* Buffered bytes are [buf.[start .. start + len)]: [next] only moves
     the read cursor, and [feed] compacts to the front when the tail has
     no room, so each byte is moved at most once per [feed] instead of
     once per decoded frame. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable len : int;
    max_frame : int;
  }

  let create ?max_frame:(mf = max_frame) () =
    { buf = Bytes.create 4096; start = 0; len = 0; max_frame = mf }

  let feed t b pos n =
    if n < 0 || pos < 0 || pos + n > Bytes.length b then
      invalid_arg "Decoder.feed";
    if t.start + t.len + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let nb =
        if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap
      in
      Bytes.blit t.buf t.start nb 0 t.len;
      t.buf <- nb;
      t.start <- 0
    end;
    Bytes.blit b pos t.buf (t.start + t.len) n;
    t.len <- t.len + n

  let buffered t = t.len

  let next t =
    if t.len < 4 then None
    else begin
      let declared = Int32.to_int (Bytes.get_int32_be t.buf t.start) land 0xffff_ffff in
      if declared > t.max_frame then
        malformed "declared frame length %d exceeds the %d-byte cap" declared
          t.max_frame;
      if t.len < 4 + declared then None
      else begin
        let payload = Bytes.sub_string t.buf (t.start + 4) declared in
        t.len <- t.len - 4 - declared;
        t.start <- (if t.len = 0 then 0 else t.start + 4 + declared);
        Some payload
      end
    end
end
