(* Entries pack (line | off:6 bits | len:7 bits) into one int; payloads are
   stored back to back in one byte buffer, in entry order. Per line, two
   adjacent ints of [lines]: [since] (index of the line's first live entry)
   and [meta] = count lor (bytes lsl 32), so one store bumps both with a
   single add. A zero [meta] means the line has nothing pending. *)

let off_shift = 7
let line_shift = 13
let len_mask = 0x7f
let off_mask = 0x3f
let count_mask = 0xffff_ffff
let bytes_shift = 32

type t = {
  lines : int array;  (* [2l] = since, [2l+1] = meta *)
  mutable entries : int array;
  mutable n : int;
  mutable payload : Bytes.t;
  mutable payload_len : int;
  mutable pending_lines : int;  (* lines with a non-zero meta *)
  mutable live : int;  (* sum of the pending counts *)
  mutable live_bytes : int;  (* sum of the pending payload bytes *)
}

let create ~nlines =
  {
    lines = Array.make (2 * nlines) 0;
    entries = Array.make 1024 0;
    n = 0;
    payload = Bytes.create 8192;
    payload_len = 0;
    pending_lines = 0;
    live = 0;
    live_bytes = 0;
  }

let count t line = t.lines.((2 * line) + 1) land count_mask
let payload_bytes t line = t.lines.((2 * line) + 1) lsr bytes_shift

let reset t =
  t.n <- 0;
  t.payload_len <- 0

(* Slide the live entries and their payloads to the front, in order. The
   first live entry of a line sits exactly at its [since], so moving that
   one entry re-anchors the line; its later entries all stay live. *)
let compact t =
  let lines = t.lines and entries = t.entries and payload = t.payload in
  let w = ref 0 and wpos = ref 0 and rpos = ref 0 in
  for i = 0 to t.n - 1 do
    let e = entries.(i) in
    let line = e lsr line_shift and len = e land len_mask in
    let since = lines.(2 * line) in
    if lines.((2 * line) + 1) <> 0 && i >= since then begin
      if i = since then lines.(2 * line) <- !w;
      entries.(!w) <- e;
      Bytes.blit payload !rpos payload !wpos len;
      incr w;
      wpos := !wpos + len
    end;
    rpos := !rpos + len
  done;
  t.n <- !w;
  t.payload_len <- !wpos

let make_room t len =
  let entries_full = t.n = Array.length t.entries in
  let payload_full = t.payload_len + len > Bytes.length t.payload in
  if
    (entries_full && 2 * t.live < t.n)
    || (payload_full && 2 * t.live_bytes < t.payload_len)
  then compact t;
  if t.n = Array.length t.entries then begin
    let entries = Array.make (2 * t.n) 0 in
    Array.blit t.entries 0 entries 0 t.n;
    t.entries <- entries
  end;
  let needed = t.payload_len + len in
  if needed > Bytes.length t.payload then begin
    let payload = Bytes.create (max needed (2 * Bytes.length t.payload)) in
    Bytes.blit t.payload 0 payload 0 t.payload_len;
    t.payload <- payload
  end

let append t ~line ~off ~src ~src_pos ~len =
  if off < 0 || len <= 0 || off + len > Config.line_size then
    invalid_arg "Line_log.append: write does not fit in a line";
  if t.n = Array.length t.entries || t.payload_len + len > Bytes.length t.payload
  then make_room t len;
  let i = (2 * line) + 1 in
  let meta = t.lines.(i) in
  if meta = 0 then begin
    t.lines.(2 * line) <- t.n;
    t.pending_lines <- t.pending_lines + 1
  end;
  t.lines.(i) <- meta + 1 + (len lsl bytes_shift);
  t.entries.(t.n) <- (line lsl line_shift) lor (off lsl off_shift) lor len;
  t.n <- t.n + 1;
  (* Word stores, the common case, skip [Bytes.blit]'s C call. *)
  if len = 8 then
    Bytes.set_int64_ne t.payload t.payload_len (Bytes.get_int64_ne src src_pos)
  else Bytes.blit src src_pos t.payload t.payload_len len;
  t.payload_len <- t.payload_len + len;
  t.live <- t.live + 1;
  t.live_bytes <- t.live_bytes + len

let commit t line =
  let i = (2 * line) + 1 in
  let meta = t.lines.(i) in
  if meta <> 0 then begin
    t.lines.(i) <- 0;
    t.live <- t.live - (meta land count_mask);
    t.live_bytes <- t.live_bytes - (meta lsr bytes_shift);
    t.pending_lines <- t.pending_lines - 1;
    if t.pending_lines = 0 then reset t
  end

(* While a crash is applied, a pending line's payload-bytes field holds how
   many of its stores still have to persist. *)
let crash t ~lines:pending ~choose ~dst =
  let lines = t.lines in
  for j = Util.Ivec.length pending - 1 downto 0 do
    let line = Util.Ivec.get pending j in
    let meta = lines.((2 * line) + 1) in
    let n = meta land count_mask in
    let k = choose ~line ~nwrites:n in
    if k < 0 || k > n then invalid_arg "Region.crash_with: bad prefix";
    lines.((2 * line) + 1) <- n lor (k lsl bytes_shift)
  done;
  let pos = ref 0 in
  for i = 0 to t.n - 1 do
    let e = t.entries.(i) in
    let line = e lsr line_shift and len = e land len_mask in
    let meta = lines.((2 * line) + 1) in
    if meta lsr bytes_shift > 0 && i >= lines.(2 * line) then begin
      let off = (e lsr off_shift) land off_mask in
      Bytes.blit t.payload !pos dst ((line * Config.line_size) + off) len;
      lines.((2 * line) + 1) <- meta - (1 lsl bytes_shift)
    end;
    pos := !pos + len
  done;
  for i = 0 to t.n - 1 do
    lines.((2 * (t.entries.(i) lsr line_shift)) + 1) <- 0
  done;
  t.pending_lines <- 0;
  t.live <- 0;
  t.live_bytes <- 0;
  reset t

type footprint = {
  live_entries : int;
  entry_slots : int;
  live_bytes : int;
  payload_slots : int;
}

let footprint t =
  {
    live_entries = t.live;
    entry_slots = Array.length t.entries;
    live_bytes = t.live_bytes;
    payload_slots = Bytes.length t.payload;
  }
