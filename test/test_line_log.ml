(* Differential test of the Precise-mode pending-store journal.

   A Precise region and a naive reference are driven in lockstep by one
   random stream of stores and persistence instructions. The reference
   keeps, per line, the program-ordered list of pending [(off, bytes)]
   stores and its own persisted image. Which lines the region wrote back
   (fences, flush quanta, wbinvd, capacity evictions) is read off its dirty
   set after every step: a line the reference still holds but the region
   no longer marks dirty was committed, so the reference applies all of its
   pending stores. The one commit the reference decides itself is the
   log-size eviction, whose rule is deterministic. A capacity eviction can
   hit a line that a multi-line store reaches later in the same call, which
   the dirty set after the call cannot show; so where capacity evictions
   are on, multi-line stores are issued one line at a time, and where they
   are off, through one [write_bytes] that splits them itself.

   After every step [pending_writes] must equal the reference's counts,
   and the region's persisted view over the window ([read_persisted],
   which undoes the pending stores) and its mirror file must equal the
   reference's persisted image. That covers the two stores that commit
   the line they are recording: a log-size eviction, which re-dirties
   the line mid-store with the store itself already persisted, and a
   capacity eviction that picks the line just stored. Each run ends in a
   crash through [crash_with] with a seeded random prefix per line; the
   region's image and its mirror must then equal the reference's with the
   same prefixes applied. *)

module Region = Nvm.Region

let line_size = Nvm.Config.line_size
let size_bytes = 64 * 1024

(* Stores land in a 48-line window, so lines collect many pending
   stores and spans cross line boundaries. *)
let lo = 4096
let window = 48 * line_size

let cfg ~max_dirty_lines ~max_line_log_bytes =
  {
    Nvm.Config.default with
    Nvm.Config.size_bytes;
    extlog_bytes = 1024;
    crash_support = Nvm.Config.Precise;
    max_dirty_lines;
    evict_batch = 2;
    max_line_log_bytes;
  }

type reference = {
  persisted : Bytes.t;
  pending : (int, (int * Bytes.t) list) Hashtbl.t;  (* newest first *)
  max_line_log_bytes : int;
}

let apply_store img line (off, b) =
  Bytes.blit b 0 img ((line * line_size) + off) (Bytes.length b)

let commit_ref rf line =
  match Hashtbl.find_opt rf.pending line with
  | None -> ()
  | Some l ->
      List.iter (apply_store rf.persisted line) (List.rev l);
      Hashtbl.remove rf.pending line

(* The reference side of one store, split per line like the region does.
   A line whose pending bytes exceed the bound is written back first, and
   by then the region's volatile line already holds the new store, so the
   write-back persists it too (it also stays pending). *)
let store_ref rf addr b =
  let rec go addr pos len =
    if len > 0 then begin
      let line = addr / line_size and off = addr mod line_size in
      let chunk = min len (line_size - off) in
      let s = (off, Bytes.sub b pos chunk) in
      let l = Option.value ~default:[] (Hashtbl.find_opt rf.pending line) in
      let bytes = List.fold_left (fun a (_, b) -> a + Bytes.length b) 0 l in
      if bytes > rf.max_line_log_bytes then begin
        commit_ref rf line;
        apply_store rf.persisted line s;
        Hashtbl.replace rf.pending line [ s ]
      end
      else Hashtbl.replace rf.pending line (s :: l);
      go (addr + chunk) (pos + chunk) (len - chunk)
    end
  in
  go addr 0 (Bytes.length b)

let rand_bytes rng n = Bytes.init n (fun _ -> Char.chr (Util.Rng.int rng 256))

(* Commit on the reference every line the region no longer marks dirty. *)
let sync r rf =
  let committed =
    Hashtbl.fold
      (fun line _ acc -> if Region.is_dirty_line r line then acc else line :: acc)
      rf.pending []
  in
  List.iter (commit_ref rf) committed

let write_span ~split r rf addr b =
  if not split then begin
    Region.write_bytes r addr b;
    store_ref rf addr b
  end
  else begin
    let rec go addr pos len =
      if len > 0 then begin
        let chunk = min len (line_size - (addr mod line_size)) in
        let c = Bytes.sub b pos chunk in
        Region.write_bytes r addr c;
        store_ref rf addr c;
        sync r rf;
        go (addr + chunk) (pos + chunk) (len - chunk)
      end
    in
    go addr 0 (Bytes.length b)
  end

(* One random step on both sides. *)
let step ~split ~wbinvd rng r rf =
  (match Util.Rng.int rng 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
      let addr = lo + (8 * Util.Rng.int rng (window / 8)) in
      let b = rand_bytes rng 8 in
      Region.write_i64 r addr (Bytes.get_int64_le b 0);
      store_ref rf addr b
  | 7 | 8 ->
      let addr = lo + Util.Rng.int rng window in
      let v = Util.Rng.int rng 256 in
      Region.write_u8 r addr v;
      store_ref rf addr (Bytes.make 1 (Char.chr v))
  | 9 | 10 | 11 | 12 ->
      (* Single- and multi-line spans, up to three lines. *)
      let len = 1 + Util.Rng.int rng 130 in
      let addr = lo + Util.Rng.int rng (window - len) in
      write_span ~split r rf addr (rand_bytes rng len)
  | 13 | 14 | 15 -> Region.clwb r (lo + Util.Rng.int rng window)
  | 16 | 17 -> Region.sfence r
  | 18 -> ignore (Region.flush_some r ~budget_lines:(1 + Util.Rng.int rng 6))
  | _ -> if wbinvd && Util.Rng.int rng 8 = 0 then Region.wbinvd r);
  sync r rf

let ref_counts rf =
  Hashtbl.fold (fun line l acc -> (line, List.length l) :: acc) rf.pending []
  |> List.sort compare


(* The window in the mirror's payload, past the image header. Unbuffered
   reads: an in_channel would serve a seek back into its buffer from the
   buffer, not from the file. *)
let mirror_window fd =
  let b = Bytes.create window in
  let rec go pos =
    if pos < window then
      go (pos + Unix.read fd b pos (window - pos))
  in
  ignore (Unix.lseek fd (Nvm.Image.header_bytes + lo) Unix.SEEK_SET);
  go 0;
  Bytes.to_string b

let run ?(wbinvd = true) ~max_dirty_lines ~max_line_log_bytes ~steps ~seed () =
  let r = Region.create (cfg ~max_dirty_lines ~max_line_log_bytes) in
  let mirror = Filename.temp_file "line_log" ".nvm" in
  Nvm.Image.attach r ~path:mirror;
  let fd = Unix.openfile mirror [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd; Sys.remove mirror) @@ fun () ->
  let rf =
    {
      persisted = Bytes.make size_bytes '\000';
      pending = Hashtbl.create 64;
      max_line_log_bytes;
    }
  in
  let rng = Util.Rng.create ~seed in
  let at i = Printf.sprintf "seed %d step %d" seed i in
  let split = max_dirty_lines <> None in
  for i = 1 to steps do
    step ~split ~wbinvd rng r rf;
    Alcotest.(check (list (pair int int)))
      (at i ^ ": pending_writes") (ref_counts rf) (Region.pending_writes r);
    let expect = Bytes.sub_string rf.persisted lo window in
    Alcotest.(check string)
      (at i ^ ": persisted view") expect
      (Bytes.to_string (Region.read_persisted r lo ~len:window));
    let w = lo + (8 * (i * 37 mod (window / 8))) in
    Alcotest.(check int64)
      (at i ^ ": persisted word")
      (Bytes.get_int64_le rf.persisted w)
      (Region.read_persisted_i64 r w);
    Alcotest.(check string) (at i ^ ": mirror") expect (mirror_window fd)
  done;
  let crng = Util.Rng.create ~seed:(seed + 1000) in
  let chosen = Hashtbl.create 64 in
  Region.crash_with r ~choose:(fun ~line ~nwrites ->
      let k = Util.Rng.int crng (nwrites + 1) in
      Hashtbl.replace chosen line k;
      k);
  Hashtbl.iter
    (fun line l ->
      let k = Hashtbl.find chosen line in
      List.iteri
        (fun j s -> if j < k then apply_store rf.persisted line s)
        (List.rev l))
    rf.pending;
  Alcotest.(check int)
    (at steps ^ ": one prefix per pending line")
    (Hashtbl.length rf.pending) (Hashtbl.length chosen);
  Alcotest.(check bool)
    (at steps ^ ": persisted image after crash")
    true
    (Bytes.equal rf.persisted (Region.read_bytes r 0 ~len:size_bytes));
  Alcotest.(check bool)
    (at steps ^ ": persisted view after crash")
    true
    (Bytes.equal rf.persisted (Region.read_persisted r 0 ~len:size_bytes));
  Alcotest.(check string)
    (at steps ^ ": mirror after crash")
    (Bytes.sub_string rf.persisted lo window)
    (mirror_window fd);
  Alcotest.(check (list (pair int int))) "nothing pending after crash" []
    (Region.pending_writes r)

let seeds = [ 1; 2; 3; 4; 5 ]

let plain () =
  List.iter
    (fun seed ->
      run ~max_dirty_lines:None ~max_line_log_bytes:8192 ~steps:1500 ~seed ())
    seeds

let capacity_evictions () =
  List.iter
    (fun seed ->
      run ~max_dirty_lines:(Some 6) ~max_line_log_bytes:8192 ~steps:1500 ~seed ())
    seeds

let log_size_evictions () =
  List.iter
    (fun seed ->
      run ~max_dirty_lines:None ~max_line_log_bytes:40 ~steps:1500 ~seed ();
      run ~max_dirty_lines:(Some 6) ~max_line_log_bytes:24 ~steps:1500 ~seed ())
    seeds

(* Without wbinvd the dirty set seldom drains, so the journal is seldom
   reset and fills past its initial 1024 slots: compaction runs, and the
   crash must still see each line's stores. *)
let compacted () =
  List.iter
    (fun seed ->
      run ~wbinvd:false ~max_dirty_lines:None ~max_line_log_bytes:8192
        ~steps:6000 ~seed ())
    seeds

(* A sweep that never drains the dirty set (as the Latency and Rto
   policies may): flush quanta keep committing lines while others stay
   pending, so the journal is never reset and only compaction reclaims
   the stale entries. Growth happens only when at least half the full
   resource is live, so storage stays within 4x the peak live content
   (plus the initial allocation). *)
let bounded_when_never_drained () =
  let r =
    Region.create (cfg ~max_dirty_lines:None ~max_line_log_bytes:256)
  in
  let rng = Util.Rng.create ~seed:9 in
  let peak_entries = ref 0 and peak_bytes = ref 0 in
  let appended = ref 0 in
  for _ = 1 to 20_000 do
    for _ = 1 to 4 do
      let addr = lo + (8 * Util.Rng.int rng (window / 8)) in
      Region.write_i64 r addr 0x0123_4567_89ab_cdefL;
      incr appended;
      let f = Region.journal_footprint r in
      peak_entries := max !peak_entries f.Nvm.Region.live_entries;
      peak_bytes := max !peak_bytes f.Nvm.Region.live_bytes
    done;
    ignore (Region.flush_some r ~budget_lines:2);
    Alcotest.(check bool) "dirty set never drains" true
      (Region.dirty_line_count r > 0);
    let f = Region.journal_footprint r in
    Alcotest.(check bool)
      (Printf.sprintf "entry slots %d within 4x peak live %d"
         f.Nvm.Region.entry_slots !peak_entries)
      true
      (f.Nvm.Region.entry_slots <= max 1024 (4 * !peak_entries));
    Alcotest.(check bool)
      (Printf.sprintf "payload bytes %d within 4x peak live %d"
         f.Nvm.Region.payload_slots !peak_bytes)
      true
      (f.Nvm.Region.payload_slots <= max 8192 ((4 * !peak_bytes) + 128))
  done;
  (* Far more stores went through than the journal ever held. *)
  let f = Region.journal_footprint r in
  Alcotest.(check bool) "stale entries were reclaimed" true
    (f.Nvm.Region.entry_slots * 8 < !appended)

(* The persisted view is derived from the one volatile image: what
   Precise crash support holds on the host, per-line records and journal
   together, stays under the committed ceiling that make microbench also
   checks. A second full image or a wider per-line record exceeds it. *)
let host_bytes_under_ceiling () =
  let module F = Bench_harness.Host_footprint in
  let n = F.precise_extra_bytes () in
  Alcotest.(check bool)
    (Printf.sprintf "%d host bytes <= %d" n F.ceiling)
    true (n <= F.ceiling)

let tests =
  ( "line_log",
    [
      Alcotest.test_case "journal = per-line lists" `Quick plain;
      Alcotest.test_case "journal = per-line lists, capacity evictions" `Quick
        capacity_evictions;
      Alcotest.test_case "journal = per-line lists, log-size evictions" `Quick
        log_size_evictions;
      Alcotest.test_case "journal = per-line lists, compacted" `Quick
        compacted;
      Alcotest.test_case "bounded when the dirty set never drains" `Quick
        bounded_when_never_drained;
      Alcotest.test_case "crash support under its host-byte ceiling" `Quick
        host_bytes_under_ceiling;
    ] )
