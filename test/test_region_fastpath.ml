(* Differential test for the allocation-free fast paths of [Nvm.Region].

   The fast accessors (fused-check [write_i64]/[read_i64], the tagged-int
   [write_int]/[read_int], [write_string]/[read_string] and the unboxed
   [compare_u64]) must be observationally identical to the generic
   byte-wise path ([write_bytes]/[read_bytes] composed with [Int64] and
   string conversions): same volatile bytes, same persisted image, same
   statistics counters and the same simulated clock, bit for bit.

   Two regions with identical configuration are driven with the same
   randomized op sequence — region F through the fast paths, region G
   through the generic ones — and compared after the run, including (in
   Precise mode) after an adversarial crash chosen by a deterministic
   prefix function. A small [max_dirty_lines] forces evictions along the
   way; the eviction RNG is seeded per-region, so both regions evict the
   same lines at the same points iff their dirty sets stayed equal. *)

module Region = Nvm.Region

let check = Alcotest.(check bool)

let size_bytes = 1024 * 1024

let cfg crash_support =
  {
    Nvm.Config.default with
    Nvm.Config.size_bytes;
    extlog_bytes = 64 * 1024;
    crash_support;
    max_dirty_lines = Some 512;
  }

let lo = 4096
let span = size_bytes - lo - 256

(* Aligned word address within the exercised window. *)
let word_addr rng = lo + (8 * Util.Rng.int rng (span / 8))
let byte_addr rng = lo + Util.Rng.int rng span

let rand_i64 rng =
  (* Full 64-bit coverage, including bit 63 (the unsigned-compare and
     int-truncation edge). *)
  let hi = Util.Rng.int rng (1 lsl 32) and lo_ = Util.Rng.int rng (1 lsl 32) in
  Int64.logor
    (Int64.shift_left (Int64.of_int hi) 32)
    (Int64.of_int lo_)

let le8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

let i64_of_le b = Bytes.get_int64_le b 0

let sign c = compare c 0

(* Compare every observable: counters first (a counter mismatch explains
   a byte mismatch, not the other way around), then the simulated clock,
   then the full volatile image. The image comparison reads both regions
   identically, so it charges both equally and later comparisons stay
   meaningful. *)
let assert_same ~at f g =
  List.iter2
    (fun (name, vf) (_, vg) ->
      Alcotest.(check int) (at ^ ": stats." ^ name) vf vg)
    (Nvm.Stats.int_fields (Region.stats f))
    (Nvm.Stats.int_fields (Region.stats g));
  check
    (at ^ ": sim_ns bit-identical")
    true
    (Nvm.Stats.sim_ns (Region.stats f) = Nvm.Stats.sim_ns (Region.stats g));
  check
    (at ^ ": volatile image")
    true
    (Region.read_bytes f 0 ~len:size_bytes
    = Region.read_bytes g 0 ~len:size_bytes)

(* One random op applied to both regions; F takes the fast path, G the
   generic byte-wise one. *)
let step rng f g =
  match Util.Rng.int rng 11 with
  | 0 ->
      let addr = word_addr rng and v = rand_i64 rng in
      Region.write_i64 f addr v;
      Region.write_bytes g addr (le8 v)
  | 1 ->
      let addr = word_addr rng and v = rand_i64 rng in
      (* write_int truncates bit 63 exactly like Int64.to_int. *)
      let x = Int64.to_int v in
      Region.write_int f addr x;
      Region.write_bytes g addr (le8 (Int64.of_int x))
  | 2 ->
      let addr = byte_addr rng and v = Util.Rng.int rng 256 in
      Region.write_u8 f addr v;
      Region.write_bytes g addr (Bytes.make 1 (Char.chr v))
  | 3 ->
      let len = 1 + Util.Rng.int rng 120 in
      let addr = lo + Util.Rng.int rng (span - len) in
      let s = String.init len (fun _ -> Char.chr (Util.Rng.int rng 256)) in
      Region.write_string f addr s;
      Region.write_bytes g addr (Bytes.of_string s)
  | 4 ->
      let addr = word_addr rng in
      check "read_i64 = read_bytes" true
        (Region.read_i64 f addr = i64_of_le (Region.read_bytes g addr ~len:8))
  | 5 ->
      let addr = word_addr rng in
      check "read_int = to_int of bytes" true
        (Region.read_int f addr
        = Int64.to_int (i64_of_le (Region.read_bytes g addr ~len:8)))
  | 6 ->
      let len = 1 + Util.Rng.int rng 120 in
      let addr = lo + Util.Rng.int rng (span - len) in
      check "read_string = read_bytes" true
        (Region.read_string f addr ~len
        = Bytes.to_string (Region.read_bytes g addr ~len))
  | 7 ->
      let addr = word_addr rng and probe = rand_i64 rng in
      let hi = Int64.to_int (Int64.shift_right_logical probe 32)
      and lo_ = Int64.to_int (Int64.logand probe 0xFFFF_FFFFL) in
      check "compare_u64 = unsigned_compare" true
        (sign (Region.compare_u64 f addr ~hi ~lo:lo_)
        = sign
            (Int64.unsigned_compare
               (i64_of_le (Region.read_bytes g addr ~len:8))
               probe))
  | 8 ->
      let len = 8 + Util.Rng.int rng 120 in
      let src = lo + Util.Rng.int rng (span - len) in
      let dst = lo + Util.Rng.int rng (span - len) in
      Region.blit_within f ~src ~dst ~len;
      Region.blit_within g ~src ~dst ~len
  | 9 ->
      let addr = byte_addr rng in
      Region.clwb f addr;
      Region.clwb g addr
  | _ ->
      Region.sfence f;
      Region.sfence g

let run_differential crash_support ~steps ~seed =
  let f = Region.create (cfg crash_support) in
  let g = Region.create (cfg crash_support) in
  let rng = Util.Rng.create ~seed in
  for _ = 1 to steps do
    step rng f g
  done;
  assert_same ~at:"after ops" f g;
  if crash_support = Nvm.Config.Precise then begin
    (* Adversarial deterministic crash: both regions keep the same store
       prefix per line, so the persisted images (which the crash reloads
       into the volatile ones) must also match. *)
    let choose ~line ~nwrites = (line + nwrites) mod (nwrites + 1) in
    Region.crash_with f ~choose;
    Region.crash_with g ~choose;
    assert_same ~at:"after crash" f g
  end

let fastpath_precise () =
  run_differential Nvm.Config.Precise ~steps:4000 ~seed:7

let fastpath_counting () =
  run_differential Nvm.Config.Counting ~steps:4000 ~seed:11

let fastpath_more_seeds () =
  (* A few shorter runs over different seeds, both modes. *)
  List.iter
    (fun seed ->
      run_differential Nvm.Config.Precise ~steps:800 ~seed;
      run_differential Nvm.Config.Counting ~steps:800 ~seed)
    [ 1; 2; 3; 42 ]

(* The one-call value read against the two calls it replaces. Length
   words are written unaligned, as value buffers are, and range from empty
   through multi-line to ones that leave the region, are negative or are
   near [max_int] (a damaged image): both sides must return the same
   string or raise the same exception, after the same charges. *)
let value_read_differential crash_support ~seed =
  let f = Region.create (cfg crash_support) in
  let g = Region.create (cfg crash_support) in
  let rng = Util.Rng.create ~seed in
  let both op = op f; op g in
  let outcome read =
    match read () with
    | s -> Ok s
    | exception Invalid_argument m -> Error m
  in
  for i = 1 to 3000 do
    let addr =
      match Util.Rng.int rng 8 with
      | 0 -> size_bytes - Util.Rng.int rng 200
      | 1 -> -Util.Rng.int rng 16
      | _ -> byte_addr rng
    in
    let len =
      match Util.Rng.int rng 10 with
      | 0 -> -1 - Util.Rng.int rng 1000
      | 1 -> max_int - Util.Rng.int rng 1000
      | 2 -> size_bytes - addr - 8 + Util.Rng.int rng 3 - 1
      | _ -> Util.Rng.int rng 200
    in
    if addr >= 0 && addr <= size_bytes - 8 then begin
      both (fun r -> Region.write_bytes r addr (le8 (Int64.of_int len)));
      let n = min (max len 0) (min 200 (size_bytes - addr - 8)) in
      let s = String.init n (fun _ -> Char.chr (Util.Rng.int rng 256)) in
      both (fun r -> Region.write_string r (addr + 8) s)
    end;
    let got = outcome (fun () -> Region.read_prefixed_string f addr) in
    let want =
      outcome (fun () ->
          let len = Region.read_int g addr in
          Region.read_string g (addr + 8) ~len)
    in
    if got <> want then Alcotest.failf "step %d: results differ" i;
    if
      Nvm.Stats.int_fields (Region.stats f)
      <> Nvm.Stats.int_fields (Region.stats g)
      || Nvm.Stats.sim_ns (Region.stats f) <> Nvm.Stats.sim_ns (Region.stats g)
    then assert_same ~at:(Printf.sprintf "step %d" i) f g;
    if Util.Rng.int rng 16 = 0 then begin
      let line = byte_addr rng in
      both (fun r -> Region.clwb r line);
      both Region.sfence
    end
  done;
  assert_same ~at:"after value reads" f g;
  if crash_support = Nvm.Config.Precise then begin
    both Region.crash_persist_none;
    assert_same ~at:"after crash" f g
  end

let value_read_precise () =
  value_read_differential Nvm.Config.Precise ~seed:5

let value_read_counting () =
  value_read_differential Nvm.Config.Counting ~seed:6

let tests =
  ( "region_fastpath",
    [
      Alcotest.test_case "fast paths = generic path (Precise)" `Quick
        fastpath_precise;
      Alcotest.test_case "fast paths = generic path (Counting)" `Quick
        fastpath_counting;
      Alcotest.test_case "differential, more seeds" `Quick fastpath_more_seeds;
      Alcotest.test_case "value read = read_int + read_string (Precise)"
        `Quick value_read_precise;
      Alcotest.test_case "value read = read_int + read_string (Counting)"
        `Quick value_read_counting;
    ] )
