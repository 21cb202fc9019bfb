(* The unboxed NVM word codecs against their historical [Int64] forms.

   The op path decodes and encodes every persistent word through tagged
   ints: words that use bit 63 (the InCLLp epoch word, the value InCLL,
   the chunk header, key slices) as two unsigned 32-bit halves loaded by
   [Nvm.Region.read_u64], the rest (permutations, pointers) as plain
   ints. Each codec here is checked against a copy of the [Int64] code it
   replaced, on random words with bit 63 set as often as not, in both
   directions. The region accessors the codecs ride on extend the
   differential contract of test_region_fastpath.ml: same bytes, same
   counters, same simulated clock as [read_i64]/[write_i64]. *)

module Region = Nvm.Region
module EW = Masstree.Epoch_word
module V = Masstree.Val_incll
module P = Masstree.Permutation
module K = Masstree.Key
module CH = Alloc.Chunk_header

let check = Alcotest.(check bool)

(* --- the historical Int64 references ------------------------------------ *)

let mask w = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L
let get x ~lo ~width = Int64.logand (Int64.shift_right_logical x lo) (mask width)
let get_int x ~lo ~width = Int64.to_int (get x ~lo ~width)

let ref_ew_unpack w =
  (get_int w ~lo:0 ~width:62, get w ~lo:62 ~width:1 = 1L, get w ~lo:63 ~width:1 = 1L)

let ref_ew_pack ~epoch ~ins_allowed ~logged =
  Int64.(
    logor
      (logand (of_int epoch) (mask 62))
      (logor
         (if ins_allowed then shift_left 1L 62 else 0L)
         (if logged then shift_left 1L 63 else 0L)))

let ref_v_unpack w =
  (get_int w ~lo:4 ~width:44 lsl 4, get_int w ~lo:0 ~width:4, get_int w ~lo:48 ~width:16)

let ref_v_pack ~ptr ~idx ~low_epoch =
  Int64.(
    logor (of_int (idx land 0xf))
      (logor
         (shift_left (of_int (ptr lsr 4)) 4)
         (shift_left (of_int (low_epoch land 0xffff)) 48)))

let ref_ch_decode w =
  ( get_int w ~lo:0 ~width:2,
    get_int w ~lo:2 ~width:44 lsl 4,
    get_int w ~lo:46 ~width:2,
    get_int w ~lo:48 ~width:16 )

let ref_ch_encode ~ptr ~ctr ~cls2 ~half =
  Int64.(
    logor (of_int (ctr land 3))
      (logor
         (shift_left (of_int (ptr lsr 4)) 2)
         (logor
            (shift_left (of_int (cls2 land 3)) 46)
            (shift_left (of_int (half land 0xffff)) 48))))

let ref_slice key ~layer =
  let off = 8 * layer in
  let len = min 8 (String.length key - off) in
  let bits = ref 0L in
  for i = 0 to len - 1 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code key.[off + i]))
  done;
  (Int64.shift_left !bits (8 * (8 - len)), len)

let ref_bytes_of_slice bits ~len =
  String.init len (fun i ->
      Char.chr
        (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xffL)))

(* --- random words -------------------------------------------------------- *)

let halves w = (Int64.to_int (Int64.shift_right_logical w 32), Int64.to_int (Int64.logand w 0xFFFF_FFFFL))
let of_halves (hi, lo) = K.of_halves ~hi ~lo

let rand_word rng =
  let hi = Util.Rng.int rng (1 lsl 32) and lo = Util.Rng.int rng (1 lsl 32) in
  K.of_halves ~hi ~lo

let trials = 20_000

let for_words ~seed f =
  let rng = Util.Rng.create ~seed in
  let bit63 = ref 0 in
  for _ = 1 to trials do
    let w = rand_word rng in
    if Int64.compare w 0L < 0 then incr bit63;
    f rng w
  done;
  check "bit 63 exercised" true (!bit63 > trials / 4)

let epoch_word () =
  for_words ~seed:1 (fun _ w ->
      let hi, lo = halves w in
      let epoch, ins_allowed, logged = ref_ew_unpack w in
      check "decode" true
        (EW.epoch ~hi ~lo = epoch
        && EW.ins_allowed ~hi = ins_allowed
        && EW.logged ~hi = logged);
      check "encode" true
        ((EW.hi ~epoch ~ins_allowed ~logged, EW.lo ~epoch)
        = halves (ref_ew_pack ~epoch ~ins_allowed ~logged)))

let val_incll () =
  for_words ~seed:2 (fun _ w ->
      let hi, lo = halves w in
      let ptr, idx, low_epoch = ref_v_unpack w in
      check "decode" true
        (V.ptr ~hi ~lo = ptr && V.idx ~lo = idx && V.low_epoch ~hi = low_epoch);
      (* Every decoded triple re-encodes to the same word. *)
      check "encode" true
        (of_halves (V.hi ~ptr ~low_epoch, V.lo ~ptr ~idx) = w
        && ref_v_pack ~ptr ~idx ~low_epoch = w))

let chunk_header () =
  for_words ~seed:3 (fun _ w ->
      let hi, lo = halves w in
      let ctr, ptr, cls2, half = ref_ch_decode w in
      check "decode" true
        (CH.ctr ~lo = ctr && CH.ptr ~hi ~lo = ptr && CH.cls2 ~hi = cls2
       && CH.half ~hi = half);
      check "encode" true
        (of_halves (CH.hi ~ptr ~cls2 ~half, CH.lo ~ptr ~ctr) = w
        && ref_ch_encode ~ptr ~ctr ~cls2 ~half = w))

(* The permutation as an int64 of nibbles, driven through the same random
   inserts and removes as the tagged-int one. *)
let permutation () =
  let nib p i = get_int p ~lo:(4 * i) ~width:4 in
  let set_nib p i v =
    let m = Int64.shift_left 0xfL (4 * i) in
    Int64.logor (Int64.logand p (Int64.lognot m)) (Int64.shift_left (Int64.of_int v) (4 * i))
  in
  let ref_empty =
    let p = ref 0L in
    for i = 0 to P.width - 1 do
      p := set_nib !p (i + 1) i
    done;
    !p
  in
  let ref_insert p ~rank =
    let c = nib p 0 in
    let slot = nib p (c + 1) in
    let p = ref p in
    for i = c downto rank + 1 do
      p := set_nib !p (i + 1) (nib !p i)
    done;
    set_nib (set_nib !p (rank + 1) slot) 0 (c + 1)
  in
  let ref_remove p ~rank =
    let c = nib p 0 in
    let slot = nib p (rank + 1) in
    let p = ref p in
    for i = rank to c - 2 do
      p := set_nib !p (i + 1) (nib !p (i + 2))
    done;
    set_nib (set_nib !p c slot) 0 (c - 1)
  in
  let rng = Util.Rng.create ~seed:4 in
  let p = ref P.empty and r = ref ref_empty in
  check "empty" true (Int64.of_int !p = !r);
  for _ = 1 to trials do
    let c = P.count !p in
    if c < P.width && (c = 0 || Util.Rng.bool rng) then begin
      let rank = Util.Rng.int rng (c + 1) in
      p := fst (P.insert !p ~rank);
      r := ref_insert !r ~rank
    end
    else begin
      let rank = Util.Rng.int rng c in
      p := fst (P.remove !p ~rank);
      r := ref_remove !r ~rank
    end;
    if Int64.of_int !p <> !r then Alcotest.fail "permutation word diverged"
  done

let key_slices () =
  let rng = Util.Rng.create ~seed:5 in
  for _ = 1 to trials do
    let len = Util.Rng.int rng 30 in
    let key = String.init len (fun _ -> Char.chr (Util.Rng.int rng 256)) in
    let layer = Util.Rng.int rng ((len / 8) + 1) in
    let bits, slen = ref_slice key ~layer in
    let hi = K.slice_hi key ~layer and lo = K.slice_lo key ~layer in
    check "slice halves" true ((hi, lo) = halves bits);
    check "slice len" true (K.slice_len key ~layer = slen);
    let prefix = String.sub key 0 (8 * layer) in
    check "rebuilt key" true
      (K.of_slice ~prefix ~hi ~lo ~len:slen
      = prefix ^ ref_bytes_of_slice bits ~len:slen)
  done

(* --- region accessors: the differential contract ------------------------ *)

let region_words () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 1024 * 1024;
      extlog_bytes = 64 * 1024;
      crash_support = Nvm.Config.Precise;
      max_dirty_lines = Some 512;
    }
  in
  let f = Region.create cfg and g = Region.create cfg in
  let rng = Util.Rng.create ~seed:6 in
  for _ = 1 to trials do
    let addr = 4096 + (8 * Util.Rng.int rng 100_000) in
    if Util.Rng.bool rng then begin
      let w = rand_word rng in
      let hi, lo = halves w in
      Region.write_u64 f addr ~hi ~lo;
      Region.write_i64 g addr w
    end
    else begin
      let lo = Region.read_u64 f addr in
      check "read_u64 = read_i64" true
        (of_halves (Region.hi32 f, lo) = Region.read_i64 g addr)
    end
  done;
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) ("stats." ^ name) b a)
    (Nvm.Stats.int_fields (Region.stats f))
    (Nvm.Stats.int_fields (Region.stats g));
  check "sim_ns bit-identical" true
    (Nvm.Stats.sim_ns (Region.stats f) = Nvm.Stats.sim_ns (Region.stats g));
  let choose ~line ~nwrites = (line + nwrites) mod (nwrites + 1) in
  Region.crash_with f ~choose;
  Region.crash_with g ~choose;
  check "persisted images after a crash" true
    (Region.read_bytes f 0 ~len:cfg.size_bytes = Region.read_bytes g 0 ~len:cfg.size_bytes)

let tests =
  ( "codec",
    [
      Alcotest.test_case "epoch word = Int64 reference" `Quick epoch_word;
      Alcotest.test_case "value InCLL = Int64 reference" `Quick val_incll;
      Alcotest.test_case "chunk header = Int64 reference" `Quick chunk_header;
      Alcotest.test_case "permutation = Int64 reference" `Quick permutation;
      Alcotest.test_case "key slices = Int64 reference" `Quick key_slices;
      Alcotest.test_case "read_u64/write_u64 = read_i64/write_i64" `Quick
        region_words;
    ] )
