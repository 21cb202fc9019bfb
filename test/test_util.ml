(* Unit and property tests for the utility layer. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rng --------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Util.Rng.create ~seed:7 and b = Util.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next64 a) (Util.Rng.next64 b)
  done

let rng_seed_sensitivity () =
  let a = Util.Rng.create ~seed:7 and b = Util.Rng.create ~seed:8 in
  check "different seeds differ" true (Util.Rng.next64 a <> Util.Rng.next64 b)

let rng_int_bounds () =
  let r = Util.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let rng_int_covers_range () =
  let r = Util.Rng.create ~seed:5 in
  let seen = Array.make 8 false in
  for _ = 1 to 2000 do
    seen.(Util.Rng.int r 8) <- true
  done;
  Array.iteri (fun i s -> check (Printf.sprintf "value %d seen" i) true s) seen

let rng_float_unit_interval () =
  let r = Util.Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let f = Util.Rng.float r in
    check "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let rng_copy_independent () =
  let a = Util.Rng.create ~seed:9 in
  ignore (Util.Rng.next64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy replays" (Util.Rng.next64 a) (Util.Rng.next64 b)

let rng_shuffle_permutes () =
  let r = Util.Rng.create ~seed:13 in
  let a = Array.init 50 (fun i -> i) in
  Util.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

(* Golden streams: the MD5 of the first 1,000 outputs of each generator
   function, per seed, recorded from the boxed-[Int64] implementation
   the current one replaced. Every seeded experiment, crash and eviction
   depends on these sequences, so a change of representation must leave
   them bit-identical. The [int] bounds cycle from 1 to [max_int],
   including [3 lsl 60], which rejects a quarter of its draws. *)
let golden_seeds = [ 0; 1; 7; 42; 0x5eed_ca5e; -1 ]

let golden_bounds =
  [| 1; 2; 3; 7; 100; 1 lsl 20; (1 lsl 40) + 1; 3 lsl 60; max_int |]

let golden_stream name seed =
  let r = Util.Rng.create ~seed in
  let b = Buffer.create 16_384 in
  for i = 0 to 999 do
    (match name with
    | "next64" -> Printf.bprintf b "%Ld\n" (Util.Rng.next64 r)
    | "int" ->
        let bound = golden_bounds.(i mod Array.length golden_bounds) in
        Printf.bprintf b "%d\n" (Util.Rng.int r bound)
    | "float" -> Printf.bprintf b "%h\n" (Util.Rng.float r)
    | _ -> Printf.bprintf b "%b\n" (Util.Rng.bool r))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden =
  [
    ( "next64",
      [
        "a02aaac158c072099299c7eef736b28d"; "5b68724cc1e8c849e6864a83aa960a86";
        "31672caaf78f44d508bdd08d321bb1b3"; "e1e9640bafcca84f37dad8338067d177";
        "25b381229d83dfb981ffdb61ce03ec1d"; "f02767b22cdd32522bce2ad7b328b52f";
      ] );
    ( "int",
      [
        "193513729ee47a801feea78f15fb270f"; "13e30087f92b9033c39e913b940eaf91";
        "2486096aaa16279e6791ec4d43bff580"; "35787ff667995e55c5f2800e7c8c8d0c";
        "25deeb2db7cbdee3220e761c0741c740"; "b1275b70a0fafc68dd02169c0afca542";
      ] );
    ( "float",
      [
        "220615eb6248f9345af78b995f403186"; "4116fd30593dd15355697b4ed979a423";
        "0a87a2a9067ebc3aada15d625fefe41a"; "5eb145e04ef094842f3ca50595575165";
        "189a178ce2082c0142d47ea09789041c"; "d56b6ccaced0dfc158e9f203ee7b2c04";
      ] );
    ( "bool",
      [
        "11692d5e7c8b73464e9758159d68e401"; "82862c4837b7f20b28ee554e487b3a66";
        "faf96b7c494bfb6704fb9c4022d80346"; "3349e9f64aeac9cfaf8e506595af09a3";
        "3839d73c0c5b09cb99e851628ce817e6"; "eb4574a96be729c05f3959822e5f9a86";
      ] );
  ]

let rng_golden_streams () =
  List.iter
    (fun (name, digests) ->
      List.iter2
        (fun seed want ->
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" name seed)
            want (golden_stream name seed))
        golden_seeds digests)
    golden

(* [Rng.float] is [bits53] scaled, drawn through an unboxed int: the
   first 10,000 floats of seeds 1-3 and 100,000 zipf ranks (which draw
   [bits53] directly) must be those of the [Int64.to_float]
   implementation it replaced, recorded here. *)
let rng_float_via_bits53 () =
  List.iter
    (fun (seed, want) ->
      let r = Util.Rng.create ~seed in
      let b = Buffer.create 200_000 in
      for _ = 1 to 10_000 do
        Printf.bprintf b "%h\n" (Util.Rng.float r)
      done;
      Alcotest.(check string)
        (Printf.sprintf "float seed %d" seed)
        want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (1, "9777bcf321a75d8d5e8d6c61ab1c1f5f");
      (2, "4f0e77fee676b41afd07cc318fcdf059");
      (3, "8d6a6f34748071a0f237b481ecde0fd6");
    ];
  let a = Util.Rng.create ~seed:4 in
  let b = Util.Rng.copy a in
  for _ = 1 to 1_000 do
    let bits = Util.Rng.bits53 a in
    check "bits53 in [0, 2^53)" true (bits >= 0 && bits < 1 lsl 53);
    check "float = bits53 * 2^-53" true
      (Util.Rng.float b = float_of_int bits *. 0x1p-53)
  done;
  let z = Util.Zipf.create ~n:100_000 ~theta:0.99 in
  let r = Util.Rng.create ~seed:1 in
  let acc = ref 0 in
  for _ = 1 to 100_000 do
    acc := (!acc * 31) + Util.Zipf.next z r
  done;
  check_int "zipf ranks unchanged" 2101014190432994126 !acc

(* --- Clock ------------------------------------------------------------- *)

(* The monotonic clock never steps back and resolves well below the
   238.4 ns that a [Unix.gettimeofday] double resolves today. *)
let clock_monotonic_fine () =
  let prev = ref (Util.Clock.now_ns ()) and fine = ref 0 in
  for _ = 1 to 100_000 do
    let now = Util.Clock.now_ns () in
    if now < !prev then Alcotest.failf "clock stepped back by %.0f ns" (!prev -. now);
    if now -. !prev < 200.0 then incr fine;
    prev := now
  done;
  check "some back-to-back deltas under 200 ns" true (!fine > 0)

(* --- Zipf -------------------------------------------------------------- *)

let zipf_bounds () =
  let z = Util.Zipf.create ~n:1000 ~theta:0.99 in
  let r = Util.Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Util.Zipf.next z r in
    check "rank in range" true (v >= 0 && v < 1000)
  done

let zipf_skew () =
  (* Rank 0 of a zipfian(0.99) over 10k items should absorb a few percent
     of the mass; uniform would give 0.01%. *)
  let z = Util.Zipf.create ~n:10_000 ~theta:0.99 in
  let r = Util.Rng.create ~seed:2 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Util.Zipf.next z r = 0 then incr hits
  done;
  check "head is hot" true (!hits > n / 100);
  (* Tail mass still exists. *)
  let tail = ref 0 in
  let r = Util.Rng.create ~seed:3 in
  for _ = 1 to n do
    if Util.Zipf.next z r >= 5000 then incr tail
  done;
  check "tail reachable" true (!tail > 0)

let zipf_monotone_popularity () =
  let z = Util.Zipf.create ~n:100 ~theta:0.99 in
  let r = Util.Rng.create ~seed:4 in
  let counts = Array.make 100 0 in
  for _ = 1 to 200_000 do
    let v = Util.Zipf.next z r in
    counts.(v) <- counts.(v) + 1
  done;
  check "rank0 >= rank10" true (counts.(0) > counts.(10));
  check "rank1 >= rank50" true (counts.(1) > counts.(50))

(* --- Scramble ---------------------------------------------------------- *)

let scramble_invertible =
  QCheck.Test.make ~name:"fmix64 is invertible" ~count:1000
    QCheck.int64 (fun k -> Util.Scramble.unfmix64 (Util.Scramble.fmix64 k) = k)

let scramble_distinct () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 10_000 do
    let k = Util.Scramble.key_of_rank i in
    check "no collision" true (not (Hashtbl.mem seen k));
    Hashtbl.replace seen k ()
  done

(* --- Bits -------------------------------------------------------------- *)

let bits_roundtrip =
  QCheck.Test.make ~name:"bits set/get roundtrip" ~count:1000
    QCheck.(triple int64 (int_bound 55) (int_range 1 8))
    (fun (x, lo, width) ->
      let v = Int64.logand 0x5aL (Util.Bits.mask width) in
      Util.Bits.get (Util.Bits.set x ~lo ~width v) ~lo ~width = v)

let bits_set_preserves_others () =
  let x = 0x1234_5678_9abc_def0L in
  let y = Util.Bits.set x ~lo:16 ~width:8 0xffL in
  Alcotest.(check int64) "below untouched"
    (Util.Bits.get x ~lo:0 ~width:16)
    (Util.Bits.get y ~lo:0 ~width:16);
  Alcotest.(check int64) "above untouched"
    (Util.Bits.get x ~lo:24 ~width:40)
    (Util.Bits.get y ~lo:24 ~width:40)

let bits_popcount () =
  check_int "popcount 0" 0 (Util.Bits.popcount 0L);
  check_int "popcount -1" 64 (Util.Bits.popcount (-1L));
  check_int "popcount 0xf0" 4 (Util.Bits.popcount 0xf0L)

(* --- Ivec -------------------------------------------------------------- *)

let ivec_push_get () =
  let v = Util.Ivec.create () in
  for i = 0 to 999 do
    Util.Ivec.push v (i * 3)
  done;
  check_int "length" 1000 (Util.Ivec.length v);
  for i = 0 to 999 do
    check_int "get" (i * 3) (Util.Ivec.get v i)
  done

let ivec_swap_remove () =
  let v = Util.Ivec.create () in
  List.iter (Util.Ivec.push v) [ 10; 20; 30; 40 ];
  let moved = Util.Ivec.swap_remove v 1 in
  check_int "moved element" 40 moved;
  check_int "length" 3 (Util.Ivec.length v);
  Alcotest.(check (list int)) "contents" [ 10; 40; 30 ] (Util.Ivec.to_list v);
  check_int "remove last returns -1" (-1) (Util.Ivec.swap_remove v 2)

(* --- Table ------------------------------------------------------------- *)

let table_csv () =
  let t = Util.Table.create ~columns:[ "name"; "value" ] in
  Util.Table.add_row t [ "plain"; "1" ];
  Util.Table.add_row t [ "with,comma"; "quote\"inside" ];
  Alcotest.(check string) "csv"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n"
    (Util.Table.to_csv t)

let table_cells () =
  Alcotest.(check string) "int commas" "1,234,567" (Util.Table.cell_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Util.Table.cell_int (-1000));
  Alcotest.(check string) "pct" "+10.3%" (Util.Table.cell_pct 0.103);
  Alcotest.(check string) "float" "3.14" (Util.Table.cell_float 3.14159)

let tests =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick rng_seed_sensitivity;
      Alcotest.test_case "rng int bounds" `Quick rng_int_bounds;
      Alcotest.test_case "rng int covers range" `Quick rng_int_covers_range;
      Alcotest.test_case "rng float unit interval" `Quick rng_float_unit_interval;
      Alcotest.test_case "rng copy independent" `Quick rng_copy_independent;
      Alcotest.test_case "rng shuffle permutes" `Quick rng_shuffle_permutes;
      Alcotest.test_case "rng golden streams" `Quick rng_golden_streams;
      Alcotest.test_case "rng float via bits53" `Quick rng_float_via_bits53;
      Alcotest.test_case "monotonic ns clock" `Quick clock_monotonic_fine;
      Alcotest.test_case "zipf bounds" `Quick zipf_bounds;
      Alcotest.test_case "zipf skew" `Quick zipf_skew;
      Alcotest.test_case "zipf popularity order" `Quick zipf_monotone_popularity;
      QCheck_alcotest.to_alcotest scramble_invertible;
      Alcotest.test_case "scramble distinct" `Quick scramble_distinct;
      QCheck_alcotest.to_alcotest bits_roundtrip;
      Alcotest.test_case "bits set preserves others" `Quick bits_set_preserves_others;
      Alcotest.test_case "bits popcount" `Quick bits_popcount;
      Alcotest.test_case "ivec push/get" `Quick ivec_push_get;
      Alcotest.test_case "ivec swap_remove" `Quick ivec_swap_remove;
      Alcotest.test_case "table cells" `Quick table_cells;
      Alcotest.test_case "table csv" `Quick table_csv;
    ] )
