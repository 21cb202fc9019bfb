(* Tests for key slicing and ordering (the trie layering of §2.2). *)

module K = Masstree.Key

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The packed slice of [key] at [layer], and its length. *)
let slice key ~layer =
  (K.of_halves ~hi:(K.slice_hi key ~layer) ~lo:(K.slice_lo key ~layer),
   K.slice_len key ~layer)

let slice_basic () =
  let bits, len = slice "AB" ~layer:0 in
  check_int "len" 2 len;
  Alcotest.(check int64) "big endian, left aligned" 0x4142_0000_0000_0000L bits

let slice_full_and_suffix () =
  let k = "abcdefghij" in
  check_int "first slice full" 8 (K.slice_len k ~layer:0);
  check "has suffix" true (K.has_suffix k ~layer:0);
  Alcotest.(check string) "suffix" "ij" (K.suffix k ~layer:0);
  check_int "second slice" 2 (K.slice_len k ~layer:1);
  check "no more" false (K.has_suffix k ~layer:1)

let empty_key () =
  let bits, len = slice "" ~layer:0 in
  check_int "len 0" 0 len;
  Alcotest.(check int64) "zero bits" 0L bits;
  check "no suffix" false (K.has_suffix "" ~layer:0)

let unsigned_comparison () =
  (* Bytes >= 0x80 must sort above ASCII: requires unsigned compare. *)
  let hi, _ = slice "\xff" ~layer:0 in
  let lo, _ = slice "a" ~layer:0 in
  check "0xff > 'a'" true (K.compare_slices hi lo > 0)

let entry_ordering () =
  let s, _ = slice "ab" ~layer:0 in
  (* Shorter key sorts first; the layer-link marker sorts after the full
     8-byte terminal. *)
  check "len splits ties" true (K.compare_entry s 2 s 3 < 0);
  check "link after terminal" true (K.compare_entry s K.layer_link_len s 8 > 0)

let slice_order_is_lexicographic =
  QCheck.Test.make ~name:"slice order = byte order" ~count:1000
    QCheck.(pair (string_of_size Gen.(int_bound 8)) (string_of_size Gen.(int_bound 8)))
    (fun (a, b) ->
      let sa, la = slice a ~layer:0 and sb, lb = slice b ~layer:0 in
      let c = K.compare_entry sa la sb lb in
      let expected = compare a b in
      (c < 0 && expected < 0) || (c > 0 && expected > 0)
      || (c = 0 && expected = 0))

let bytes_roundtrip =
  QCheck.Test.make ~name:"slice bytes roundtrip" ~count:1000
    QCheck.(string_of_size Gen.(int_bound 8))
    (fun s ->
      K.of_slice ~prefix:"" ~hi:(K.slice_hi s ~layer:0)
        ~lo:(K.slice_lo s ~layer:0) ~len:(K.slice_len s ~layer:0)
      = s)

let int64_roundtrip =
  QCheck.Test.make ~name:"of_int64/to_int64 roundtrip" ~count:1000 QCheck.int64
    (fun v -> K.to_int64 (K.of_int64 v) = v)

let int64_order_preserved =
  QCheck.Test.make ~name:"of_int64 preserves unsigned order" ~count:1000
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let ka = K.of_int64 a and kb = K.of_int64 b in
      compare ka kb = Int64.unsigned_compare a b)

(* [of_slice] builds a whole unprefixed slice with two 32-bit stores; it
   must equal the byte-at-a-time builder it replaced, here kept as the
   reference, on halves of every magnitude (bit 31 set included). *)
let of_slice_reference ~prefix ~hi ~lo ~len =
  prefix
  ^ String.init len (fun i ->
        Char.chr
          (if i < 4 then (hi lsr (24 - (8 * i))) land 0xff
           else (lo lsr (56 - (8 * i))) land 0xff))

let half_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 0xffff_ffff;
        map (fun x -> x lor 0x8000_0000) (int_bound 0xffff_ffff);
        oneofl [ 0; 1; 0x7fff_ffff; 0x8000_0000; 0xffff_ffff ];
      ])

let of_slice_fast_path =
  QCheck.Test.make ~name:"of_slice 8-byte fast path = byte loop" ~count:2000
    QCheck.(make Gen.(pair half_gen half_gen))
    (fun (hi, lo) ->
      K.of_slice ~prefix:"" ~hi ~lo ~len:8
      = of_slice_reference ~prefix:"" ~hi ~lo ~len:8
      (* The other shapes still take the loop: same answer. *)
      && K.of_slice ~prefix:"ab" ~hi ~lo ~len:8
         = of_slice_reference ~prefix:"ab" ~hi ~lo ~len:8
      && K.of_slice ~prefix:"" ~hi ~lo ~len:7
         = of_slice_reference ~prefix:"" ~hi ~lo ~len:7)

let tests =
  ( "key",
    [
      Alcotest.test_case "slice basic" `Quick slice_basic;
      Alcotest.test_case "slice full + suffix" `Quick slice_full_and_suffix;
      Alcotest.test_case "empty key" `Quick empty_key;
      Alcotest.test_case "unsigned comparison" `Quick unsigned_comparison;
      Alcotest.test_case "entry ordering" `Quick entry_ordering;
      QCheck_alcotest.to_alcotest slice_order_is_lexicographic;
      QCheck_alcotest.to_alcotest bytes_roundtrip;
      QCheck_alcotest.to_alcotest int64_roundtrip;
      QCheck_alcotest.to_alcotest int64_order_preserved;
      QCheck_alcotest.to_alcotest of_slice_fast_path;
    ] )
