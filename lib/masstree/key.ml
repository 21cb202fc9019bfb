let layer_link_len = 15
let suffix_len_marker = 9

let check_layer key ~layer =
  if 8 * layer > String.length key then
    invalid_arg "Key: layer beyond key"

(* Byte [i] of the layer's zero-padded 8-byte slice. *)
let[@inline] byte key off i =
  if off + i < String.length key then Char.code (String.unsafe_get key (off + i))
  else 0

(* Four big-endian slice bytes from [off + i]: one 32-bit half. *)
let half key off i =
  if off + i + 4 <= String.length key then
    (String.get_uint16_be key (off + i) lsl 16)
    lor String.get_uint16_be key (off + i + 2)
  else
    (byte key off i lsl 24)
    lor (byte key off (i + 1) lsl 16)
    lor (byte key off (i + 2) lsl 8)
    lor byte key off (i + 3)

let slice_hi key ~layer =
  check_layer key ~layer;
  half key (8 * layer) 0

let slice_lo key ~layer =
  check_layer key ~layer;
  half key (8 * layer) 4

let slice_len key ~layer =
  check_layer key ~layer;
  min 8 (String.length key - (8 * layer))

let of_halves ~hi ~lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let has_suffix key ~layer = String.length key > 8 * (layer + 1)

let suffix key ~layer =
  let off = 8 * (layer + 1) in
  String.sub key off (String.length key - off)

let compare_slices = Int64.unsigned_compare

let compare_entry s1 l1 s2 l2 =
  let c = compare_slices s1 s2 in
  if c <> 0 then c else compare (l1 : int) l2

let hi32 bits = Int64.to_int (Int64.shift_right_logical bits 32)
let lo32 bits = Int64.to_int (Int64.logand bits 0xFFFF_FFFFL)

(* Big-endian byte [i] (0..7) of the slice with halves [hi], [lo]. *)
let[@inline] slice_byte ~hi ~lo i =
  if i < 4 then (hi lsr (24 - (8 * i))) land 0xff
  else (lo lsr (56 - (8 * i))) land 0xff

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] set32_be b i v =
  let v = Int32.of_int v in
  set32u b i (if Sys.big_endian then v else swap32 v)

let of_slice ~prefix ~hi ~lo ~len =
  let plen = String.length prefix in
  if plen = 0 && len = 8 then begin
    (* A whole slice with no prefix (every 8-byte key of a scan): two
       32-bit stores, no byte loop and no C call. *)
    let b = Bytes.create 8 in
    set32_be b 0 hi;
    set32_be b 4 lo;
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.create (plen + len) in
    Bytes.unsafe_blit_string prefix 0 b 0 plen;
    for i = 0 to len - 1 do
      Bytes.unsafe_set b (plen + i) (Char.unsafe_chr (slice_byte ~hi ~lo i))
    done;
    Bytes.unsafe_to_string b
  end

let of_int64 v = of_slice ~prefix:"" ~hi:(hi32 v) ~lo:(lo32 v) ~len:8

let to_int64 s =
  if String.length s <> 8 then invalid_arg "Key.to_int64: need 8 bytes";
  String.get_int64_be s 0
