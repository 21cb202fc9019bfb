(* The xoshiro256** state: four 64-bit words in one 32-byte [Bytes.t],
   read and written through the unchecked native-endian primitives, so
   the words are never boxed and [int] and [bool] allocate nothing. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only to expand the seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not start from the all-zero state. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  let t = Bytes.create 32 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 s2;
  set64u t 24 s3;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step. Inlined into every caller in this module, so
   the state words and the result stay unboxed. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64u t 0 and s1 = get64u t 8 in
  let s2 = get64u t 16 and s3 = get64u t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64u t 8 (logxor s1 s2);
  set64u t 0 (logxor s0 s3);
  set64u t 16 (logxor s2 (shift_left s1 17));
  set64u t 24 (rotl s3 45);
  result

let next64 t = next t

let split t =
  let seed = Int64.to_int (next t) in
  create ~seed

let copy = Bytes.copy

(* Rejection sampling to avoid modulo bias: a top-level loop, with the
   limit recomputed per draw, so nothing is boxed or closed over. *)
let rec int_loop t bound =
  let r = Int64.shift_right_logical (next t) 1 in
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  if r >= limit then int_loop t bound else Int64.to_int (Int64.rem r bound64)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_loop t bound

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float t = float_of_int (bits53 t) *. 0x1p-53

let chance t p = float t < p

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
