type t = int

let width = 14

(* The word fits in 60 bits (a count nibble and 14 slot nibbles), so it
   is a tagged int: the same bytes as the historical [int64] through
   [Region.read_int]/[write_int], and no box per access. *)
let[@inline] get_nibble p i = (p lsr (4 * i)) land 0xf

let[@inline] set_nibble p i v =
  p land lnot (0xf lsl (4 * i)) lor ((v land 0xf) lsl (4 * i))

let[@inline] count p = get_nibble p 0
let[@inline] slot_at_rank p rank = get_nibble p (rank + 1)
let[@inline] set_rank p rank slot = set_nibble p (rank + 1) slot
let[@inline] with_count p c = set_nibble p 0 c

let empty =
  let rec fill p i = if i >= width then p else fill (set_rank p i i) (i + 1) in
  fill 0 0

let is_full p = count p >= width

let insert p ~rank =
  let c = count p in
  if c >= width then invalid_arg "Permutation.insert: full";
  if rank < 0 || rank > c then invalid_arg "Permutation.insert: bad rank";
  (* The slot at rank [c] is the first free slot; rotate it down to [rank]. *)
  let slot = slot_at_rank p c in
  let p' = ref p in
  for i = c downto rank + 1 do
    p' := set_rank !p' i (slot_at_rank !p' (i - 1))
  done;
  let p' = set_rank !p' rank slot in
  (with_count p' (c + 1), slot)

let remove p ~rank =
  let c = count p in
  if rank < 0 || rank >= c then invalid_arg "Permutation.remove: bad rank";
  let slot = slot_at_rank p rank in
  let p' = ref p in
  for i = rank to c - 2 do
    p' := set_rank !p' i (slot_at_rank !p' (i + 1))
  done;
  (* The freed slot becomes the first free slot (rank c-1 after shrink). *)
  let p' = set_rank !p' (c - 1) slot in
  (with_count p' (c - 1), slot)

let active_slots p = List.init (count p) (fun i -> slot_at_rank p i)

let free_slots p =
  List.init (width - count p) (fun i -> slot_at_rank p (count p + i))

let is_valid p =
  let c = count p in
  c <= width
  &&
  let seen = Array.make width false in
  let ok = ref true in
  for i = 0 to width - 1 do
    let s = slot_at_rank p i in
    if s >= width || seen.(s) then ok := false else seen.(s) <- true
  done;
  !ok

let pp ppf p =
  Format.fprintf ppf "{count=%d; active=[%s]; free=[%s]}" (count p)
    (String.concat ";" (List.map string_of_int (active_slots p)))
    (String.concat ";" (List.map string_of_int (free_slots p)))
