let width = 15
let node_bytes = 384

let off_version = 0
let off_logged_epoch = 8
let off_flags = 16
let off_nkeys = 24

let[@inline] key_off i =
  if i < 0 || i >= width then invalid_arg "Internal.key_off";
  64 + (8 * i)

let[@inline] child_off i =
  if i < 0 || i > width then invalid_arg "Internal.child_off";
  192 + (8 * i)

let nkeys region node = Nvm.Region.read_int region (node + off_nkeys)
let set_nkeys region node v =
  Nvm.Region.write_int region (node + off_nkeys) v

let key region node ~i = Nvm.Region.read_u64 region (node + key_off i)

let set_key region node ~i ~hi ~lo =
  Nvm.Region.write_u64 region (node + key_off i) ~hi ~lo

(* Move key [src] to index [dst]: same load and store as before, in halves. *)
let move_key region node ~src ~dst =
  let lo = key region node ~i:src in
  set_key region node ~i:dst ~hi:(Nvm.Region.hi32 region) ~lo

let child region node ~i =
  Nvm.Region.read_int region (node + child_off i)

let set_child region node ~i v =
  Nvm.Region.write_int region (node + child_off i) v

let logged_epoch region node =
  Nvm.Region.read_int region (node + off_logged_epoch)

let set_logged_epoch region node v =
  Nvm.Region.write_int region (node + off_logged_epoch) v

let layer region node =
  Util.Bits.field (Nvm.Region.read_int region (node + off_flags)) ~lo:8 ~width:16

let create (alloc : Alloc.Api.t) region ~layer =
  let node = alloc.Alloc.Api.alloc ~aligned:true ~size:node_bytes in
  assert (node land 63 = 0);
  Nvm.Region.write_i64 region (node + off_version) 0L;
  set_logged_epoch region node 0;
  (* bit 0 clear: not a leaf (shared flag position with Leaf). *)
  Nvm.Region.write_int region (node + off_flags) (layer lsl 8);
  set_nkeys region node 0;
  node

let is_full region node = nkeys region node >= width

(* First key strictly greater than the slice [hi]/[lo] in [a, b) gives
   the child index: unboxed comparisons in a top-level loop, so the
   descent allocates nothing. *)
let rec first_greater region node ~hi ~lo a b =
  if a >= b then a
  else begin
    let mid = (a + b) / 2 in
    if Nvm.Region.compare_u64 region (node + key_off mid) ~hi ~lo <= 0 then
      first_greater region node ~hi ~lo (mid + 1) b
    else first_greater region node ~hi ~lo a mid
  end

let search_child region node ~hi ~lo =
  first_greater region node ~hi ~lo 0 (nkeys region node)

let insert_separator region node ~at ~hi ~lo ~right =
  let n = nkeys region node in
  if n >= width then invalid_arg "Internal.insert_separator: full";
  if at < 0 || at > n then invalid_arg "Internal.insert_separator: bad index";
  for i = n downto at + 1 do
    move_key region node ~src:(i - 1) ~dst:i
  done;
  for i = n + 1 downto at + 2 do
    set_child region node ~i (child region node ~i:(i - 1))
  done;
  set_key region node ~i:at ~hi ~lo;
  set_child region node ~i:(at + 1) right;
  set_nkeys region node (n + 1)

let remove_child region node ~i =
  let n = nkeys region node in
  if n < 1 then invalid_arg "Internal.remove_child: no keys";
  if i < 0 || i > n then invalid_arg "Internal.remove_child: bad index";
  (* Dropping child [i] removes the separator between it and a neighbour:
     key [i-1] for i>0, key 0 when the leftmost child goes. *)
  let kdrop = if i = 0 then 0 else i - 1 in
  for j = kdrop to n - 2 do
    move_key region node ~src:(j + 1) ~dst:j
  done;
  for j = i to n - 1 do
    set_child region node ~i:j (child region node ~i:(j + 1))
  done;
  set_nkeys region node (n - 1)
