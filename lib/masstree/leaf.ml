let width = 14
let node_bytes = 384

let off_version = 0
let off_next = 8
let off_flags = 16
let off_prev = 24
let off_epoch_word = 64
let off_perm_incll = 72
let off_perm = 80
let incll1_off = 256
let incll2_off = 376

let[@inline] key_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.key_off";
  88 + (8 * slot)

let[@inline] keylen_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.keylen_off";
  200 + slot

let[@inline] val_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.val_off"
  else if slot <= 6 then 264 + (8 * slot)
  else 320 + (8 * (slot - 7))


(* Layout invariants the InCLL algorithm depends on. *)
let () =
  assert (off_epoch_word / 64 = off_perm / 64);
  assert (off_perm_incll / 64 = off_perm / 64);
  for s = 0 to 6 do
    assert (val_off s / 64 = incll1_off / 64)
  done;
  for s = 7 to 13 do
    assert (val_off s / 64 = incll2_off / 64)
  done;
  (* A scan hints every value word of a leaf in one call, slot [s] being
     word [s] from [val_off 0]. *)
  for s = 0 to width - 1 do
    assert (val_off s = val_off 0 + (8 * s))
  done

let flag_leaf = 1

let set_version region node v = Nvm.Region.write_int region (node + off_version) v
let next region node = Nvm.Region.read_int region (node + off_next)
let set_next region node v = Nvm.Region.write_int region (node + off_next) v
let prev region node = Nvm.Region.read_int region (node + off_prev)
let set_prev region node v = Nvm.Region.write_int region (node + off_prev) v

let flags region node = Nvm.Region.read_int region (node + off_flags)
let layer region node = Util.Bits.field (flags region node) ~lo:8 ~width:16
let is_leaf_node region node = flags region node land flag_leaf = flag_leaf

let epoch_word region node =
  let lo = Nvm.Region.read_u64 region (node + off_epoch_word) in
  Epoch_word.epoch ~hi:(Nvm.Region.hi32 region) ~lo

let logged region = Epoch_word.logged ~hi:(Nvm.Region.hi32 region)
let ins_allowed region = Epoch_word.ins_allowed ~hi:(Nvm.Region.hi32 region)

let set_epoch_word region node ~epoch ~ins_allowed ~logged =
  Nvm.Region.write_u64 region (node + off_epoch_word)
    ~hi:(Epoch_word.hi ~epoch ~ins_allowed ~logged)
    ~lo:(Epoch_word.lo ~epoch)

let perm_incll region node = Nvm.Region.read_int region (node + off_perm_incll)
let set_perm_incll region node v = Nvm.Region.write_int region (node + off_perm_incll) v
let perm region node = Nvm.Region.read_int region (node + off_perm)
let set_perm region node v = Nvm.Region.write_int region (node + off_perm) v

let key region node ~slot = Nvm.Region.read_u64 region (node + key_off slot)

let set_key region node ~slot ~hi ~lo =
  Nvm.Region.write_u64 region (node + key_off slot) ~hi ~lo

let keylen region node ~slot = Nvm.Region.read_u8 region (node + keylen_off slot)
let set_keylen region node ~slot v = Nvm.Region.write_u8 region (node + keylen_off slot) v

let value region node ~slot =
  Nvm.Region.read_int region (node + val_off slot)

let set_value region node ~slot v =
  Nvm.Region.write_int region (node + val_off slot) v

let incll_index slot = if slot <= 6 then 0 else 1
let incll_word_off which = if which = 0 then incll1_off else incll2_off

let incll region node ~which =
  Nvm.Region.read_u64 region (node + incll_word_off which)

let set_incll region node ~which ~hi ~lo =
  Nvm.Region.write_u64 region (node + incll_word_off which) ~hi ~lo

let set_incll_invalid region node ~which ~low_epoch =
  set_incll region node ~which
    ~hi:(Val_incll.hi ~ptr:0 ~low_epoch)
    ~lo:(Val_incll.lo ~ptr:0 ~idx:Val_incll.invalid_idx)

let create (alloc : Alloc.Api.t) region ~layer ~epoch =
  let node = alloc.Alloc.Api.alloc ~aligned:true ~size:node_bytes in
  assert (node land 63 = 0);
  set_version region node 0;
  set_next region node 0;
  set_prev region node 0;
  Nvm.Region.write_int region (node + off_flags) (flag_leaf lor (layer lsl 8));
  set_perm_incll region node Permutation.empty;
  set_epoch_word region node ~epoch ~ins_allowed:true ~logged:false;
  set_perm region node Permutation.empty;
  let low_epoch = epoch land 0xffff in
  set_incll_invalid region node ~which:0 ~low_epoch;
  set_incll_invalid region node ~which:1 ~low_epoch;
  node

let entry_count region node = Permutation.count (perm region node)

(* Binary search over ranks [a, b): entries below [a] are smaller, from
   [b] on greater or equal. Each probe reads keylen before the key slice
   (the argument order of [Key.compare_entry], which this unboxed
   comparison replaces) and compares via {!Nvm.Region.compare_u64}; a
   top-level loop, so a search allocates nothing, not even a closure. *)
let rec search region node p ~hi ~lo ~klen a b =
  if a >= b then lnot a
  else begin
    let mid = (a + b) / 2 in
    let slot = Permutation.slot_at_rank p mid in
    let kl = keylen region node ~slot in
    let c = Nvm.Region.compare_u64 region (node + key_off slot) ~hi ~lo in
    let c = if c <> 0 then c else compare (kl : int) klen in
    if c = 0 then mid
    else if c < 0 then search region node p ~hi ~lo ~klen (mid + 1) b
    else search region node p ~hi ~lo ~klen a mid
  end

let find region node ~hi ~lo ~keylen =
  let p = perm region node in
  search region node p ~hi ~lo ~klen:keylen 0 (Permutation.count p)
