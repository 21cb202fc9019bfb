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

let key_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.key_off";
  88 + (8 * slot)

let keylen_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.keylen_off";
  200 + slot

let val_off slot =
  if slot < 0 || slot >= width then invalid_arg "Leaf.val_off"
  else if slot <= 6 then 264 + (8 * slot)
  else 320 + (8 * (slot - 7))

let incll_off slot = if slot <= 6 then incll1_off else incll2_off

(* Layout invariants the InCLL algorithm depends on. *)
let () =
  assert (off_epoch_word / 64 = off_perm / 64);
  assert (off_perm_incll / 64 = off_perm / 64);
  for s = 0 to 6 do
    assert (val_off s / 64 = incll1_off / 64)
  done;
  for s = 7 to 13 do
    assert (val_off s / 64 = incll2_off / 64)
  done

let flag_leaf = 1L

let version region node = Nvm.Region.read_i64 region (node + off_version)
let set_version region node v = Nvm.Region.write_i64 region (node + off_version) v
let next region node = Nvm.Region.read_int region (node + off_next)
let set_next region node v = Nvm.Region.write_int region (node + off_next) v
let prev region node = Nvm.Region.read_int region (node + off_prev)
let set_prev region node v = Nvm.Region.write_int region (node + off_prev) v

let flags region node = Nvm.Region.read_i64 region (node + off_flags)
let layer region node = Util.Bits.get_int (flags region node) ~lo:8 ~width:16
let is_leaf_node region node = Int64.logand (flags region node) flag_leaf = 1L

let epoch_word region node =
  Epoch_word.unpack (Nvm.Region.read_i64 region (node + off_epoch_word))

let set_epoch_word region node (d : Epoch_word.decoded) =
  Nvm.Region.write_i64 region (node + off_epoch_word)
    (Epoch_word.pack ~epoch:d.Epoch_word.epoch
       ~ins_allowed:d.Epoch_word.ins_allowed ~logged:d.Epoch_word.logged)

let perm_incll region node = Nvm.Region.read_i64 region (node + off_perm_incll)
let set_perm_incll region node v = Nvm.Region.write_i64 region (node + off_perm_incll) v
let perm region node = Nvm.Region.read_i64 region (node + off_perm)
let set_perm region node v = Nvm.Region.write_i64 region (node + off_perm) v

let key region node ~slot = Nvm.Region.read_i64 region (node + key_off slot)
let set_key region node ~slot v = Nvm.Region.write_i64 region (node + key_off slot) v
let keylen region node ~slot = Nvm.Region.read_u8 region (node + keylen_off slot)
let set_keylen region node ~slot v = Nvm.Region.write_u8 region (node + keylen_off slot) v

let value region node ~slot =
  Nvm.Region.read_int region (node + val_off slot)

let set_value region node ~slot v =
  Nvm.Region.write_int region (node + val_off slot) v

let incll region node ~slot = Nvm.Region.read_i64 region (node + incll_off slot)

let incll_by_index region node ~which =
  Nvm.Region.read_i64 region (node + if which = 0 then incll1_off else incll2_off)

let set_incll_by_index region node ~which v =
  Nvm.Region.write_i64 region
    (node + if which = 0 then incll1_off else incll2_off)
    v

let create (alloc : Alloc.Api.t) region ~layer ~epoch =
  let node = alloc.Alloc.Api.alloc ~aligned:true ~size:node_bytes in
  assert (node land 63 = 0);
  set_version region node 0L;
  set_next region node 0;
  set_prev region node 0;
  Nvm.Region.write_i64 region (node + off_flags)
    (Int64.logor flag_leaf (Int64.of_int (layer lsl 8)));
  set_perm_incll region node Permutation.empty;
  set_epoch_word region node
    { Epoch_word.epoch; ins_allowed = true; logged = false };
  set_perm region node Permutation.empty;
  let inv = Val_incll.invalid ~low_epoch:(epoch land 0xffff) in
  set_incll_by_index region node ~which:0 inv;
  set_incll_by_index region node ~which:1 inv;
  node

type lookup = Found of int | Insert_before of int

let entry_count region node = Permutation.count (perm region node)

let find region node ~slice ~keylen:klen =
  let p = perm region node in
  let n = Permutation.count p in
  let shi = Int64.to_int (Int64.shift_right_logical slice 32)
  and slo = Int64.to_int (Int64.logand slice 0xFFFF_FFFFL) in
  (* Invariant: entries at ranks < lo are smaller, at ranks >= hi are
     greater or equal. The probe reads keylen before the key slice (the
     argument order of [Key.compare_entry], which this unboxed comparison
     replaces) and compares via {!Nvm.Region.compare_u64}, so a search
     allocates nothing. *)
  let rec loop lo hi =
    if lo >= hi then Insert_before lo
    else begin
      let mid = (lo + hi) / 2 in
      let slot = Permutation.slot_at_rank p mid in
      let kl = keylen region node ~slot in
      let c =
        Nvm.Region.compare_u64 region (node + key_off slot) ~hi:shi ~lo:slo
      in
      let c = if c <> 0 then c else compare (kl : int) klen in
      if c = 0 then Found mid
      else if c < 0 then loop (mid + 1) hi
      else loop lo mid
    end
  in
  loop 0 n
