type t = {
  region : Nvm.Region.t;
  alloc : Alloc.Api.t;
  hooks : Hooks.t;
  current_epoch : unit -> int;
  mutable root : int;  (* cached copy of the superblock root word *)
  mutable path : int array;
      (* the last descent's (internal, child index) pairs, root first *)
  mutable depth : int;  (* ints of [path] in use *)
  (* Registry counters ["tree.<name>"] of the region's metrics. *)
  c_updates : int ref;
  c_leaf_splits : int ref;
  c_root_splits : int ref;
  c_layer_creations : int ref;
  c_leaf_removals : int ref;
  c_internal_splices : int ref;
  c_root_collapses : int ref;
  c_layer_prunes : int ref;
}

(* Where does the current layer's root pointer live? Layer 0: the
   superblock root line; deeper layers: the link slot's value in the
   parent-layer leaf. *)
type root_ref = Top | Val_slot of { leaf : int; slot : int }

let max_value_bytes =
  Alloc.Size_class.payload_capacity
    ~cls:(Alloc.Size_class.count - 1)
    ~aligned:false
  - 8

let region t = t.region
let root t = t.root

let read_root region =
  Nvm.Region.read_int region Nvm.Layout.off_root

let make region alloc hooks ~current_epoch =
  let m = Nvm.Region.metrics region in
  let c name = Obs.Registry.counter m ("tree." ^ name) in
  {
    region;
    alloc;
    hooks;
    current_epoch;
    root = 0;
    path = Array.make 32 0;
    depth = 0;
    c_updates = c "updates";
    c_leaf_splits = c "leaf_splits";
    c_root_splits = c "root_splits";
    c_layer_creations = c "layer_creations";
    c_leaf_removals = c "leaf_removals";
    c_internal_splices = c "internal_splices";
    c_root_collapses = c "root_collapses";
    c_layer_prunes = c "layer_prunes";
  }

let create region alloc hooks ~current_epoch =
  let t = make region alloc hooks ~current_epoch in
  let leaf = Leaf.create alloc region ~layer:0 ~epoch:(current_epoch ()) in
  Nvm.Region.write_int region Nvm.Layout.off_root leaf;
  (* The initial root must survive even a crash in the first epoch. *)
  Nvm.Region.clwb region Nvm.Layout.off_root;
  Nvm.Region.sfence region;
  t.root <- leaf;
  t

let open_existing region alloc hooks ~current_epoch =
  let t = make region alloc hooks ~current_epoch in
  t.root <- read_root region;
  if t.root = 0 then failwith "Tree.open_existing: no root recorded";
  t

(* --- value buffers ---------------------------------------------------- *)

let write_value t v =
  let len = String.length v in
  if len > max_value_bytes then invalid_arg "Tree: value too large";
  let buf = t.alloc.Alloc.Api.alloc ~aligned:false ~size:(8 + len) in
  Nvm.Region.write_int t.region buf len;
  if len > 0 then Nvm.Region.write_string t.region (buf + 8) v;
  buf

let read_value t buf = Nvm.Region.read_prefixed_string t.region buf

(* Suffix entries (Masstree's ksuf): the key bytes past the 8-byte slice
   live in the entry's buffer, in front of the value:
   [ suffix_len | suffix (padded to 8) | value_len | value ]. *)
let pad8 n = (n + 7) land lnot 7

let write_suffix_value t ~suffix ~value =
  let slen = String.length suffix and vlen = String.length value in
  if vlen > max_value_bytes then invalid_arg "Tree: value too large";
  if slen > max_value_bytes then invalid_arg "Tree: key too large";
  let buf =
    t.alloc.Alloc.Api.alloc ~aligned:false ~size:(16 + pad8 slen + vlen)
  in
  Nvm.Region.write_int t.region buf slen;
  if slen > 0 then Nvm.Region.write_string t.region (buf + 8) suffix;
  Nvm.Region.write_int t.region (buf + 8 + pad8 slen) vlen;
  if vlen > 0 then
    Nvm.Region.write_string t.region (buf + 16 + pad8 slen) value;
  buf

let read_suffix t buf = Nvm.Region.read_prefixed_string t.region buf

let read_suffix_value t buf =
  let slen = Nvm.Region.read_int t.region buf in
  Nvm.Region.read_prefixed_string t.region (buf + 8 + pad8 slen)

(* --- descent ----------------------------------------------------------- *)

(* Lines of a tree node, leaf or internal: what a descent hints the host
   to load as soon as it has read a child pointer, before it reads the
   child's flags word (Masstree prefetches a node's lines before
   searching it). *)
let node_lines = Leaf.node_bytes / Nvm.Config.line_size
let () = assert (Internal.node_bytes = Leaf.node_bytes)

(* Walk to the leaf covering the slice [hi]/[lo]. Reads and writes walk
   the same nodes with the same charges; a mutation's descent also records
   each (internal, child index) step in [t.path], an int array, so
   neither allocates. Only a split or a leaf removal needs the ancestors,
   and then as a list: {!stack}. *)
let rec leaf_for t node ~hi ~lo =
  if Leaf.is_leaf_node t.region node then node
  else begin
    let child =
      Internal.child t.region node ~i:(Internal.search_child t.region node ~hi ~lo)
    in
    Nvm.Region.prefetch t.region child ~lines:node_lines;
    leaf_for t child ~hi ~lo
  end

let rec walk t node ~hi ~lo =
  if Leaf.is_leaf_node t.region node then node
  else begin
    let idx = Internal.search_child t.region node ~hi ~lo in
    if t.depth + 2 > Array.length t.path then begin
      let path = Array.make (2 * Array.length t.path) 0 in
      Array.blit t.path 0 path 0 t.depth;
      t.path <- path
    end;
    t.path.(t.depth) <- node;
    t.path.(t.depth + 1) <- idx;
    t.depth <- t.depth + 2;
    let child = Internal.child t.region node ~i:idx in
    Nvm.Region.prefetch t.region child ~lines:node_lines;
    walk t child ~hi ~lo
  end

let descend t root ~hi ~lo =
  t.depth <- 0;
  walk t root ~hi ~lo

(* The last descent's ancestors as (internal, child index), immediate
   parent first. *)
let stack t =
  let rec build i acc =
    if i >= t.depth then acc
    else build (i + 2) ((t.path.(i), t.path.(i + 1)) :: acc)
  in
  build 0 []

(* --- structural modification (splits) ---------------------------------- *)

(* Pre-existing nodes a full-leaf insert will mutate: the leaf, the chain
   of full ancestors, the first non-full ancestor (or the root holder when
   everything is full). Computed before any mutation so the whole set can
   be externally logged up front (§4.2). *)
let structural_log_list t rr stack leaf =
  let sibling =
    match Leaf.next t.region leaf with
    | 0 -> []
    | nx -> [ (nx, Leaf.node_bytes) ]
  in
  let rec walk = function
    | [] -> ([], true)
    | (node, _) :: rest ->
        if Internal.is_full t.region node then begin
          let more, root_change = walk rest in
          ((node, Internal.node_bytes) :: more, root_change)
        end
        else ([ (node, Internal.node_bytes) ], false)
  in
  let internals, root_change = walk stack in
  let root_entry =
    if not root_change then []
    else
      match rr with
      | Top -> [ (Nvm.Layout.off_root, Nvm.Config.line_size) ]
      | Val_slot { leaf = parent_leaf; _ } -> [ (parent_leaf, Leaf.node_bytes) ]
  in
  ((leaf, Leaf.node_bytes) :: sibling) @ internals @ root_entry

let set_root t rr new_root =
  match rr with
  | Top ->
      Nvm.Region.write_int t.region Nvm.Layout.off_root new_root;
      t.root <- new_root
  | Val_slot { leaf; slot } -> Leaf.set_value t.region leaf ~slot new_root

(* Split rank near the middle such that the slices on either side differ
   (internal separators route by slice alone). Some rank always qualifies:
   at most 10 entries can share a slice (9 terminal lengths + 1 link).
   Each test loads rank [r]'s slice, then rank [r - 1]'s. *)
let pick_split_rank t leaf p =
  let n = Permutation.count p in
  let region = t.region in
  let ok r =
    r > 0 && r < n
    &&
    let lo = Leaf.key region leaf ~slot:(Permutation.slot_at_rank p r) in
    let hi = Nvm.Region.hi32 region in
    let lo' = Leaf.key region leaf ~slot:(Permutation.slot_at_rank p (r - 1)) in
    lo' <> lo || Nvm.Region.hi32 region <> hi
  in
  let rec search d =
    if d > n then failwith "Tree: cannot split leaf (all slices equal)"
    else if ok ((n / 2) + d) then (n / 2) + d
    else if ok (n / 2 - d) then (n / 2) - d
    else search (d + 1)
  in
  search 0

let copy_entry t ~src ~src_slot ~dst ~dst_slot =
  let region = t.region in
  let lo = Leaf.key region src ~slot:src_slot in
  Leaf.set_key region dst ~slot:dst_slot ~hi:(Nvm.Region.hi32 region) ~lo;
  Leaf.set_keylen region dst ~slot:dst_slot (Leaf.keylen region src ~slot:src_slot);
  Leaf.set_value region dst ~slot:dst_slot (Leaf.value region src ~slot:src_slot)

(* Split [leaf]; returns the new right sibling and the separator slice's
   halves. The caller has already externally logged [leaf]. *)
let split_leaf t leaf ~layer =
  let p = Leaf.perm t.region leaf in
  let n = Permutation.count p in
  let sr = pick_split_rank t leaf p in
  let right =
    Leaf.create t.alloc t.region ~layer ~epoch:(t.current_epoch ())
  in
  let moved = n - sr in
  for j = 0 to moved - 1 do
    copy_entry t ~src:leaf
      ~src_slot:(Permutation.slot_at_rank p (sr + j))
      ~dst:right ~dst_slot:j
  done;
  let rp = ref Permutation.empty in
  for j = 0 to moved - 1 do
    rp := fst (Permutation.insert !rp ~rank:j)
  done;
  Leaf.set_perm t.region right !rp;
  let lp = ref p in
  for _ = 1 to moved do
    lp := fst (Permutation.remove !lp ~rank:(Permutation.count !lp - 1))
  done;
  Leaf.set_perm t.region leaf !lp;
  let old_next = Leaf.next t.region leaf in
  Leaf.set_next t.region right old_next;
  Leaf.set_prev t.region right leaf;
  if old_next <> 0 then Leaf.set_prev t.region old_next right;
  Leaf.set_next t.region leaf right;
  incr t.c_leaf_splits;
  let lo = Leaf.key t.region right ~slot:0 in
  (right, Nvm.Region.hi32 t.region, lo)

(* Split a full internal node; returns the new right sibling and the
   separator pushed up. The caller has already logged [node]. *)
let split_internal t node ~layer =
  let region = t.region in
  let n = Internal.width in
  let mid = n / 2 in
  let up_lo = Internal.key region node ~i:mid in
  let up_hi = Nvm.Region.hi32 region in
  let right = Internal.create t.alloc region ~layer in
  for i = mid + 1 to n - 1 do
    let lo = Internal.key region node ~i in
    Internal.set_key region right ~i:(i - mid - 1) ~hi:(Nvm.Region.hi32 region) ~lo
  done;
  for i = mid + 1 to n do
    Internal.set_child region right ~i:(i - mid - 1)
      (Internal.child region node ~i)
  done;
  Internal.set_nkeys region right (n - mid - 1);
  Internal.set_nkeys region node mid;
  (right, up_hi, up_lo)

(* Unsigned order of two slices given by their halves. *)
let compare_halves h1 l1 h2 l2 =
  if h1 <> h2 then compare (h1 : int) h2 else compare (l1 : int) l2

let rec insert_into_parent t rr ~layer stack ~left ~hi ~lo ~right =
  match stack with
  | [] ->
      let nroot = Internal.create t.alloc t.region ~layer in
      Internal.set_child t.region nroot ~i:0 left;
      Internal.set_key t.region nroot ~i:0 ~hi ~lo;
      Internal.set_child t.region nroot ~i:1 right;
      Internal.set_nkeys t.region nroot 1;
      set_root t rr nroot;
      incr t.c_root_splits
  | (node, _) :: rest ->
      if Internal.is_full t.region node then begin
        let right2, up_hi, up_lo = split_internal t node ~layer in
        let target =
          if compare_halves hi lo up_hi up_lo >= 0 then right2 else node
        in
        let at = Internal.search_child t.region target ~hi ~lo in
        Internal.insert_separator t.region target ~at ~hi ~lo ~right;
        insert_into_parent t rr ~layer rest ~left:node ~hi:up_hi ~lo:up_lo
          ~right:right2
      end
      else begin
        let at = Internal.search_child t.region node ~hi ~lo in
        Internal.insert_separator t.region node ~at ~hi ~lo ~right
      end

(* Insert a fresh entry for the slice [hi]/[lo] at [rank] of [leaf] (the
   leaf of the last descent). [make_v] runs after all hooks so its
   allocation belongs to the epoch that the modification lands in. *)
let insert_entry t rr ~layer leaf rank ~hi ~lo ~klen ~make_v =
  let write_at target rank =
    let v = make_v () in
    let p = Leaf.perm t.region target in
    let p', slot = Permutation.insert p ~rank in
    Leaf.set_key t.region target ~slot ~hi ~lo;
    Leaf.set_keylen t.region target ~slot klen;
    Leaf.set_value t.region target ~slot v;
    (* Activation last: the entry becomes visible in one permutation
       store (Listing 1's ordering concern is InCLLp's job, §4.1.2). *)
    Leaf.set_perm t.region target p'
  in
  if not (Permutation.is_full (Leaf.perm t.region leaf)) then begin
    t.hooks.Hooks.pre_leaf_insert ~leaf;
    write_at leaf rank
  end
  else begin
    let stack = stack t in
    t.hooks.Hooks.pre_structural (structural_log_list t rr stack leaf);
    let right, sep_hi, sep_lo = split_leaf t leaf ~layer in
    insert_into_parent t rr ~layer stack ~left:leaf ~hi:sep_hi ~lo:sep_lo
      ~right;
    let target =
      if compare_halves hi lo sep_hi sep_lo >= 0 then right else leaf
    in
    t.hooks.Hooks.pre_leaf_insert ~leaf:target;
    let r = Leaf.find t.region target ~hi ~lo ~keylen:klen in
    assert (r < 0);
    write_at target (lnot r)
  end

(* --- point operations --------------------------------------------------- *)

let slot_of_rank t leaf rank =
  Permutation.slot_at_rank (Leaf.perm t.region leaf) rank

let rec put_rec t rr root ~key ~layer ~value =
  let hi = Key.slice_hi key ~layer and lo = Key.slice_lo key ~layer in
  let leaf = descend t root ~hi ~lo in
  t.hooks.Hooks.on_leaf_access ~leaf;
  if not (Key.has_suffix key ~layer) then begin
    let klen = Key.slice_len key ~layer in
    let r = Leaf.find t.region leaf ~hi ~lo ~keylen:klen in
    if r >= 0 then begin
      let slot = slot_of_rank t leaf r in
      t.hooks.Hooks.pre_leaf_update ~leaf ~slot;
      let old_buf = Leaf.value t.region leaf ~slot in
      let new_buf = write_value t value in
      Leaf.set_value t.region leaf ~slot new_buf;
      t.alloc.Alloc.Api.dealloc old_buf;
      incr t.c_updates
    end
    else begin
      insert_entry t rr ~layer leaf (lnot r) ~hi ~lo ~klen
        ~make_v:(fun () -> write_value t value)
    end
  end
  else begin
    let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.layer_link_len in
    if r >= 0 then begin
      let slot = slot_of_rank t leaf r in
      let subroot = Leaf.value t.region leaf ~slot in
      put_rec t (Val_slot { leaf; slot }) subroot ~key ~layer:(layer + 1)
        ~value
    end
    else begin
      let suff = Key.suffix key ~layer in
      let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.suffix_len_marker in
      if r >= 0 then begin
        let slot = slot_of_rank t leaf r in
        let buf = Leaf.value t.region leaf ~slot in
        let stored = read_suffix t buf in
        if stored = suff then begin
          (* Same long key: an ordinary value update. *)
          t.hooks.Hooks.pre_leaf_update ~leaf ~slot;
          let new_buf = write_suffix_value t ~suffix:suff ~value in
          Leaf.set_value t.region leaf ~slot new_buf;
          t.alloc.Alloc.Api.dealloc buf;
          incr t.c_updates
        end
        else begin
          (* Two long keys share the slice: convert the suffix entry
             into a nested layer holding both. Changing keylen and
             the value pointer of a live entry is a structural
             modification — log the whole leaf (§4.2). *)
          t.hooks.Hooks.pre_structural [ (leaf, Leaf.node_bytes) ];
          let sub =
            Leaf.create t.alloc t.region ~layer:(layer + 1)
              ~epoch:(t.current_epoch ())
          in
          Leaf.set_keylen t.region leaf ~slot Key.layer_link_len;
          Leaf.set_value t.region leaf ~slot sub;
          incr t.c_layer_creations;
          let old_value = read_suffix_value t buf in
          (* Re-insert the displaced key: only its bytes past this
             layer matter, so a zero-padded synthetic prefix works. *)
          let synth = String.make (8 * (layer + 1)) '\000' ^ stored in
          put_rec t (Val_slot { leaf; slot }) sub ~key:synth
            ~layer:(layer + 1) ~value:old_value;
          t.alloc.Alloc.Api.dealloc buf;
          let subroot = Leaf.value t.region leaf ~slot in
          put_rec t (Val_slot { leaf; slot }) subroot ~key
            ~layer:(layer + 1) ~value
        end
      end
      else begin
        insert_entry t rr ~layer leaf (lnot r) ~hi ~lo
          ~klen:Key.suffix_len_marker
          ~make_v:(fun () -> write_suffix_value t ~suffix:suff ~value)
      end
    end
  end

let put t ~key ~value =
  put_rec t Top t.root ~key ~layer:0 ~value

let rec get_rec t root ~key ~layer =
  let hi = Key.slice_hi key ~layer and lo = Key.slice_lo key ~layer in
  let leaf = leaf_for t root ~hi ~lo in
  t.hooks.Hooks.on_leaf_access ~leaf;
  if not (Key.has_suffix key ~layer) then begin
    let r =
      Leaf.find t.region leaf ~hi ~lo ~keylen:(Key.slice_len key ~layer)
    in
    if r < 0 then None
    else Some (read_value t (Leaf.value t.region leaf ~slot:(slot_of_rank t leaf r)))
  end
  else begin
    let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.layer_link_len in
    if r >= 0 then
      get_rec t (Leaf.value t.region leaf ~slot:(slot_of_rank t leaf r)) ~key
        ~layer:(layer + 1)
    else begin
      let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.suffix_len_marker in
      if r < 0 then None
      else begin
        let buf = Leaf.value t.region leaf ~slot:(slot_of_rank t leaf r) in
        if read_suffix t buf = Key.suffix key ~layer then
          Some (read_suffix_value t buf)
        else None
      end
    end
  end

let get t ~key =
  get_rec t t.root ~key ~layer:0

let mem t ~key = Option.is_some (get t ~key)

(* Unlink an empty leaf from its layer (it has a parent — a layer-root
   leaf is never unlinked): splice it out of the sibling chain and drop it
   from its parent. A parent left with a single child is replaced by that
   child in the grandparent (or becomes the layer root). All pre-existing
   nodes that change are externally logged first; the leaf itself is
   logged too, so its rollback image is complete, and its chunk goes to
   the allocator's limbo list (resurrected if the epoch fails). *)
let remove_empty_leaf t rr stack leaf =
  let region = t.region in
  let prev = Leaf.prev region leaf and next = Leaf.next region leaf in
  let parent, pidx, rest =
    match stack with
    | (p, i) :: rest -> (p, i, rest)
    | [] -> invalid_arg "remove_empty_leaf: layer root"
  in
  let splice = Internal.nkeys region parent = 1 in
  let log = ref [ (leaf, Leaf.node_bytes); (parent, Internal.node_bytes) ] in
  if prev <> 0 then log := (prev, Leaf.node_bytes) :: !log;
  if next <> 0 then log := (next, Leaf.node_bytes) :: !log;
  if splice then
    (match rest with
    | (gp, _) :: _ -> log := (gp, Internal.node_bytes) :: !log
    | [] ->
        log :=
          (match rr with
          | Top -> (Nvm.Layout.off_root, Nvm.Config.line_size)
          | Val_slot { leaf = pl; _ } -> (pl, Leaf.node_bytes))
          :: !log);
  t.hooks.Hooks.pre_structural !log;
  if prev <> 0 then Leaf.set_next region prev next;
  if next <> 0 then Leaf.set_prev region next prev;
  if splice then begin
    (* The parent had two children; the survivor takes its place. *)
    let keep = Internal.child region parent ~i:(1 - pidx) in
    (match rest with
    | (gp, gidx) :: _ -> Internal.set_child region gp ~i:gidx keep
    | [] ->
        set_root t rr keep;
        incr t.c_root_collapses);
    t.alloc.Alloc.Api.dealloc parent;
    incr t.c_internal_splices
  end
  else Internal.remove_child region parent ~i:pidx;
  t.alloc.Alloc.Api.dealloc leaf;
  incr t.c_leaf_removals

(* Remove the entry at [rank]. Returns the entry's value pointer (the
   caller deallocates it — a value buffer or a pruned layer root). *)
let remove_entry t rr stack leaf rank =
  let region = t.region in
  let p = Leaf.perm region leaf in
  let slot = Permutation.slot_at_rank p rank in
  let v = Leaf.value region leaf ~slot in
  if Permutation.count p > 1 || stack = [] then begin
    t.hooks.Hooks.pre_leaf_remove ~leaf;
    let p2, _ = Permutation.remove (Leaf.perm region leaf) ~rank in
    Leaf.set_perm region leaf p2
  end
  else remove_empty_leaf t rr stack leaf;
  v

let rec remove_rec t rr root ~key ~layer =
  let hi = Key.slice_hi key ~layer and lo = Key.slice_lo key ~layer in
  let leaf = descend t root ~hi ~lo in
  (* A nested layer's descent reuses [t.path]: keep this layer's
     ancestors for the link pruning below. *)
  let stack = stack t in
  t.hooks.Hooks.on_leaf_access ~leaf;
  if not (Key.has_suffix key ~layer) then begin
    let r =
      Leaf.find t.region leaf ~hi ~lo ~keylen:(Key.slice_len key ~layer)
    in
    r >= 0
    && begin
         let old_buf = remove_entry t rr stack leaf r in
         t.alloc.Alloc.Api.dealloc old_buf;
         true
       end
  end
  else begin
    let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.layer_link_len in
    if r >= 0 then begin
      let slot = slot_of_rank t leaf r in
      let sub = Leaf.value t.region leaf ~slot in
      let removed =
        remove_rec t (Val_slot { leaf; slot }) sub ~key ~layer:(layer + 1)
      in
      (if removed then begin
         (* If the nested layer collapsed to an empty leaf, prune the
            link entry (which may in turn empty this leaf, recursively
            up through the layers as each frame returns). *)
         let sub2 = Leaf.value t.region leaf ~slot in
         if
           Leaf.is_leaf_node t.region sub2
           && Leaf.entry_count t.region sub2 = 0
         then begin
           ignore (remove_entry t rr stack leaf r : int);
           t.alloc.Alloc.Api.dealloc sub2;
           incr t.c_layer_prunes
         end
       end);
      removed
    end
    else begin
      let r = Leaf.find t.region leaf ~hi ~lo ~keylen:Key.suffix_len_marker in
      r >= 0
      &&
      let buf = Leaf.value t.region leaf ~slot:(slot_of_rank t leaf r) in
      read_suffix t buf = Key.suffix key ~layer
      && begin
           ignore (remove_entry t rr stack leaf r : int);
           t.alloc.Alloc.Api.dealloc buf;
           true
         end
    end
  end

let remove t ~key =
  remove_rec t Top t.root ~key ~layer:0

(* --- range scans -------------------------------------------------------- *)

(* [local_start]: the residual start key, expressed relative to this
   layer (i.e. with the covering 8-byte prefixes stripped). [left]: the
   pairs the caller still wants, which [f] counts down; it only bounds
   the host hints. Returns false when [f] asked to stop. *)
let rec scan_layer t root ~prefix ~local_start ~left ~f =
  let region = t.region in
  let start_hi, start_lo, target_klen =
    match local_start with
    | None -> (0, 0, 0)
    | Some k ->
        ( Key.slice_hi k ~layer:0,
          Key.slice_lo k ~layer:0,
          (* Between 8 (a full terminal) and 15 (a link), so a key that
             continues past this layer skips the exact-8 terminal. *)
          if Key.has_suffix k ~layer:0 then 9 else Key.slice_len k ~layer:0 )
  in
  let leaf0 = leaf_for t root ~hi:start_hi ~lo:start_lo in
  let rec entries leaf rank n p =
    if rank >= n then
      let nx = Leaf.next region leaf in
      if nx = 0 then true else visit_leaf nx 0
    else begin
      let slot = Permutation.slot_at_rank p rank in
      let lo = Leaf.key region leaf ~slot in
      let hi = Nvm.Region.hi32 region in
      let kl = Leaf.keylen region leaf ~slot in
      let keep_going =
        if kl = Key.layer_link_len then begin
          let sub_start =
            match local_start with
            | Some k
              when hi = start_hi && lo = start_lo && Key.has_suffix k ~layer:0
              ->
                Some (Key.suffix k ~layer:0)
            | _ -> None
          in
          scan_layer t
            (Leaf.value region leaf ~slot)
            ~prefix:(Key.of_slice ~prefix ~hi ~lo ~len:8)
            ~local_start:sub_start ~left ~f
        end
        else if kl = Key.suffix_len_marker then begin
          let buf = Leaf.value region leaf ~slot in
          let full_key =
            Key.of_slice ~prefix ~hi ~lo ~len:8 ^ read_suffix t buf
          in
          (* The rank-space start position cannot order against inline
             suffixes; filter here instead. *)
          let within =
            match local_start with
            | None -> true
            | Some k -> full_key >= prefix ^ k
          in
          (not within) || f full_key (read_suffix_value t buf)
        end
        else
          f
            (Key.of_slice ~prefix ~hi ~lo ~len:kl)
            (read_value t (Leaf.value region leaf ~slot))
      in
      keep_going && entries leaf (rank + 1) n p
    end
  and visit_leaf leaf from_rank =
    t.hooks.Hooks.on_leaf_access ~leaf;
    let p = Leaf.perm region leaf in
    enter leaf from_rank p
  (* Before the entries are read, hint the host to load what the scan
     reaches through the value words of the ranks it visits (value and
     suffix buffers, layer roots), and the next leaf, so those misses
     overlap instead of queueing. Each target gets its line and the next:
     in a standalone scan benchmark that measured faster per pair than
     the target's line alone, which was slower than no value hints
     (EXPERIMENTS.md). Only the ranks the caller still wants are hinted,
     and the next leaf only when the scan will reach it. *)
  and enter leaf from_rank p =
    let n = Permutation.count p in
    let past_leaf = !left > n - from_rank in
    let words = Permutation.slots_from_rank p ~rank:from_rank in
    let words =
      if past_leaf then words
      else
        words land lnot (Permutation.slots_from_rank p ~rank:(from_rank + !left))
    in
    Nvm.Region.prefetch_deref region (leaf + Leaf.val_off 0) ~words ~lines:2;
    if past_leaf then
      Nvm.Region.prefetch_deref region (leaf + Leaf.off_next) ~words:1
        ~lines:node_lines;
    entries leaf from_rank n p
  in
  t.hooks.Hooks.on_leaf_access ~leaf:leaf0;
  let p = Leaf.perm region leaf0 in
  let r = Leaf.find region leaf0 ~hi:start_hi ~lo:start_lo ~keylen:target_klen in
  enter leaf0 (if r >= 0 then r else lnot r) p

let fold_from t ~start ~f =
  ignore
    (scan_layer t t.root ~prefix:"" ~local_start:(Some start)
       ~left:(ref max_int) ~f)

let scan t ~start ~n =
  if n <= 0 then []
  else begin
    let acc = ref [] in
    let left = ref n in
    ignore
      (scan_layer t t.root ~prefix:"" ~local_start:(Some start) ~left
         ~f:(fun k v ->
           acc := (k, v) :: !acc;
           decr left;
           !left > 0));
    List.rev !acc
  end

let iter t f =
  fold_from t ~start:"" ~f:(fun k v ->
      f k v;
      true)

let cardinal t =
  let n = ref 0 in
  (* Count without materialising values. *)
  let rec count_layer root =
    let leaf0 = leaf_for t root ~hi:0 ~lo:0 in
    let rec walk leaf =
      if leaf <> 0 then begin
        t.hooks.Hooks.on_leaf_access ~leaf;
        let p = Leaf.perm t.region leaf in
        for r = 0 to Permutation.count p - 1 do
          let slot = Permutation.slot_at_rank p r in
          if Leaf.keylen t.region leaf ~slot = Key.layer_link_len then
            count_layer (Leaf.value t.region leaf ~slot)
          else incr n
        done;
        walk (Leaf.next t.region leaf)
      end
    in
    walk leaf0
  in
  count_layer t.root;
  !n

(* --- structure validation and whole-tree walks -------------------------- *)

let iter_nodes t ~leaf ~internal =
  let rec node n =
    if Leaf.is_leaf_node t.region n then begin
      leaf n;
      let p = Leaf.perm t.region n in
      for r = 0 to Permutation.count p - 1 do
        let slot = Permutation.slot_at_rank p r in
        if Leaf.keylen t.region n ~slot = Key.layer_link_len then
          node (Leaf.value t.region n ~slot)
      done
    end
    else begin
      internal n;
      for i = 0 to Internal.nkeys t.region n do
        node (Internal.child t.region n ~i)
      done
    end
  in
  node t.root

let validate t =
  let region = t.region in
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Packed slices: validation is off the op path. *)
  let leaf_key n ~slot =
    let lo = Leaf.key region n ~slot in
    Key.of_halves ~hi:(Nvm.Region.hi32 region) ~lo
  in
  let sep n ~i =
    let lo = Internal.key region n ~i in
    Key.of_halves ~hi:(Nvm.Region.hi32 region) ~lo
  in
  (* Returns the in-order list of leaves of one layer's B+ tree. *)
  let rec check_layer root ~depth =
    let leaves = ref [] in
    let rec node n ~lo ~hi =
      if n = 0 then fail "validate: null node pointer"
      else if Leaf.is_leaf_node region n then begin
        (* Behave like any reader: let lazy recovery restore the leaf
           before its contents are judged. *)
        t.hooks.Hooks.on_leaf_access ~leaf:n;
        if Leaf.layer region n <> depth then
          fail "validate: leaf %d has layer %d, expected %d" n
            (Leaf.layer region n) depth;
        let p = Leaf.perm region n in
        if not (Permutation.is_valid p) then
          fail "validate: leaf %d has corrupt permutation" n;
        let c = Permutation.count p in
        for r = 0 to c - 1 do
          let slot = Permutation.slot_at_rank p r in
          let s = leaf_key n ~slot in
          let kl = Leaf.keylen region n ~slot in
          if kl > 8 && kl <> Key.layer_link_len && kl <> Key.suffix_len_marker
          then fail "validate: leaf %d slot %d has keylen %d" n slot kl;
          (match lo with
          | Some l when Key.compare_slices s l < 0 ->
              fail "validate: leaf %d entry below lower bound" n
          | _ -> ());
          (match hi with
          | Some h when Key.compare_slices s h >= 0 ->
              fail "validate: leaf %d entry above upper bound" n
          | _ -> ());
          if r > 0 then begin
            let ps = Permutation.slot_at_rank p (r - 1) in
            if
              Key.compare_entry (leaf_key n ~slot:ps)
                (Leaf.keylen region n ~slot:ps)
                s kl
              >= 0
            then fail "validate: leaf %d not strictly sorted at rank %d" n r
          end;
          if kl = Key.layer_link_len then
            check_layer (Leaf.value region n ~slot) ~depth:(depth + 1)
        done;
        leaves := n :: !leaves
      end
      else begin
        if Internal.layer region n <> depth then
          fail "validate: internal %d has wrong layer" n;
        let k = Internal.nkeys region n in
        if k < 1 || k > Internal.width then
          fail "validate: internal %d has %d keys" n k;
        for i = 0 to k - 1 do
          if i > 0 then begin
            if
              Key.compare_slices
                (sep n ~i:(i - 1))
                (sep n ~i)
              >= 0
            then fail "validate: internal %d keys not ascending" n
          end;
          (match lo with
          | Some l when Key.compare_slices (sep n ~i) l < 0 ->
              fail "validate: internal %d key below bound" n
          | _ -> ());
          (match hi with
          | Some h when Key.compare_slices (sep n ~i) h > 0 ->
              fail "validate: internal %d key above bound" n
          | _ -> ())
        done;
        for i = 0 to k do
          let lo' = if i = 0 then lo else Some (sep n ~i:(i - 1)) in
          let hi' = if i = k then hi else Some (sep n ~i) in
          node (Internal.child region n ~i) ~lo:lo' ~hi:hi'
        done
      end
    in
    node root ~lo:None ~hi:None;
    (* The doubly-linked leaf chain must equal the in-order sequence, and
       only a layer's root leaf may be empty (emptied leaves are
       unlinked). *)
    let ordered = List.rev !leaves in
    (match ordered with
    | [] -> fail "validate: layer with no leaves"
    | first :: _ ->
        if List.length ordered > 1 then
          List.iter
            (fun l ->
              if Permutation.count (Leaf.perm region l) = 0 then
                fail "validate: empty non-root leaf %d survived" l)
            ordered;
        if Leaf.prev region first <> 0 then
          fail "validate: first leaf has a prev pointer";
        let rec follow2 chain prevl expect =
          match (chain, expect) with
          | 0, [] -> ()
          | 0, _ :: _ -> fail "validate: leaf chain ends early"
          | n, [] -> fail "validate: leaf chain has extra node %d" n
          | n, e :: rest ->
              if n <> e then fail "validate: leaf chain order mismatch";
              if Leaf.prev region n <> prevl then
                fail "validate: leaf %d has wrong prev pointer" n;
              follow2 (Leaf.next region n) n rest
        in
        follow2 first 0 ordered)
  in
  check_layer t.root ~depth:0
