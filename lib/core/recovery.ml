module L = Masstree.Leaf
module V = Masstree.Val_incll

(* Value InCLL [which] of a leaf from a failed epoch's run: put the logged
   pre-image back if its full epoch (low bits here, [higher] bits from
   nodeEpoch, Listing 4) failed, then invalidate the word. The restore
   precedes the invalidation in the same line, making a torn recovery
   re-runnable. *)
let restore_value ctx leaf ~higher ~marker which =
  let region = ctx.Ctx.region in
  let lo = L.incll region leaf ~which in
  let hi = Nvm.Region.hi32 region in
  let idx = V.idx ~lo in
  if idx <> V.invalid_idx then begin
    let e = Epoch.Manager.combine ~higher ~lower16:(V.low_epoch ~hi) in
    if Epoch.Manager.is_failed ctx.Ctx.em e then
      L.set_value region leaf ~slot:idx (V.ptr ~hi ~lo)
  end;
  L.set_incll_invalid region leaf ~which ~low_epoch:(Ctx.lower16 marker)

let lazy_leaf_recovery ctx ~leaf =
  let region = ctx.Ctx.region in
  let marker = Epoch.Manager.first_epoch_of_run ctx.Ctx.em in
  let epoch = L.epoch_word region leaf in
  if epoch < marker then begin
    (* InCLLp: the permutation restore shares a line with the re-stamp
       below, so if the stamp persists the restore did too. *)
    if Epoch.Manager.is_failed ctx.Ctx.em epoch then
      L.set_perm region leaf (L.perm_incll region leaf);
    let higher = Ctx.higher epoch in
    restore_value ctx leaf ~higher ~marker 0;
    restore_value ctx leaf ~higher ~marker 1;
    L.set_epoch_word region leaf ~epoch:marker ~ins_allowed:true ~logged:false;
    (* basenode::initlock() — the lock word is transient state that "might
       be in a bad state after crash" (Listing 4). *)
    L.set_version region leaf 0;
    Ctx.note_lazy_recovery ctx
  end

let eager_sweep ctx tree dalloc =
  Masstree.Tree.iter_nodes tree
    ~leaf:(fun n -> lazy_leaf_recovery ctx ~leaf:n)
    ~internal:(fun _ -> ());
  Alloc.Durable.recover_all_chains dalloc
