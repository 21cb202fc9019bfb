module L = Masstree.Leaf
module I = Masstree.Internal
module V = Masstree.Val_incll

(* After externally logging a leaf: stamp it logged-for-this-epoch and
   invalidate its value InCLLs with the current epoch's low bits, so stale
   low-epoch fields can never alias a failed epoch after the higher bits of
   nodeEpoch move (Listing 3 line 15). Reads the epoch *after* logging:
   a full-log retry inside [Ctx.log_node] may have advanced it, and the
   entry it wrote is tagged with the new epoch. *)
let stamp_logged ctx leaf =
  let region = ctx.Ctx.region in
  let g = Ctx.current ctx in
  L.set_epoch_word region leaf ~epoch:g ~ins_allowed:true ~logged:true;
  let low_epoch = Ctx.lower16 g in
  L.set_incll_invalid region leaf ~which:0 ~low_epoch;
  L.set_incll_invalid region leaf ~which:1 ~low_epoch;
  Nvm.Region.release_fence region

let log_leaf ctx leaf =
  Ctx.log_node ctx ~addr:leaf ~size:L.node_bytes;
  stamp_logged ctx leaf

(* Value InCLL [which] logs [ptr], the epoch-start value of [slot]. *)
let set_logged_value region leaf ~which ~slot ~ptr ~low_epoch =
  L.set_incll region leaf ~which ~hi:(V.hi ~ptr ~low_epoch)
    ~lo:(V.lo ~ptr ~idx:slot)

(* The first-touch body of Listing 3: make the node recoverable for this
   epoch. [slot] is the updated slot, whose pre-image goes into its line's
   value InCLL (the other one is left invalid); [-1] for inserts and
   removes, which leave both invalid. *)
let first_touch ctx leaf ~slot =
  let region = ctx.Ctx.region in
  let g = Ctx.current ctx in
  if Ctx.higher g <> Ctx.higher (L.epoch_word region leaf) then begin
    (* 16 bits cannot encode the epoch distance for the value InCLLs:
       fall back on the external log (§4.1.3; ~once an hour). *)
    Ctx.note_fallback ctx Ctx.Epoch_distance ~leaf;
    log_leaf ctx leaf
  end
  else begin
    let low_epoch = Ctx.lower16 g in
    let ptr = if slot < 0 then 0 else L.value region leaf ~slot in
    let mine = if slot < 0 then -1 else L.incll_index slot in
    (* Undo copies first, nodeEpoch second: all in program order, and
       permutationInCLL/nodeEpoch share a cache line, so PCSO turns this
       order into the recovery invariant of §4.1.2. *)
    L.set_perm_incll region leaf (L.perm region leaf);
    for which = 0 to 1 do
      if which = mine then set_logged_value region leaf ~which ~slot ~ptr ~low_epoch
      else L.set_incll_invalid region leaf ~which ~low_epoch
    done;
    Nvm.Region.release_fence region;
    L.set_epoch_word region leaf ~epoch:g ~ins_allowed:true ~logged:false;
    Ctx.note_first_touch ctx ~leaf
  end

let pre_insert ctx ~leaf =
  let region = ctx.Ctx.region in
  let e = L.epoch_word region leaf in
  let logged = L.logged region and ins_allowed = L.ins_allowed region in
  if e <> Ctx.current ctx then first_touch ctx leaf ~slot:(-1)
  else if (not logged) && not ins_allowed then begin
    (* A slot freed by a same-epoch delete could be re-populated,
       destroying the key/value pair a rollback must restore (§4.1.1). *)
    Ctx.note_fallback ctx Ctx.Mixed ~leaf;
    log_leaf ctx leaf
  end

let pre_remove ctx ~leaf =
  let region = ctx.Ctx.region in
  if L.epoch_word region leaf <> Ctx.current ctx then
    first_touch ctx leaf ~slot:(-1);
  (* Deletes always fit in InCLLp, but they forbid later same-epoch
     inserts (Listing 3's remove sets InsAllowed=false). The flag is
     semantically transient (§4.1.2). *)
  let epoch = L.epoch_word region leaf in
  if L.ins_allowed region then
    L.set_epoch_word region leaf ~epoch ~ins_allowed:false
      ~logged:(L.logged region)

let pre_update ctx ~val_incll ~leaf ~slot =
  let region = ctx.Ctx.region in
  if not val_incll then begin
    (* Ablation: InCLLp only — updates always use the external log. *)
    let e = L.epoch_word region leaf in
    if not (L.logged region && e = Ctx.current ctx) then begin
      Ctx.note_fallback ctx Ctx.Update ~leaf;
      log_leaf ctx leaf
    end
  end
  else begin
    let g = Ctx.current ctx in
    let e = L.epoch_word region leaf in
    let logged = L.logged region in
    if e <> g then begin
      (* First touch: log the pre-image of this slot in its line's InCLL
         and leave the other line's InCLL invalid (Listing 3's update). *)
      first_touch ctx leaf ~slot;
      (* first_touch may have chosen the external log instead; only count
         an InCLL use when it did not. *)
      ignore (L.epoch_word region leaf : int);
      if not (L.logged region) then Ctx.note_val_use ctx
    end
    else if logged then ()
    else begin
      let which = L.incll_index slot in
      let idx = V.idx ~lo:(L.incll region leaf ~which) in
      if idx = slot then
        (* The epoch-start value of this slot is already logged; further
           overwrites need nothing (valuable under skew, §4.1.3). *)
        Ctx.note_val_hit ctx
      else if idx = V.invalid_idx then begin
        (* This line's InCLL is still free this epoch: claim it. Same
           cache line as the value slot, so no fence is needed before the
           overwrite. Note: Listing 3's same-epoch arm omits this store
           and would lose the pre-image; §4.1.3's prose ("it is still
           possible to use the unused InCLL") requires it, so we follow
           the prose. *)
        set_logged_value region leaf ~which ~slot
          ~ptr:(L.value region leaf ~slot)
          ~low_epoch:(Ctx.lower16 g);
        Nvm.Region.release_fence region;
        Ctx.note_val_use ctx
      end
      else begin
        (* Two hot slots share the line: external log (§4.1.3). *)
        Ctx.note_fallback ctx Ctx.Update ~leaf;
        log_leaf ctx leaf
      end
    end
  end

(* Structural changes (§4.2): log every pre-existing node that is about to
   be mutated, all within one epoch. If a full log forces a checkpoint
   mid-list, every node logged so far belongs to the old epoch while the
   mutation will run in the new one — restart the whole list. *)
let pre_structural ctx nodes =
  let region = ctx.Ctx.region in
  let rec attempt () =
    let e0 = Ctx.current ctx in
    let log_one (addr, size) =
      if addr = Nvm.Layout.off_root then begin
        if Nvm.Region.read_int region Nvm.Layout.off_root_meta <> e0 then begin
          Ctx.log_node ctx ~addr ~size;
          Nvm.Region.write_int region Nvm.Layout.off_root_meta e0;
          Ctx.note_fallback ctx Ctx.Structural ~leaf:addr
        end
      end
      else if L.is_leaf_node region addr then begin
        (* A structural change can reach a leaf no operation has accessed
           since a crash — the sibling whose link pointer a split or
           collapse rewrites. Roll it back first: logging and stamping it
           below would otherwise launder the crashed epoch's
           un-rolled-back contents into the current epoch, disabling its
           lazy recovery forever. *)
        Recovery.lazy_leaf_recovery ctx ~leaf:addr;
        let e = L.epoch_word region addr in
        if not (L.logged region && e = e0) then begin
          Ctx.log_node ctx ~addr ~size:L.node_bytes;
          stamp_logged ctx addr;
          Ctx.note_fallback ctx Ctx.Structural ~leaf:addr
        end
      end
      else if I.logged_epoch region addr <> e0 then begin
        (* Internal node: a plain logged-epoch word makes the log
           at-most-once per epoch (§4.2). *)
        Ctx.log_node ctx ~addr ~size:I.node_bytes;
        I.set_logged_epoch region addr e0;
        Ctx.note_fallback ctx Ctx.Structural ~leaf:addr
      end
    in
    List.iter log_one nodes;
    if Ctx.current ctx <> e0 then attempt ()
  in
  attempt ()

let make ?(val_incll = true) ctx =
  {
    Masstree.Hooks.on_leaf_access =
      (fun ~leaf -> Recovery.lazy_leaf_recovery ctx ~leaf);
    pre_leaf_insert = (fun ~leaf -> pre_insert ctx ~leaf);
    pre_leaf_remove = (fun ~leaf -> pre_remove ctx ~leaf);
    pre_leaf_update = (fun ~leaf ~slot -> pre_update ctx ~val_incll ~leaf ~slot);
    pre_structural = (fun nodes -> pre_structural ctx nodes);
  }
