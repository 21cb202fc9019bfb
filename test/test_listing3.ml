(* Table-driven verification of Listing 3's decision procedure: for every
   reachable (epoch relation × logged × insAllowed × InCLL occupancy × op)
   combination, the hook must pick exactly the action the paper specifies —
   nothing (covered), in-line logging (free), or the external log. States
   are installed by writing the leaf's words directly (white-box), then a
   single hook call is observed through the event counters. *)

module L = Masstree.Leaf
module V = Masstree.Val_incll
module Sys_ = Incll.System

let check_int = Alcotest.(check int)

type epoch_rel = Same | Prev | Prev_window  (* same epoch / e-1 / e-2^16 *)
type action = Nothing | Incll_write | Ext_log

let action_name = function
  | Nothing -> "nothing"
  | Incll_write -> "incll"
  | Ext_log -> "extlog"

let cfg =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 1024 * 1024;
      };
    epoch_len_ns = 1.0e15;
  }

(* Build a system whose current epoch is large enough that e - 2^16 is
   still a valid epoch number. *)
let mk_system () =
  let s = Sys_.create ~config:cfg Sys_.Incll in
  for i = 0 to 199 do
    Sys_.put s ~key:(Masstree.Key.of_int64 (Util.Scramble.key_of_rank i))
      ~value:"12345678"
  done;
  (match Sys_.epoch_manager s with
  | Some em ->
      let target = Epoch.Manager.current em + 65_600 in
      while Epoch.Manager.current em < target do
        Epoch.Manager.advance em
      done
  | None -> assert false);
  s

(* One prepared system is reused across cases (building one costs 65k
   checkpoints); each case picks a fresh leaf so states don't interact. *)
let shared = lazy (mk_system ())

let fresh_leaf s =
  let region = Sys_.region s in
  let em = Option.get (Sys_.epoch_manager s) in
  (* A private leaf, not linked into the tree: the hooks only look at the
     node itself. *)
  let dalloc = Option.get (Sys_.durable_alloc s) in
  let leaf =
    L.create (Alloc.Api.of_durable dalloc) region ~layer:0
      ~epoch:(Epoch.Manager.current em)
  in
  (* Give slots 2 and 9 (one per value line) plausible entries. *)
  let p = ref Masstree.Permutation.empty in
  for _ = 1 to 10 do
    p := fst (Masstree.Permutation.insert !p ~rank:0)
  done;
  L.set_perm region leaf !p;
  for slot = 0 to 9 do
    L.set_key region leaf ~slot ~hi:0 ~lo:(100 + slot);
    L.set_keylen region leaf ~slot 8;
    L.set_value region leaf ~slot (Alloc.Durable.alloc dalloc ~size:32)
  done;
  leaf

let install_state s leaf ~rel ~logged ~ins_allowed ~incll1_idx =
  let region = Sys_.region s in
  let em = Option.get (Sys_.epoch_manager s) in
  let g = Epoch.Manager.current em in
  let e =
    match rel with Same -> g | Prev -> g - 1 | Prev_window -> g - 65_536
  in
  L.set_epoch_word region leaf ~epoch:e ~ins_allowed ~logged;
  L.set_perm_incll region leaf (L.perm region leaf);
  let low_epoch = Epoch.Manager.lower16 e in
  (match incll1_idx with
  | None -> L.set_incll_invalid region leaf ~which:0 ~low_epoch
  | Some idx ->
      let ptr = L.value region leaf ~slot:idx in
      L.set_incll region leaf ~which:0 ~hi:(V.hi ~ptr ~low_epoch)
        ~lo:(V.lo ~ptr ~idx));
  L.set_incll_invalid region leaf ~which:1 ~low_epoch

(* Observe which action one hook call takes. *)
let observe s (f : Masstree.Hooks.t -> unit) =
  let ctx = Option.get (Sys_.ctx s) in
  let hooks = Incll.Incll_hooks.make ctx in
  let logged0 = Extlog.Log.nodes_logged ctx.Incll.Ctx.log in
  let ft0 = !(ctx.Incll.Ctx.m_first_touch) in
  let vu0 = !(ctx.Incll.Ctx.m_val_use) in
  f hooks;
  let logged1 = Extlog.Log.nodes_logged ctx.Incll.Ctx.log in
  let ft1 = !(ctx.Incll.Ctx.m_first_touch) in
  let vu1 = !(ctx.Incll.Ctx.m_val_use) in
  if logged1 > logged0 then Ext_log
  else if ft1 > ft0 || vu1 > vu0 then Incll_write
  else Nothing

type op = Insert | Remove | Update_slot2 | Update_slot2_again

let run_case ~rel ~logged ~ins_allowed ~incll1_idx ~op ~expect () =
  let s = Lazy.force shared in
  let leaf = fresh_leaf s in
  install_state s leaf ~rel ~logged ~ins_allowed ~incll1_idx;
  let got =
    observe s (fun h ->
        match op with
        | Insert -> h.Masstree.Hooks.pre_leaf_insert ~leaf
        | Remove -> h.Masstree.Hooks.pre_leaf_remove ~leaf
        | Update_slot2 | Update_slot2_again ->
            h.Masstree.Hooks.pre_leaf_update ~leaf ~slot:2)
  in
  Alcotest.(check string)
    (Printf.sprintf "rel=%s logged=%b ins=%b incll1=%s op=%s"
       (match rel with Same -> "same" | Prev -> "prev" | Prev_window -> "window")
       logged ins_allowed
       (match incll1_idx with None -> "-" | Some i -> string_of_int i)
       (match op with
       | Insert -> "insert"
       | Remove -> "remove"
       | Update_slot2 -> "update"
       | Update_slot2_again -> "update-hit"))
    (action_name expect) (action_name got)

(* The decision table. Listing 3 plus §4.1.1/§4.1.3's prose. *)
let cases =
  [
    (* New epoch: first touch always goes to the in-line logs... *)
    (Prev, false, true, None, Insert, Incll_write);
    (Prev, false, false, None, Insert, Incll_write);
    (* (insAllowed is stale from the previous epoch and is reset) *)
    (Prev, true, true, None, Insert, Incll_write);
    (Prev, false, true, None, Remove, Incll_write);
    (Prev, false, true, None, Update_slot2, Incll_write);
    (Prev, true, false, None, Update_slot2, Incll_write);
    (* ...unless 16 bits cannot encode the epoch distance (§4.1.3). *)
    (Prev_window, false, true, None, Insert, Ext_log);
    (Prev_window, false, true, None, Update_slot2, Ext_log);
    (* Same epoch, already covered by InCLLp: inserts and removes free. *)
    (Same, false, true, None, Insert, Nothing);
    (Same, false, true, None, Remove, Nothing);
    (Same, false, false, None, Remove, Nothing);
    (* Same epoch, a delete happened: inserts must externally log. *)
    (Same, false, false, None, Insert, Ext_log);
    (* ...but not if the node is already logged. *)
    (Same, true, false, None, Insert, Nothing);
    (Same, true, false, None, Remove, Nothing);
    (Same, true, false, None, Update_slot2, Nothing);
    (* Same epoch updates: a free InCLL in the slot's line is claimed. *)
    (Same, false, true, None, Update_slot2, Incll_write);
    (* The slot already logged this epoch: free (§4.1.3, skew case). *)
    (Same, false, true, Some 2, Update_slot2_again, Nothing);
    (* The line's InCLL is busy with another slot: external log. *)
    (Same, false, true, Some 5, Update_slot2, Ext_log);
  ]

let tests =
  ( "listing3",
    List.map
      (fun (rel, logged, ins_allowed, incll1_idx, op, expect) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s%s%s -> %s"
             (match rel with
             | Same -> "same-epoch"
             | Prev -> "new-epoch"
             | Prev_window -> "epoch-window")
             (match op with
             | Insert -> "insert"
             | Remove -> "remove"
             | Update_slot2 -> "update"
             | Update_slot2_again -> "update-hit")
             (if logged then "+logged" else "")
             (if ins_allowed then "" else "+del")
             (action_name expect))
          `Quick
          (run_case ~rel ~logged ~ins_allowed ~incll1_idx ~op ~expect))
      cases )
