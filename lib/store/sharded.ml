(* A transaction buffers its writes until commit (last-write-wins), so
   abort never touches a tree. *)
type txn_state = { id : int; mutable writes : (string * string option) list }

type t = {
  mutable shards : Incll.System.t array;
  mutable active_txn : txn_state option;
  mutable next_txn_id : int;
}

let create ?config variant ~shards =
  if shards <= 0 then invalid_arg "Sharded.create";
  {
    shards = Array.init shards (fun _ -> Incll.System.create ?config variant);
    active_txn = None;
    next_txn_id = 1;
  }

(* The coordinator-watermark rule, in one place: an in-doubt PREPARE
   committed iff its coordinator shard's durable watermark covers its
   txn id. Regions persist across recovery and the watermark word is
   fenced at commit, so the probe is valid even for shards not yet
   re-attached. *)
let txn_probe regions ~coordinator ~txn_id =
  coordinator >= 0
  && coordinator < Array.length regions
  && txn_id <= Incll.Txn.watermark regions.(coordinator)

(* Ids must stay above every committed id on any shard, or a reused id
   would make a later in-doubt probe report a stale commit. *)
let next_id_above regions ~floor =
  1 + Array.fold_left (fun a r -> max a (Incll.Txn.watermark r)) floor regions

let attach ?config variant regions =
  if Array.length regions = 0 then invalid_arg "Sharded.attach";
  let txn_probe = txn_probe regions in
  {
    shards = Array.map (Incll.System.attach ~txn_probe ?config variant) regions;
    active_txn = None;
    next_txn_id = next_id_above regions ~floor:0;
  }

(* Images [0, shards) and no more, or none. Mirrors are attached before
   recovery, which then persists through them. *)
let open_images ?(config = Incll.System.default_config) variant ~shards ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path i = Filename.concat dir (Printf.sprintf "shard%d.img" i) in
  let ids = List.init (shards + 1) Fun.id in
  let mirror i r = Nvm.Image.attach r ~path:(path i) in
  match List.partition (fun i -> Sys.file_exists (path i)) ids with
  | [], _ ->
      let t = create ~config variant ~shards in
      Array.iteri (fun i s -> mirror i (Incll.System.region s)) t.shards;
      (t, false)
  | _, [ n ] when n = shards ->
      let load i = Nvm.Image.load config.nvm ~path:(path i) in
      let regions = Array.init shards load in
      Array.iteri mirror regions;
      (attach ~config variant regions, true)
  | found, missing ->
      let i = if List.mem shards found then shards else List.hd missing in
      failwith
        (Printf.sprintf "%s: %s, but the store has %d shard(s)" (path i)
           (if i = shards then "present" else "missing") shards)

let nshards t = Array.length t.shards
let shard t i = t.shards.(i)

(* Monotone map from the first key slice to a shard index: multiply the
   top 32 bits by the shard count. *)
let shard_of_key t key =
  let n = Array.length t.shards in
  if n = 1 then 0
  else begin
    (Masstree.Key.slice_hi key ~layer:0 * n) lsr 32
  end

let put t ~key ~value =
  Incll.System.put t.shards.(shard_of_key t key) ~key ~value

let get t ~key = Incll.System.get t.shards.(shard_of_key t key) ~key
let remove t ~key = Incll.System.remove t.shards.(shard_of_key t key) ~key

(* [List.rev_append] that also returns how many elements it moved, so
   each shard hop costs one traversal of its partial result instead of a
   rev_append plus a separate [List.length]. *)
let rec rev_append_count part acc k =
  match part with
  | [] -> (acc, k)
  | x :: tl -> rev_append_count tl (x :: acc) (k + 1)

let scan t ~start ~n =
  let rec gather i start acc need =
    if need <= 0 || i >= Array.length t.shards then List.rev acc
    else begin
      let part = Incll.System.scan t.shards.(i) ~start ~n:need in
      let acc, got = rev_append_count part acc 0 in
      gather (i + 1) "" acc (need - got)
    end
  in
  gather (shard_of_key t start) start [] n

(* {1 Cross-shard transactions: two-phase commit}

   Every participating shard gets a fenced PREPARE record carrying its
   slice of the write set; the lowest participating shard index is the
   coordinator, and durably advancing the coordinator's txn watermark is
   the single store-atomic commit point for the whole store. The store
   is sequential, so nothing advances any shard's epoch inside the
   commit window: log headroom is reserved on every participant before
   the first PREPARE, and the writes are applied through the trees
   directly. A shard that crashes with a surviving PREPARE resolves it
   at recovery by probing the coordinator shard's watermark. *)

let txn_active t = Option.is_some t.active_txn
let txn_id t = Option.map (fun txn -> txn.id) t.active_txn

let txn_begin t =
  if txn_active t then failwith "Sharded.txn_begin: transaction already active";
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  t.active_txn <- Some { id; writes = [] }

let active_exn t what =
  match t.active_txn with
  | Some txn -> txn
  | None -> failwith (what ^ ": no active transaction")

let txn_put t ~key ~value =
  let txn = active_exn t "Sharded.txn_put" in
  txn.writes <- (key, Some value) :: txn.writes

let txn_remove t ~key =
  let txn = active_exn t "Sharded.txn_remove" in
  txn.writes <- (key, None) :: txn.writes

let txn_get t ~key =
  let txn = active_exn t "Sharded.txn_get" in
  match List.assoc_opt key txn.writes with
  | Some v -> v
  | None -> get t ~key

let txn_abort t =
  ignore (active_exn t "Sharded.txn_abort" : txn_state);
  t.active_txn <- None

(* Last-write-wins flattening, preserving first-write order. *)
let flatten_writes writes =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (key, value) ->
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.add seen key ();
        { Incll.Txn.key; value } :: acc
      end)
    [] writes

let shard_ctx s =
  match Incll.System.ctx s with
  | Some ctx -> ctx
  | None -> failwith "Sharded.txn_commit: variant has no logging context"

let txn_commit t =
  let txn = active_exn t "Sharded.txn_commit" in
  t.active_txn <- None;
  let writes = flatten_writes txn.writes in
  if writes <> [] then begin
    let n = Array.length t.shards in
    let groups = Array.make n [] in
    List.iter
      (fun w ->
        let s = shard_of_key t w.Incll.Txn.key in
        groups.(s) <- w :: groups.(s))
      (List.rev writes);
    (* [writes] is oldest-first; the double reversal keeps each group
       oldest-first too. *)
    let participants = ref [] in
    for s = n - 1 downto 0 do
      if groups.(s) <> [] then participants := s :: !participants
    done;
    let participants = !participants in
    let coordinator = List.hd participants in
    (* Reserve on every participant before any record lands, so no
       checkpoint can truncate an already-appended PREPARE. *)
    List.iter
      (fun s ->
        let bytes =
          Incll.Txn.prepare_bytes ~coordinator ~writes:groups.(s)
          + if s = coordinator then Incll.Txn.commit_bytes ~participants
            else 0
        in
        Incll.Txn.reserve (shard_ctx t.shards.(s)) ~bytes)
      participants;
    List.iter
      (fun s ->
        Incll.Txn.append_prepare (shard_ctx t.shards.(s)) ~txn_id:txn.id
          ~coordinator ~writes:groups.(s))
      participants;
    (* The commit point: one fenced store on the coordinator. *)
    Incll.Txn.advance_watermark
      (Incll.System.region t.shards.(coordinator))
      ~txn_id:txn.id;
    (* Informational marker (post-mortem diagnostics; recovery decides
       by watermark alone). *)
    Incll.Txn.append_commit_marker
      (shard_ctx t.shards.(coordinator))
      ~txn_id:txn.id ~participants;
    List.iter
      (fun s ->
        Incll.Txn.apply_committed
          (shard_ctx t.shards.(s))
          (Incll.System.tree t.shards.(s))
          ~txn_id:txn.id ~coordinator groups.(s))
      participants;
    (* The usual per-op epoch cadence, now that the commit window is
       closed: each participant may checkpoint if its epoch is due. *)
    List.iter
      (fun s ->
        match Incll.System.epoch_manager t.shards.(s) with
        | Some em -> ignore (Epoch.Manager.maybe_advance em : bool)
        | None -> ())
      participants
  end

let advance_epochs t = Array.iter Incll.System.advance_epoch t.shards
let crash t rng = Array.iter (fun s -> Incll.System.crash s rng) t.shards

(* Merge the shards' per-phase breakdowns of their last recovery: sum
   durations per phase, phase order taken from first appearance (shards
   recover through the same procedure, so that is the procedure order). *)
let merged_phases t field =
  let totals = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun s ->
      match Incll.System.last_recover_stats s with
      | Some st ->
          List.iter
            (fun (name, d) ->
              if not (Hashtbl.mem totals name) then order := name :: !order;
              Hashtbl.replace totals name
                (d +. try Hashtbl.find totals name with Not_found -> 0.0))
            (field st)
      | None -> ())
    t.shards;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

(* In place: [shards] is mutable, so the old `{t with shards = ...}` copy
   left any alias of [t] still pointing at the pre-recovery shard array. *)
let recover t =
  let regions = Array.map Incll.System.region t.shards in
  let txn_probe = txn_probe regions in
  t.shards <- Array.map (Incll.System.recover ~txn_probe) t.shards;
  t.active_txn <- None;
  t.next_txn_id <- next_id_above regions ~floor:(t.next_txn_id - 1);
  merged_phases t (fun st -> st.Incll.System.phases)

let last_recover_wall_phases t =
  merged_phases t (fun st -> st.Incll.System.wall_phases)

let metrics t =
  Obs.Registry.merged
    (Array.to_list (Array.map Incll.System.metrics t.shards))

let cardinal t =
  Array.fold_left
    (fun a s -> a + Masstree.Tree.cardinal (Incll.System.tree s))
    0 t.shards
