type variant = Mt | Mt_plus | Logging | Incll

let variant_name = function
  | Mt -> "MT"
  | Mt_plus -> "MT+"
  | Logging -> "LOGGING"
  | Incll -> "INCLL"

let variant_of_string s =
  match String.uppercase_ascii s with
  | "MT" -> Mt
  | "MT+" | "MTPLUS" | "MT_PLUS" -> Mt_plus
  | "LOGGING" | "LOG" -> Logging
  | "INCLL" -> Incll
  | _ -> invalid_arg ("System.variant_of_string: " ^ s)

type config = {
  nvm : Nvm.Config.t;
  epoch_len_ns : float;
  val_incll : bool;
}

let default_config =
  { nvm = Nvm.Config.default; epoch_len_ns = 64.0e6; val_incll = true }

type recover_stats = {
  replayed_entries : int;
  recovery_sim_ns : float;
  recovery_wall_ns : float;
  quarantined_chains : int;
      (* allocator chains found corrupt and unlinked during this recovery *)
  txns_redone : int;  (* committed transactions redone from PREPARE records *)
  txns_aborted : int;  (* in-doubt transactions rolled back *)
  sessions_recovered : int;  (* distinct sessions rebuilt from dedup records *)
  phases : (string * float) list;
      (* ordered (phase, sim ns) breakdown; sums to recovery_sim_ns *)
  wall_phases : (string * float) list;
      (* same phases, wall ns of each body; sums to at most recovery_wall_ns *)
}

(* Session dedup state (DESIGN.md §17): the newest seq recorded for the
   session and its status. The stamp is a logical clock driving LRU
   expiry; entries rebuilt by recovery carry stamp 0, older than any
   live one. *)
type sess_entry = {
  mutable last_seq : int;
  mutable last_status : int;
  mutable stamp : int;
}

(* Bounded retention: sessions idle long enough to be evicted have no
   in-flight op left to deduplicate (the session layer is one-op-at-a-
   time), so expiry only forfeits dedup for clients gone for ages. *)
let sess_cap = 1024

type sessions = {
  tbl : (int, sess_entry) Hashtbl.t;
  mutable clock : int;
}

type t = {
  variant : variant;
  config : config;
  region : Nvm.Region.t;
  em : Epoch.Manager.t option;
  ctx : Ctx.t option;
  dalloc : Alloc.Durable.t option;
  tree : Masstree.Tree.t;
  last_recover_stats : recover_stats option;
  sessions : sessions;  (* volatile: rebuilt from the log by recovery *)
}

let no_sessions () = { tbl = Hashtbl.create 64; clock = 0 }

let variant t = t.variant
let region t = t.region
let metrics t = Nvm.Region.metrics t.region
let tree t = t.tree
let epoch_manager t = t.em
let ctx t = t.ctx
let durable_alloc t = t.dalloc
let last_recover_stats t = t.last_recover_stats

let nodes_logged t =
  Obs.Registry.counter_value (metrics t) "extlog.nodes_logged"

let hooks_for variant config ctx =
  match variant with
  | Mt | Mt_plus -> Masstree.Hooks.transient
  | Logging -> Logging_hooks.make ctx
  | Incll -> Incll_hooks.make ~val_incll:config.val_incll ctx

(* The external log is discarded at every checkpoint (§3). *)
let subscribe_log_truncation em log =
  Epoch.Manager.subscribe_post_advance em (fun () ->
      Extlog.Log.truncate log ~epoch:(Epoch.Manager.current em))

(* Feed the adaptive scheduler's log-pressure trigger (DESIGN.md §15):
   checkpointing early when the log nears capacity converts synchronous
   log-wrap advances on the op path into scheduled ones. *)
let subscribe_log_pressure em log =
  Epoch.Manager.set_log_pressure em (fun () ->
      float_of_int (Extlog.Log.used log)
      /. float_of_int (max 1 (Extlog.Log.capacity log)))

let create ?(config = default_config) variant =
  let region = Nvm.Region.create config.nvm in
  Nvm.Superblock.format region;
  match variant with
  | Mt | Mt_plus ->
      let em =
        match variant with
        | Mt_plus ->
            Some (Epoch.Manager.create ~epoch_len_ns:config.epoch_len_ns region)
        | _ -> None
      in
      let kind =
        match variant with
        | Mt -> Alloc.Transient.General
        | _ -> Alloc.Transient.Pool
      in
      let talloc = Alloc.Transient.create kind region in
      let current_epoch =
        match em with
        | Some em -> fun () -> Epoch.Manager.current em
        | None -> fun () -> 2
      in
      let tree =
        Masstree.Tree.create region
          (Alloc.Api.of_transient talloc)
          Masstree.Hooks.transient ~current_epoch
      in
      {
        variant;
        config;
        region;
        em;
        ctx = None;
        dalloc = None;
        tree;
        last_recover_stats = None;
        sessions = no_sessions ();
      }
  | Logging | Incll ->
      let em = Epoch.Manager.create ~epoch_len_ns:config.epoch_len_ns region in
      let dalloc = Alloc.Durable.create em in
      let log = Extlog.Log.attach region in
      Extlog.Log.truncate log ~epoch:(Epoch.Manager.current em);
      subscribe_log_truncation em log;
      subscribe_log_pressure em log;
      let ctx = Ctx.make em log in
      let tree =
        Masstree.Tree.create region
          (Alloc.Api.of_durable dalloc)
          (hooks_for variant config ctx)
          ~current_epoch:(fun () -> Epoch.Manager.current em)
      in
      (* Initialisation must itself be a completed checkpoint: a crash in
         the first working epoch then rolls back to the freshly formatted
         (empty) store instead of to an allocator state that predates the
         root leaf. *)
      Epoch.Manager.advance em;
      {
        variant;
        config;
        region;
        em = Some em;
        ctx = Some ctx;
        dalloc = Some dalloc;
        tree;
        last_recover_stats = None;
        sessions = no_sessions ();
      }

let after_op t =
  match t.em with
  | Some em -> ignore (Epoch.Manager.maybe_advance em)
  | None -> ()

let put t ~key ~value =
  Nvm.Region.charge_op t.region;
  Masstree.Tree.put t.tree ~key ~value;
  after_op t

let get t ~key =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.get t.tree ~key in
  after_op t;
  r

let remove t ~key =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.remove t.tree ~key in
  after_op t;
  r

let scan t ~start ~n =
  Nvm.Region.charge_op t.region;
  let r = Masstree.Tree.scan t.tree ~start ~n in
  after_op t;
  r

(* How much uncommitted work is currently at risk: the simulated time
   since the last completed checkpoint (bounded by the epoch length). *)
let durability_lag_ns t =
  match t.em with
  | None -> infinity
  | Some em ->
      Nvm.Stats.sim_ns (Nvm.Region.stats t.region)
      -. Epoch.Manager.epoch_start_ns em

let advance_epoch t =
  match t.em with
  | Some em -> Epoch.Manager.advance em
  | None -> ()

let require_recoverable t what =
  match t.variant with
  | Logging | Incll -> ()
  | Mt | Mt_plus ->
      failwith (what ^ ": the " ^ variant_name t.variant
                ^ " variant is not recoverable")

let crash t rng =
  require_recoverable t "System.crash";
  Nvm.Region.crash t.region rng

let crash_with t ~choose =
  require_recoverable t "System.crash_with";
  Nvm.Region.crash_with t.region ~choose

let recover_region ?txn_probe ~variant ~config region =
  (match variant with
  | Logging | Incll -> ()
  | Mt | Mt_plus ->
      failwith "System.recover: transient variants are not recoverable");
  Nvm.Superblock.check region;
  let quarantined () =
    Obs.Registry.counter_value (Nvm.Region.metrics region)
      "alloc.quarantined_chains"
  in
  let quarantined0 = quarantined () in
  (* One named interval with a named interval per phase; it is also one
     Recovery-cause stall: the outermost-wins scope swallows the nested
     epoch-open fences, replay appends and the final checkpoint so
     post-crash downtime reads as a single entry. *)
  let recorder = Nvm.Region.stalls region in
  Obs.Stall.begin_ recorder ~cause:Obs.Stall.Recovery "recover";
  let phase name f =
    (* Fault-injection hook: every phase boundary is a chaos site, so a
       crash inside recovery (which must re-enter recovery cleanly) can
       be scheduled deterministically. *)
    (match Chaos.Site.of_phase name with
    | Some site -> Chaos.Plan.fire site
    | None -> ());
    Obs.Stall.with_ recorder name f
  in
  (* Re-enter epoch machinery: load + extend the durable failed set and
     durably enter the recovery-marker epoch. *)
  let em =
    phase "recover.epoch_open" (fun () ->
        Epoch.Manager.open_after_crash ~epoch_len_ns:config.epoch_len_ns region)
  in
  let log = Extlog.Log.attach region in
  (* Replay the external log (order-independent entries, §4.3) in one
     pass that also collects the txn/session records resolved below and
     parks the append cursor past the live prefix. *)
  let replayed, records =
    phase "recover.extlog_replay" (fun () ->
        Extlog.Log.replay log ~is_failed:(Epoch.Manager.is_failed em))
  in
  (* Restore the allocator metadata lines (bump/free/limbo chains). *)
  let dalloc =
    phase "recover.alloc_chains" (fun () -> Alloc.Durable.open_after_crash em)
  in
  subscribe_log_truncation em log;
  subscribe_log_pressure em log;
  let ctx = Ctx.make em log in
  let hooks = hooks_for variant config ctx in
  (* Scan the persisted image for the tree root and reattach; leaves are
     repaired lazily from their InCLLs on first access afterwards. *)
  let tree =
    phase "recover.image_scan" (fun () ->
        Masstree.Tree.open_existing region
          (Alloc.Api.of_durable dalloc)
          hooks
          ~current_epoch:(fun () -> Epoch.Manager.current em))
  in
  (* Resolve in-doubt transactions: redo committed write sets from the
     surviving PREPARE records (the undo replay above erased their
     applied writes along with the rest of the crashed epoch), discard
     uncommitted ones. The probe answers "did this coordinator commit
     that txn?" — by default against this region's own watermark; a
     sharded store passes one that reads the coordinator shard. *)
  let probe =
    match txn_probe with
    | Some p -> p
    | None -> fun ~coordinator:_ ~txn_id -> txn_id <= Txn.watermark region
  in
  let txns_redone, txns_aborted, session_records =
    phase "recover.txn_resolve" (fun () ->
        Txn.resolve ctx tree ~probe records)
  in
  (* Per-session newest record wins: the records arrive in log order, so
     a later record of the same session overwrites an earlier one. *)
  let sessions = no_sessions () in
  List.iter
    (fun (sid, seq, status) ->
      match Hashtbl.find_opt sessions.tbl sid with
      | Some e when e.last_seq > seq -> ()
      | _ ->
          Hashtbl.replace sessions.tbl sid
            { last_seq = seq; last_status = status; stamp = 0 })
    session_records;
  (* Compact the failed-epoch set before it can overflow: recover every
     node eagerly, persist that, then durably drop it. Pressure is slot
     occupancy, not epoch count — consecutive failed epochs share a
     range slot. The sweep floor lets later GC discard any ranges a
     crash resurrects after this point. *)
  if Epoch.Manager.failed_slots em >= Nvm.Layout.max_failed_epochs - 2
  then
    phase "recover.eager_sweep" (fun () ->
        Recovery.eager_sweep ctx tree dalloc;
        Nvm.Region.wbinvd region;
        Epoch.Manager.note_swept em
          ~floor:(Epoch.Manager.first_epoch_of_run em);
        Epoch.Manager.clear_failed em);
  (* Execution resumes in a fresh epoch; the checkpoint persists all
     recovery writes and truncates the log. *)
  phase "recover.checkpoint" (fun () -> Epoch.Manager.advance em);
  let iv = Obs.Stall.end_ recorder ~arg:("replayed", replayed) "recover" in
  (* The phase table is a view of the recorded intervals. Phases are
     measured mark-to-mark (from the previous phase's end), so they
     telescope: their sum is exactly the whole recovery's simulated
     time, glue work included. *)
  let phases =
    snd
      (List.fold_left_map
         (fun mark (p : Obs.Stall.interval) ->
           (p.end_ns, (p.name, p.end_ns -. mark)))
         iv.start_ns iv.children)
  in
  {
    variant;
    config;
    region;
    em = Some em;
    ctx = Some ctx;
    dalloc = Some dalloc;
    tree;
    last_recover_stats =
      Some
        {
          replayed_entries = replayed;
          recovery_sim_ns = iv.end_ns -. iv.start_ns;
          recovery_wall_ns = iv.wall_ns;
          quarantined_chains = quarantined () - quarantined0;
          txns_redone;
          txns_aborted;
          sessions_recovered = Hashtbl.length sessions.tbl;
          phases;
          wall_phases =
            List.map
              (fun (p : Obs.Stall.interval) -> (p.name, p.wall_ns))
              iv.children;
        };
    sessions;
  }

let recover ?txn_probe old =
  recover_region ?txn_probe ~variant:old.variant ~config:old.config old.region

let attach ?txn_probe ?(config = default_config) variant region =
  recover_region ?txn_probe ~variant ~config region

(* {1 Session dedup records (exactly-once serving)} *)

(* Append and fence the record, then note it in the table, evicting the
   stalest session once over capacity. *)
let record_session t ~sid ~seq ~status op =
  match t.ctx with
  | None -> failwith "System.record_session: no logging context"
  | Some ctx -> (
      Txn.append_session_retry ctx ~sid ~seq ~status op;
      let s = t.sessions in
      s.clock <- s.clock + 1;
      match Hashtbl.find_opt s.tbl sid with
      | Some e ->
          e.last_seq <- seq;
          e.last_status <- status;
          e.stamp <- s.clock
      | None ->
          if Hashtbl.length s.tbl >= sess_cap then begin
            let victim =
              Hashtbl.fold
                (fun vsid e acc ->
                  match acc with
                  | Some (_, st) when st <= e.stamp -> acc
                  | _ -> Some (vsid, e.stamp))
                s.tbl None
            in
            match victim with
            | Some (vsid, _) -> Hashtbl.remove s.tbl vsid
            | None -> ()
          end;
          Hashtbl.replace s.tbl sid
            { last_seq = seq; last_status = status; stamp = s.clock })

let last_session t ~sid =
  match Hashtbl.find t.sessions.tbl sid with
  | e -> Some (e.last_seq, e.last_status)
  | exception Not_found -> None

let max_session_sid t = Hashtbl.fold (fun sid _ m -> max sid m) t.sessions.tbl 0
