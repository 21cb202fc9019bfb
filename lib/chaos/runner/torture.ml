module Sys_ = Incll.System
module St = Store.Sharded

type config = {
  ops : int;
  nkeys : int;
  seed : int;
  epoch_len_ns : float;
  policy : Nvm.Config.policy;
  size_bytes : int;
  extlog_bytes : int;
  crash_period : int;
  shards : int;
  txn_period : int;
  txn_writes : int;
  schedule : Chaos.Plan.t;
  validate_chains : bool;
  verbose : bool;
}

type failure = { op_index : int; site : string option; detail : string }

type outcome = {
  ok : bool;
  ops_run : int;
  crashes : int;
  injected : (string * int) list;
  schedule_left : int;
  recoveries : int;
  verified : int;
  txns_committed : int;
  txns_in_doubt : int;
  quarantined : int;
  failure : failure option;
}

let default =
  {
    ops = 30_000;
    nkeys = 1_000;
    seed = 7;
    epoch_len_ns = 0.2e6;  (* short epochs -> many checkpoints *)
    policy = Nvm.Config.Throughput;
    size_bytes = 32 * 1024 * 1024;
    extlog_bytes = 2 * 1024 * 1024;
    crash_period = 2_000;
    shards = 1;
    txn_period = 0;  (* no transactions: the historical stream *)
    txn_writes = 4;
    schedule = [];
    validate_chains = true;
    verbose = false;
  }

let failure_to_string f =
  Printf.sprintf "op %d%s: %s" f.op_index
    (match f.site with Some s -> " (after injected crash at " ^ s ^ ")" | None -> "")
    f.detail

exception Fail of failure

let key_of i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

(* The epoch the persisted image says was running — the epoch recovery
   will invalidate. Read it *after* the crash, when the volatile image
   holds the persisted view, so a durable-epoch store
   whose fence the crash interrupted is accounted the way recovery will
   see it. *)
let persisted_epoch region =
  Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_durable_epoch)

let run ?save_image cfg =
  Chaos.Plan.reset ();
  if cfg.shards <= 0 then invalid_arg "Torture.run: shards";
  let rng = Util.Rng.create ~seed:cfg.seed in
  let config =
    {
      Sys_.default_config with
      Sys_.nvm =
        Nvm.Config.with_policy
          {
            Nvm.Config.default with
            Nvm.Config.size_bytes = cfg.size_bytes;
            extlog_bytes = cfg.extlog_bytes;
          }
          cfg.policy;
      epoch_len_ns = cfg.epoch_len_ns;
    }
  in
  let store = St.create ~config Sys_.Incll ~shards:cfg.shards in
  Chaos.Plan.set_registry (Some (Sys_.metrics (St.shard store 0)));
  let oracle = Oracle.create () in
  let model : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  (* Coordinator shard of every transaction ever begun: the post-crash
     committed predicate reads that shard's durable watermark. *)
  let coordinators : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let schedule = ref cfg.schedule in
  let arm_next () =
    match !schedule with
    | [] -> ()
    | p :: rest ->
        schedule := rest;
        if cfg.verbose then
          Printf.printf "  [chaos] arming %s\n%!" (Chaos.Plan.point_to_string p);
        Chaos.Plan.arm p
  in
  let crashes = ref 0 in
  let recoveries = ref 0 in
  let verified = ref 0 in
  let txns_committed = ref 0 in
  let txns_in_doubt = ref 0 in
  let committing = ref false in
  let last_site = ref None in
  let shard_epoch s =
    match Sys_.epoch_manager (St.shard store s) with
    | Some em -> Epoch.Manager.current em
    | None -> 0
  in
  let sync () =
    for s = 0 to cfg.shards - 1 do
      Oracle.mark_epoch oracle ~shard:s ~epoch:(shard_epoch s)
    done
  in
  let quarantined () =
    let total = ref 0 in
    for s = 0 to cfg.shards - 1 do
      total :=
        !total
        + Obs.Registry.counter_value
            (Sys_.metrics (St.shard store s))
            "alloc.quarantined_chains"
    done;
    !total
  in
  (* The structural check after every recovery and at the end of the
     run: each shard's tree, then (with [validate_chains]) its allocator
     chains. *)
  let validate_shards ~op_index =
    let fail detail = raise (Fail { op_index; site = !last_site; detail }) in
    for s = 0 to cfg.shards - 1 do
      try Masstree.Tree.validate (Sys_.tree (St.shard store s))
      with Failure m -> fail ("tree: " ^ m)
    done;
    if cfg.validate_chains then
      for s = 0 to cfg.shards - 1 do
        match Sys_.durable_alloc (St.shard store s) with
        | Some da -> (
            match (Alloc.Durable.validate da).Alloc.Durable.errors with
            | [] -> ()
            | e :: _ -> fail ("allocator: " ^ e.Alloc.Durable.detail))
        | None -> ()
      done
  in
  (* Crash now (every shard's volatile state is lost with a random PCSO
     prefix per dirty line), then recover — re-entering recovery as many
     times as armed [recover.*] points crash it — and check the result
     against the oracle's replay of the surviving op-log. *)
  let crash_and_recover ~op_index =
    incr crashes;
    St.crash store rng;
    (* Per-shard rollback points and the commit decisions, both read
       from the post-crash persisted image — exactly what recovery will
       see. The watermark word is fenced at every commit, so it always
       survives. *)
    let boundary =
      Array.init cfg.shards (fun s ->
          Oracle.boundary_at oracle ~shard:s
            ~crashed_epoch:(persisted_epoch (Sys_.region (St.shard store s))))
    in
    let committed id =
      match Hashtbl.find_opt coordinators id with
      | Some coord ->
          id <= Incll.Txn.watermark (Sys_.region (St.shard store coord))
      | None -> false
    in
    let rec recover_loop attempts =
      if attempts > 4 + List.length cfg.schedule then
        raise
          (Fail
             {
               op_index;
               site = !last_site;
               detail = "recovery did not converge after repeated crashes";
             });
      match St.recover store with
      | (_ : (string * float) list) -> ()
      | exception Chaos.Plan.Crash_requested p ->
          incr crashes;
          last_site := Some (Chaos.Site.to_string p.site);
          if cfg.verbose then
            Printf.printf "  [chaos] crash inside recovery at %s\n%!"
              (Chaos.Site.to_string p.site);
          Nvm.Region.trace_event
            (Sys_.region (St.shard store 0))
            (Obs.Trace.Custom
               { kind = "chaos_inject"; arg = Chaos.Site.index p.site });
          St.crash store rng;
          arm_next ();
          recover_loop (attempts + 1)
    in
    recover_loop 0;
    incr recoveries;
    (* Verification must not itself be chaos-interrupted: its reads
       advance the simulated clock (and therefore epochs), which would
       let an armed workload-site point fire inside harness code. *)
    let paused = Chaos.Plan.armed () in
    Chaos.Plan.disarm ();
    Oracle.compact oracle ~boundary:(fun s -> boundary.(s)) ~committed;
    validate_shards ~op_index;
    (match
       Oracle.check oracle
         ~get:(fun k -> St.get store ~key:k)
         ~cardinal:(St.cardinal store)
     with
    | Ok n -> verified := !verified + n
    | Error detail -> raise (Fail { op_index; site = !last_site; detail }));
    (* Resync the live model with the oracle's replay. *)
    Hashtbl.reset model;
    Hashtbl.iter (fun k v -> Hashtbl.replace model k v) (Oracle.replay oracle);
    sync ();
    (match paused with Some p -> Chaos.Plan.arm p | None -> ())
  in
  (* A multi-key transaction: record the write set (tagged with the txn
     id), then run the two-phase commit. The oracle decides post-crash
     survival by probing the coordinator's watermark, exactly like
     recovery does, so a crash anywhere inside the commit must leave
     either every write or none. *)
  let run_txn step =
    St.txn_begin store;
    let id = Option.get (St.txn_id store) in
    let nw = 1 + Util.Rng.int rng cfg.txn_writes in
    let writes = ref [] in
    for w = 1 to nw do
      let k = key_of (Util.Rng.int rng cfg.nkeys) in
      if Util.Rng.int rng 10 < 7 then begin
        let v = Printf.sprintf "t%d.%d" step w in
        St.txn_put store ~key:k ~value:v;
        writes := (k, Some v) :: !writes
      end
      else begin
        St.txn_remove store ~key:k;
        writes := (k, None) :: !writes
      end
    done;
    let writes = List.rev !writes in
    let coordinator =
      List.fold_left
        (fun a (k, _) -> min a (St.shard_of_key store k))
        max_int writes
    in
    Hashtbl.replace coordinators id coordinator;
    List.iter
      (fun (k, v) ->
        let shard = St.shard_of_key store k in
        match v with
        | Some value ->
            Oracle.record oracle ~txn:id ~shard (Oracle.Put { key = k; value })
        | None -> Oracle.record oracle ~txn:id ~shard (Oracle.Remove { key = k }))
      writes;
    committing := true;
    St.txn_commit store;
    committing := false;
    incr txns_committed;
    List.iter
      (fun (k, v) ->
        match v with
        | Some value -> Hashtbl.replace model k value
        | None -> Hashtbl.remove model k)
      writes
  in
  let ops_run = ref 0 in
  let failure = ref None in
  (try
     arm_next ();
     sync ();
     for step = 1 to cfg.ops do
       ops_run := step;
       try
         sync ();
         if cfg.txn_period > 0 && Util.Rng.int rng cfg.txn_period = 0 then
           run_txn step
         else begin
           let k = key_of (Util.Rng.int rng cfg.nkeys) in
           match Util.Rng.int rng 10 with
           | 0 | 1 | 2 | 3 | 4 ->
               let v = Printf.sprintf "v%d" step in
               Oracle.record oracle ~shard:(St.shard_of_key store k)
                 (Oracle.Put { key = k; value = v });
               St.put store ~key:k ~value:v;
               Hashtbl.replace model k v
           | 5 | 6 ->
               Oracle.record oracle ~shard:(St.shard_of_key store k)
                 (Oracle.Remove { key = k });
               ignore (St.remove store ~key:k);
               Hashtbl.remove model k
           | _ ->
               let got = St.get store ~key:k and want = Hashtbl.find_opt model k in
               if got <> want then
                 raise
                   (Fail
                      {
                        op_index = step;
                        site = !last_site;
                        detail =
                          Printf.sprintf "read of %S: got %s, expected %s" k
                            (match got with
                            | Some v -> Printf.sprintf "%S" v
                            | None -> "nothing")
                            (match want with
                            | Some v -> Printf.sprintf "%S" v
                            | None -> "nothing");
                      })
         end;
         sync ();
         if cfg.crash_period > 0 && Util.Rng.int rng cfg.crash_period = 0 then
           crash_and_recover ~op_index:step
       with Chaos.Plan.Crash_requested p ->
         (* An armed point fired somewhere inside the operation. *)
         last_site := Some (Chaos.Site.to_string p.site);
         if !committing || St.txn_active store then incr txns_in_doubt;
         committing := false;
         if cfg.verbose then
           Printf.printf "  [chaos] crash at %s (op %d)\n%!"
             (Chaos.Site.to_string p.site) step;
         Nvm.Region.trace_event
           (Sys_.region (St.shard store 0))
           (Obs.Trace.Custom
              { kind = "chaos_inject"; arg = Chaos.Site.index p.site });
         arm_next ();
         crash_and_recover ~op_index:step
     done;
     (* End-of-run sweep: one final crash-free validation pass. *)
     Chaos.Plan.disarm ();
     validate_shards ~op_index:cfg.ops
   with
  | Fail f -> failure := Some f
  | Alloc.Durable.Corrupt_chain { head; at; steps; reason } ->
      failure :=
        Some
          {
            op_index = !ops_run;
            site = !last_site;
            detail =
              Printf.sprintf "Corrupt_chain: head %d at %d after %d steps: %s"
                head at steps reason;
          }
  | e ->
      failure :=
        Some
          {
            op_index = !ops_run;
            site = !last_site;
            detail = "exception: " ^ Printexc.to_string e;
          });
  (match save_image with
  | Some path -> Nvm.Image.save (Sys_.region (St.shard store 0)) ~path
  | None -> ());
  let quarantined_total = quarantined () in
  let injected = Chaos.Plan.injected_counts () in
  Chaos.Plan.set_registry None;
  Chaos.Plan.reset ();
  {
    ok = !failure = None && quarantined_total = 0;
    ops_run = !ops_run;
    crashes = !crashes;
    injected;
    schedule_left = List.length !schedule;
    recoveries = !recoveries;
    verified = !verified;
    txns_committed = !txns_committed;
    txns_in_doubt = !txns_in_doubt;
    quarantined = quarantined_total;
    failure = !failure;
  }
