(* Offline checker for NVM images — an fsck for the durable store.

   Loads a saved or live image as a reboot would, reports the epoch state,
   replays recovery, walks and validates every node of every layer, checks
   the allocator chains, and prints an inventory. Read-only with respect
   to the file: all recovery work happens on the in-memory copy.

   Run with: dune exec bin/incll_fsck.exe -- <image-file> [--variant INCLL] *)

module Sys_ = Incll.System

let () =
  let path = ref None in
  let variant = ref Sys_.Incll in
  let rec parse = function
    | [] -> ()
    | "--variant" :: v :: rest ->
        variant := Sys_.variant_of_string v;
        parse rest
    | x :: rest when !path = None ->
        path := Some x;
        parse rest
    | x :: _ ->
        prerr_endline ("unexpected argument " ^ x);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path =
    match !path with
    | Some p -> p
    | None ->
        prerr_endline "usage: incll_fsck.exe <image-file> [--variant V]";
        exit 2
  in
  Printf.printf "incll_fsck: %s\n" path;
  let size = Nvm.Image.image_size ~path in
  Printf.printf "  image size        : %d bytes (%d MiB)\n" size
    (size / 1024 / 1024);
  let cfg =
    {
      Sys_.default_config with
      Sys_.nvm = { Nvm.Config.default with Nvm.Config.size_bytes = size };
    }
  in
  let region = Nvm.Image.load cfg.Sys_.nvm ~path in
  Printf.printf "  checksum          : %s\n"
    (if Nvm.Image.is_live ~path then "live image (not sealed)" else "ok");
  (if not (Nvm.Superblock.is_formatted region) then begin
     Printf.printf "  superblock        : NOT a formatted incll region\n";
     exit 1
   end);
  Printf.printf "  superblock        : ok (format %Ld)\n"
    (Nvm.Region.read_i64 region Nvm.Layout.off_format);
  (* The heap base depends on the external-log size the image was
     formatted with; reload under the recorded one so chain pointers are
     interpreted against the right layout. *)
  let cfg, region =
    match Nvm.Superblock.recorded_extlog_bytes region with
    | Some n when n <> cfg.Sys_.nvm.Nvm.Config.extlog_bytes ->
        let cfg =
          { cfg with Sys_.nvm = { cfg.Sys_.nvm with Nvm.Config.extlog_bytes = n } }
        in
        (cfg, Nvm.Image.load cfg.Sys_.nvm ~path)
    | _ -> (cfg, region)
  in
  Printf.printf "  external log      : %d bytes\n"
    cfg.Sys_.nvm.Nvm.Config.extlog_bytes;
  let durable_epoch =
    Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_durable_epoch)
  in
  let failed_count =
    Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_failed_count)
  in
  Printf.printf "  durable epoch     : %d (crashed mid-epoch; will roll back)\n"
    durable_epoch;
  Printf.printf "  failed epochs     : %d recorded\n" failed_count;
  (* Transaction records, scanned on the raw image before recovery
     truncates the log: a PREPARE whose id is above the durable
     watermark is dangling (in doubt) — recovery will roll it back. *)
  let wm = Incll.Txn.watermark region in
  Printf.printf "  txn watermark     : %d\n" wm;
  let log = Extlog.Log.attach region in
  let prepares = ref 0 and dangling = ref 0 and commits = ref 0 in
  Extlog.Log.fold_all_records log (fun ~kind ~epoch:_ ~txn_id ~payload:_ ->
      if kind = Extlog.Log.kind_txn_prepare then begin
        incr prepares;
        if txn_id > wm then incr dangling
      end
      else if kind = Extlog.Log.kind_txn_commit then incr commits);
  if !prepares > 0 || !commits > 0 then begin
    Printf.printf "  txn records       : %d PREPARE, %d commit marker(s)\n"
      !prepares !commits;
    if !dangling > 0 then
      Printf.printf
        "  dangling PREPAREs : %d in doubt (recovery rolls them back)\n"
        !dangling
  end
  else Printf.printf "  txn records       : none\n";
  (* Recover on the in-memory copy. *)
  let sys =
    try Sys_.attach ~config:cfg !variant region
    with e ->
      Printf.printf "  RECOVERY FAILED   : %s\n" (Printexc.to_string e);
      exit 1
  in
  (match Sys_.last_recover_stats sys with
  | Some st ->
      Printf.printf "  log replay        : %d entries\n" st.Sys_.replayed_entries;
      if st.Sys_.txns_redone > 0 || st.Sys_.txns_aborted > 0 then
        Printf.printf "  transactions      : %d redone, %d rolled back\n"
          st.Sys_.txns_redone st.Sys_.txns_aborted;
      if st.Sys_.quarantined_chains > 0 then begin
        Printf.printf "  quarantined       : %d chain(s) leaked by recovery\n"
          st.Sys_.quarantined_chains;
        exit 1
      end
  | None -> ());
  (* Eager sweep: force every lazy restore now so validation sees the
     final state. *)
  (match (Sys_.ctx sys, Sys_.durable_alloc sys) with
  | Some ctx, Some da ->
      Incll.Recovery.eager_sweep ctx (Sys_.tree sys) da;
      (try
         Alloc.Durable.check_chains da;
         (* Full invariant pass: acyclic and in-bounds chains, header
            class agreement, and no chunk reachable from two chains. *)
         let report = Alloc.Durable.validate da in
         Printf.printf "  allocator chains  : %d free, %d limbo chunks\n"
           report.Alloc.Durable.free_chunks report.Alloc.Durable.limbo_chunks;
         (match report.Alloc.Durable.errors with
         | [] -> Printf.printf "  chain invariants  : ok\n"
         | errs ->
             List.iter
               (fun (e : Alloc.Durable.chain_error) ->
                 Printf.printf
                   "  chain invariants  : CORRUPT class %d (%s head %d): %s\n"
                   e.Alloc.Durable.cls e.Alloc.Durable.kind
                   e.Alloc.Durable.head e.Alloc.Durable.detail)
               errs;
             exit 1)
       with
      | Failure m ->
          Printf.printf "  allocator chains  : CORRUPT (%s)\n" m;
          exit 1
      | Alloc.Durable.Corrupt_chain { head; at; steps; reason } ->
          Printf.printf
            "  allocator chains  : CORRUPT (chain head %d: %s at %d after %d \
             steps)\n"
            head reason at steps;
          exit 1)
  | _ -> ());
  (try
     Masstree.Tree.validate (Sys_.tree sys);
     Printf.printf "  tree structure    : ok\n"
   with Failure m ->
     Printf.printf "  tree structure    : CORRUPT (%s)\n" m;
     exit 1);
  let leaves = ref 0 and internals = ref 0 in
  Masstree.Tree.iter_nodes (Sys_.tree sys)
    ~leaf:(fun _ -> incr leaves)
    ~internal:(fun _ -> incr internals);
  Printf.printf "  nodes             : %d leaves, %d internals\n" !leaves
    !internals;
  Printf.printf "  entries           : %d\n"
    (Masstree.Tree.cardinal (Sys_.tree sys));
  print_endline "fsck: clean"
