(* Drive a YCSB workload against any variant and print persistence
   statistics — a small window into what Figure 2 measures.

   Run with: dune exec examples/ycsb_demo.exe -- [variant] [mix] [dist]
   e.g.      dune exec examples/ycsb_demo.exe -- INCLL A zipfian *)

module R = Bench_harness.Runner
module Y = Workload.Ycsb

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let variant = Incll.System.variant_of_string (arg 1 "INCLL") in
  let mix = Y.mix_of_string (arg 2 "A") in
  let dist =
    match String.lowercase_ascii (arg 3 "uniform") with
    | "zipfian" | "zipf" -> Y.Zipfian
    | _ -> Y.Uniform
  in
  let nkeys = 100_000 and threads = 4 and ops = 50_000 in
  Printf.printf "running %s on %s/%s: %d keys, %d domains, %d ops each...\n%!"
    (Incll.System.variant_name variant)
    (Y.mix_name mix) (Y.dist_name dist) nkeys threads ops;
  let config =
    R.config_for ~epoch_len_ns:8.0e6 ~nkeys_per_shard:((nkeys / threads) + 1) ()
  in
  let r =
    R.run ~threads ~ops_per_thread:ops ~config ~variant ~mix ~dist ~nkeys ()
  in
  Printf.printf "\nthroughput : %.2f Mops/s (simulated)  [%.2f Mops/s wall]\n"
    r.R.mops_sim r.R.mops_wall;
  Printf.printf "checkpoints: %d   (global cache flushes: %d)\n" r.R.epochs
    r.R.wbinvds;
  Printf.printf "NVM events : %s stores, %s loads\n"
    (Util.Table.cell_int r.R.writes)
    (Util.Table.cell_int r.R.reads);
  let count name = Obs.Registry.counter_value r.R.metrics name in
  let logged = count "extlog.nodes_logged" in
  Printf.printf "persistence: %s sfences, %s clwbs, %s nodes externally logged\n"
    (Util.Table.cell_int r.R.sfences)
    (Util.Table.cell_int r.R.clwbs)
    (Util.Table.cell_int logged);
  Printf.printf "InCLL      : %s first-touches, %s value-InCLL uses\n"
    (Util.Table.cell_int (count "incll_first_touch"))
    (Util.Table.cell_int (count "incll.val_use"));
  if r.R.sfences > 0 || logged > 0 then
    Printf.printf "=> %.4f draining fences per operation\n"
      (float_of_int r.R.sfences /. float_of_int r.R.ops)
  else
    print_endline "=> no persistence actions at all (transient variant)"
