(* One run of one benchmark workload; run.py drives it (see
   BENCHMARK.json and perfbench/layers.json).

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--setup-only] [--scale full|smoke]
               [--server _build/default/bin/incll_server.exe] [--out DIR]

   Prints one JSON object on its last stdout line: the output checks'
   verdict, op counts, this run's set-up time, the metrics and a host
   fingerprint. *)

open Common

type workload = { name : string; spec : Y.spec; sizes : sizes; served : bool }

let workloads ~smoke =
  let sized full small = if smoke then small else full in
  [
    {
      name = "kv_a_zipf";
      spec = { Y.mix = Y.A; dist = Y.Zipfian; nkeys = sized 100_000 2_000 };
      sizes =
        sized
          { warm_ops = 65_536; det_ops = 400_000; crash_ops = 200_000;
            rss_ops = 400_000 }
          { warm_ops = 4_096; det_ops = 4_096; crash_ops = 4_096; rss_ops = 4_096 };
      served = false;
    };
    {
      name = "kv_e_uniform";
      spec = { Y.mix = Y.E; dist = Y.Uniform; nkeys = sized 500_000 4_000 };
      sizes =
        sized
          { warm_ops = 8_192; det_ops = 65_536; crash_ops = 16_384;
            rss_ops = 65_536 }
          { warm_ops = 4_096; det_ops = 4_096; crash_ops = 4_096; rss_ops = 4_096 };
      served = false;
    };
    {
      name = "serve_a_session";
      spec = { Y.mix = Y.A; dist = Y.Zipfian; nkeys = sized 100_000 2_000 };
      sizes =
        sized
          { warm_ops = 8_192; det_ops = 262_144; crash_ops = 0;
            rss_ops = 32_768 }
          { warm_ops = 1_024; det_ops = 4_096; crash_ops = 0; rss_ops = 2_048 };
      served = true;
    };
  ]

(* Host speed reference: ns per iteration of a fixed integer-mixing
   loop, median of five 20 ms blocks, taken before set-up. Not a metric:
   it lets a reader tell a host that ran slow apart from a slower
   program when comparing results. *)
let host_ref_ns () =
  let block () =
    let t0 = Clock.now_ns () in
    let x = ref 1 and n = ref 0 in
    while Clock.now_ns () - t0 < 20_000_000 do
      for i = 1 to 1000 do
        x := (!x * 0x2545F4914F6CDD1D) lxor (!x lsr 29) lxor i
      done;
      n := !n + 1000
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (Clock.now_ns () - t0) /. float_of_int !n
  in
  Meas.median (Array.init 5 (fun _ -> block ()))

let fingerprint (w : workload) ~seed ~seconds ~trace ~smoke ~host_ref =
  let open Obs.Json in
  Obj
    [
      ("host_ref_ns_per_iter", Float host_ref);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("cpu_model", String (Procfs.cpu_model ()));
      ("kernel", String (Procfs.first_line "/proc/sys/kernel/osrelease"));
      ("ocaml", String Sys.ocaml_version);
      ("workload", String w.name);
      ("variant", String "INCLL");
      ("crash_support", String "Precise");
      ("policy", String (Nvm.Config.policy_name policy));
      ("epoch_ms", Float epoch_ms);
      ("region_mb", Int (size_mb w.spec.Y.nkeys));
      ("max_dirty_lines", Int (Option.value ~default:0 Nvm.Config.default.max_dirty_lines));
      ("mix", String (Y.mix_name w.spec.Y.mix));
      ("dist", String (Y.dist_name w.spec.Y.dist));
      ("nkeys", Int w.spec.Y.nkeys);
      ("warm_ops", Int w.sizes.warm_ops);
      ("det_ops", Int w.sizes.det_ops);
      ("seed", Int seed);
      ("seconds", Float seconds);
      ("trace", Bool trace);
      ("scale", String (if smoke then "smoke" else "full"));
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let setup_only = ref false and smoke = ref false in
  let server = ref "_build/default/bin/incll_server.exe" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S timed phase (split in two when tracing)");
      ("--trace", Arg.Int (fun t -> trace := t = 1), "0|1");
      ("--setup-only", Arg.Set setup_only, " set up, report setup_s, stop");
      ("--scale", Arg.String (fun s -> smoke := s = "smoke"), "full|smoke");
      ("--server", Arg.Set_string server, "PATH incll_server executable");
      ("--out", Arg.Set_string out, "DIR sockets, server log, trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads ~smoke:!smoke) with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let host_ref = host_ref_ns () in
  let r = result () in
  let trace_path = Filename.concat !out (w.name ^ ".trace.json") in
  (try
     if w.served then
       Serve.run ~name:w.name ~exe:!server ~out_dir:!out ~spec:w.spec ~sizes:w.sizes ~seed:!seed
         ~seconds:!seconds ~trace:!trace ~setup_only:!setup_only ~trace_path r
     else
       Kv.run ~name:w.name ~spec:w.spec ~sizes:w.sizes ~seed:!seed ~seconds:!seconds ~trace:!trace
         ~setup_only:!setup_only ~trace_path r
   with e ->
     Printf.eprintf "bench: %s failed: %s\n%!" w.name (Printexc.to_string e);
     exit 1);
  List.iter (fun n -> Printf.eprintf "bench: check failed: %s\n%!" n) (List.rev r.notes);
  if !trace && not !setup_only then
    metric r "failed_frac" "ratio" (ratio (fi r.failed) (fi r.attempted));
  (* Metric values with every digit (Obs.Json keeps 12). *)
  let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null" in
  let metrics =
    String.concat ","
      (List.rev_map
         (fun (name, value, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num value) unit)
         r.metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"setup_s\":%s,\"metrics\":{%s},\"fingerprint\":%s}\n"
    (r.correct && r.failed = 0) r.attempted r.failed (num r.setup_s) metrics
    (Obs.Json.to_string
       (fingerprint w ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke ~host_ref))
