(* Raw wall-clock microbenchmark of the NVM simulator's hot paths.

   Unlike bench/main.exe (which reports *simulated*-clock throughput),
   this tool measures how fast the simulator itself runs on the host:
   stores/s and loads/s against a raw region (and the store loops again
   on a Precise region, whose pending-store journal only a crash reads;
   random loads on a 96 MiB Counting one),
   put/get Mops through the full YCSB-A stack, ns per returned pair of
   YCSB-E-sized scans on one store, and the minor-heap words
   each loop allocates per op (for YCSB-A, counted inside each worker
   domain around its op loop only). It exists so that wall-clock regressions of the
   simulator are visible next to the simulated-throughput gate of
   bin/bench_compare.

   Usage: microbench [options]
     --stores N    raw store/load iterations          (default 2_000_000)
     --spans N     16-byte unaligned span stores      (default 500_000)
     --keys N      YCSB-A and scan key-space size     (default 20_000)
     --ops N       YCSB-A operations per thread, and
                   scans of 1-100 pairs               (default 20_000)
     --threads N   YCSB-A worker domains / shards     (default 2)
     --seed N      workload seed                      (default 1)
     --json FILE   write a machine-readable report
     --min-mops F  exit 1 if the YCSB-A wall-clock Mops falls below F
                   (0 = report only; used by the CI smoke gate)

   It also exits 1 if the host bytes Precise crash support holds after a
   fixed store sequence exceed their committed ceiling
   (Bench_harness.Host_footprint), so a second full image cannot return
   unnoticed.

   The simulated counters (writes/reads/clwb/sfence/sim_ns) of the
   YCSB-A section are included in the report: two builds that disagree
   there are not comparable (the memory-event stream itself changed). *)

module R = Bench_harness.Runner
module Y = Workload.Ycsb

type opts = {
  mutable stores : int;
  mutable spans : int;
  mutable keys : int;
  mutable ops : int;
  mutable threads : int;
  mutable seed : int;
  mutable json_file : string option;
  mutable min_mops : float;
}

let opts =
  {
    stores = 2_000_000;
    spans = 500_000;
    keys = 20_000;
    ops = 20_000;
    threads = 2;
    seed = 1;
    json_file = None;
    min_mops = 0.0;
  }

let usage () =
  print_endline
    "usage: microbench [--stores N] [--spans N] [--keys N] [--ops N]\n\
     \                  [--threads N] [--seed N] [--json FILE] [--min-mops F]";
  exit 2

let positive flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ ->
      prerr_endline (flag ^ " must be a positive integer");
      exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--stores" :: v :: rest ->
        opts.stores <- positive "--stores" v;
        go rest
    | "--spans" :: v :: rest ->
        opts.spans <- positive "--spans" v;
        go rest
    | "--keys" :: v :: rest ->
        opts.keys <- positive "--keys" v;
        go rest
    | "--ops" :: v :: rest ->
        opts.ops <- positive "--ops" v;
        go rest
    | "--threads" :: v :: rest ->
        opts.threads <- positive "--threads" v;
        go rest
    | "--seed" :: v :: rest ->
        opts.seed <- int_of_string v;
        go rest
    | "--json" :: v :: rest ->
        opts.json_file <- Some v;
        go rest
    | "--min-mops" :: v :: rest ->
        opts.min_mops <- float_of_string v;
        go rest
    | ("--help" | "-h") :: _ -> usage ()
    | x :: _ ->
        prerr_endline ("microbench: unknown argument " ^ x);
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------- harness *)

type sample = {
  bench : string;
  iters : int;
  wall_s : float;
  alloc_words : float;  (* minor-heap words allocated by the loop *)
  sim_ns : float;  (* simulated time charged by the loop *)
}

let results : sample list ref = ref []

let mops s = float_of_int s.iters /. s.wall_s /. 1e6

let report s =
  results := s :: !results;
  Printf.printf "  %-24s %9.2f ns/op  %7.2f Mops  %8.1f words/op alloc\n%!"
    s.bench
    (s.wall_s *. 1e9 /. float_of_int s.iters)
    (mops s)
    (s.alloc_words /. float_of_int s.iters)

(* Run [f iters] once to warm up (10% of the budget), then measured. *)
let time ~bench ~iters ~sim_of f =
  f (max 1 (iters / 10));
  let sim0 = sim_of () in
  let a0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f iters;
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.minor_words () in
  report
    {
      bench;
      iters;
      wall_s = Float.max (t1 -. t0) 1e-9;
      alloc_words = a1 -. a0;
      sim_ns = sim_of () -. sim0;
    }

(* --------------------------------------------------------- raw region *)

let region_mb = 8

let fresh_region crash_support =
  Nvm.Region.create
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = region_mb * 1024 * 1024;
      extlog_bytes = 1024 * 1024;
      crash_support;
    }

(* The three store loops, timed against [region] with [prefix] on their
   names. Sequential sweep: a fresh line every 8 stores, so the LLC model
   is exercised; the hot variant re-stores a 64-line working set.
   Unaligned 16-byte spans take the multi-line split path that value
   writes take (values are not 8-aligned in the tree heap). With
   [~epoch:n > 0] every run starts an epoch and a wbinvd follows every
   [n]-th store, as an epoch boundary would, so a Precise region's
   pending-store journal runs at the size one epoch fills (reached in the
   warm-up run) instead of growing through the whole loop. *)
let store_rows ~prefix ~epoch region =
  let size = region_mb * 1024 * 1024 in
  let lo = 4096 in
  let hi = size - 4096 in
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let since = ref 0 in
  let new_epoch () =
    if epoch > 0 then begin
      since := 0;
      Nvm.Region.wbinvd region
    end
  in
  let tick () =
    if epoch > 0 then begin
      incr since;
      if !since = epoch then new_epoch ()
    end
  in
  let addr = ref lo in
  time ~bench:(prefix ^ "store_i64 seq") ~iters:opts.stores ~sim_of (fun n ->
      new_epoch ();
      for _ = 1 to n do
        addr := (if !addr >= hi then lo else !addr + 8);
        Nvm.Region.write_i64 region !addr 0x5eed_f00d_dead_beefL;
        tick ()
      done);
  time ~bench:(prefix ^ "store_i64 hot64") ~iters:opts.stores ~sim_of (fun n ->
      new_epoch ();
      for i = 1 to n do
        Nvm.Region.write_i64 region (lo + (i land 511) * 8)
          0x0123_4567_89ab_cdefL;
        tick ()
      done);
  let payload = Bytes.make 16 'x' in
  time ~bench:(prefix ^ "write_bytes 16B") ~iters:opts.spans ~sim_of (fun n ->
      new_epoch ();
      for i = 1 to n do
        Nvm.Region.write_bytes region (lo + 3 + (i land 4095) * 24) payload;
        tick ()
      done)

(* Stores per epoch in the Precise rows: small enough that the warm-up
   run (a tenth of the loop) spans a whole epoch at the default counts
   and at those of `make microbench`. *)
let precise_epoch = 4096

let raw_benches () =
  Printf.printf "raw region (Counting mode, %d MiB):\n" region_mb;
  let region = fresh_region Nvm.Config.Counting in
  store_rows ~prefix:"" ~epoch:0 region;
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let lo = 4096 in
  let hi = (region_mb * 1024 * 1024) - 4096 in
  let addr = ref lo in
  time ~bench:"load_i64 seq" ~iters:opts.stores ~sim_of (fun n ->
      let acc = ref 0L in
      for _ = 1 to n do
        addr := (if !addr >= hi then lo else !addr + 8);
        acc := Int64.add !acc (Nvm.Region.read_i64 region !addr)
      done;
      ignore (Sys.opaque_identity !acc));
  time ~bench:"read_bytes 16B" ~iters:opts.spans ~sim_of (fun n ->
      for i = 1 to n do
        ignore
          (Sys.opaque_identity
             (Nvm.Region.read_bytes region
                (lo + 3 + (i land 4095) * 24)
                ~len:16))
      done);
  Printf.printf "raw region (Precise mode, %d MiB, wbinvd every %d stores):\n"
    region_mb precise_epoch;
  store_rows ~prefix:"precise " ~epoch:precise_epoch
    (fresh_region Nvm.Config.Precise)

(* Word loads at random addresses of a Counting region the size of the
   kv_e_uniform store, far larger than the simulated LLC and the host's
   caches: the row prices the LLC tag probe and a host miss on the
   image, the two costs of a long leaf walk. *)
let random_load_mb = 96

let random_loads () =
  Printf.printf "raw region (Counting mode, %d MiB):\n" random_load_mb;
  let region =
    Nvm.Region.create
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = random_load_mb * 1024 * 1024;
        extlog_bytes = 1024 * 1024;
        crash_support = Nvm.Config.Counting;
      }
  in
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats region) in
  let words = random_load_mb * 1024 * 1024 / 8 in
  (* An LCG on tagged ints, not [Util.Rng] (whose rejection sampling
     divides per draw), so the row times the load rather than the
     generator. *)
  let x = ref opts.seed in
  time ~bench:"load_i64 rand" ~iters:opts.stores ~sim_of (fun n ->
      let acc = ref 0L in
      for _ = 1 to n do
        x := (!x * 0x2545F4914F6CDD1D) + 1442695040888963407;
        acc :=
          Int64.add !acc
            (Nvm.Region.read_i64 region (8 * ((!x lsr 20) mod words)))
      done;
      ignore (Sys.opaque_identity !acc))

(* Word stores to random lines of the region, from a fixed seed. *)
let random_stores region rng n =
  let words = region_mb * 1024 * 1024 / 8 in
  for _ = 1 to n do
    Nvm.Region.write_int region (8 * Util.Rng.int rng words) 0x5eed
  done

let wbinvd_ns_per_line = ref 0.0
let host_bytes = ref 0

(* The commit path on its own: each round dirties lines with
   [--stores]/4 random word stores, as one epoch of a uniform workload
   would, and only the wbinvd that writes them all back is timed. *)
let precise_wbinvd () =
  let region = fresh_region Nvm.Config.Precise in
  let rng = Util.Rng.create ~seed:opts.seed in
  let ns = ref 0.0 and lines = ref 0 in
  for round = 0 to 5 do
    random_stores region rng (max 1 (opts.stores / 4));
    let n = Nvm.Region.dirty_line_count region in
    let t0 = Unix.gettimeofday () in
    Nvm.Region.wbinvd region;
    let dt = Unix.gettimeofday () -. t0 in
    (* Round 0 warms the journal's storage up. *)
    if round > 0 then begin
      ns := !ns +. (dt *. 1e9);
      lines := !lines + n
    end
  done;
  wbinvd_ns_per_line := !ns /. float_of_int (max 1 !lines);
  Printf.printf "  %-24s %9.2f ns/line (%d lines per wbinvd)\n%!"
    "precise wbinvd" !wbinvd_ns_per_line (!lines / 5)

(* What Precise crash support holds on the host after a fixed store
   sequence: the per-line records and the journal of pending stores (see
   Bench_harness.Host_footprint). *)
let precise_host_bytes () =
  let module F = Bench_harness.Host_footprint in
  host_bytes := F.precise_extra_bytes ();
  let nlines = F.region_mb * 1024 * 1024 / Nvm.Config.line_size in
  Printf.printf "  %-24s %9d bytes (%.1f per line; ceiling %d)\n%!"
    "precise host bytes" !host_bytes
    (float_of_int !host_bytes /. float_of_int nlines)
    F.ceiling

(* -------------------------------------------------------------- ycsb-a *)

let ycsb_counters = ref []

let ycsb_bench () =
  Printf.printf
    "YCSB-A through the full INCLL stack (%d keys, %d threads x %d ops):\n"
    opts.keys opts.threads opts.ops;
  let r =
    R.run ~seed:opts.seed ~threads:opts.threads ~ops_per_thread:opts.ops
      ~variant:Incll.System.Incll ~mix:Y.A ~dist:Y.Uniform ~nkeys:opts.keys ()
  in
  let s =
    {
      bench = "ycsb_a put/get";
      iters = r.R.ops;
      wall_s = Float.max r.R.wall_s 1e-9;
      (* The workers' op loops only: populate and stream generation are
         set-up, not ops. *)
      alloc_words = r.R.minor_words;
      sim_ns = r.R.sim_total_s *. 1e9;
    }
  in
  report s;
  Printf.printf
    "  %-24s counters: writes=%d reads=%d clwb=%d sfence=%d sim_ns=%.0f\n%!"
    "" r.R.writes r.R.reads r.R.clwbs r.R.sfences (r.R.sim_total_s *. 1e9);
  ycsb_counters :=
    [
      ("writes", Obs.Json.Int r.R.writes);
      ("reads", Obs.Json.Int r.R.reads);
      ("clwb", Obs.Json.Int r.R.clwbs);
      ("sfence", Obs.Json.Int r.R.sfences);
      ("wbinvd", Obs.Json.Int r.R.wbinvds);
      ("sim_ns", Obs.Json.Float (r.R.sim_total_s *. 1e9));
      ("mops_sim", Obs.Json.Float r.R.mops_sim);
    ];
  mops s

(* ---------------------------------------------------------------- scan *)

(* YCSB-E's scans on their own: scans of 1 to [Y.max_scan_length] pairs
   from uniform random starts on one INCLL store of [--keys] keys, one
   per [--ops]; the row reports ns and minor words per returned pair
   (the loop is run once to warm up, then timed). *)
let scan_bench () =
  Printf.printf
    "SCAN through the INCLL stack (%d keys, %d scans of 1-%d pairs), per pair:\n"
    opts.keys opts.ops Y.max_scan_length;
  let config = R.config_for ~nkeys_per_shard:opts.keys () in
  let sys = Incll.System.create ~config Incll.System.Incll in
  let keys = Array.init opts.keys Y.key_of_rank in
  Array.iter (fun key -> Incll.System.put sys ~key ~value:(Y.value_for key)) keys;
  let rng = Util.Rng.create ~seed:opts.seed in
  let starts = Array.init opts.ops (fun _ -> keys.(Util.Rng.int rng opts.keys)) in
  let lens =
    Array.init opts.ops (fun _ -> 1 + Util.Rng.int rng Y.max_scan_length)
  in
  let scans () =
    let pairs = ref 0 in
    Array.iteri
      (fun i start ->
        pairs := !pairs + List.length (Incll.System.scan sys ~start ~n:lens.(i)))
      starts;
    !pairs
  in
  ignore (scans () : int);
  let sim_of () = Nvm.Stats.sim_ns (Nvm.Region.stats (Incll.System.region sys)) in
  let sim0 = sim_of () in
  let a0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let pairs = scans () in
  let t1 = Unix.gettimeofday () in
  let a1 = Gc.minor_words () in
  report
    {
      bench = "scan";
      iters = max 1 pairs;
      wall_s = Float.max (t1 -. t0) 1e-9;
      alloc_words = a1 -. a0;
      sim_ns = sim_of () -. sim0;
    }

(* ---------------------------------------------------------------- json *)

let write_json path ~ycsb_mops =
  let sample_json s =
    Obs.Json.Obj
      [
        ("iters", Obs.Json.Int s.iters);
        ("wall_s", Obs.Json.Float s.wall_s);
        ("mops_wall", Obs.Json.Float (mops s));
        ( "ns_per_op",
          Obs.Json.Float (s.wall_s *. 1e9 /. float_of_int s.iters) );
        ( "alloc_words_per_op",
          Obs.Json.Float (s.alloc_words /. float_of_int s.iters) );
        ("sim_ns", Obs.Json.Float s.sim_ns);
      ]
  in
  let j =
    Obs.Json.Obj
      [
        ( "meta",
          Obs.Json.Obj
            [
              ("schema_version", Obs.Json.Int 1);
              ("stores", Obs.Json.Int opts.stores);
              ("spans", Obs.Json.Int opts.spans);
              ("keys", Obs.Json.Int opts.keys);
              ("ops_per_thread", Obs.Json.Int opts.ops);
              ("threads", Obs.Json.Int opts.threads);
              ("seed", Obs.Json.Int opts.seed);
            ] );
        ( "benches",
          Obs.Json.Obj
            (List.rev_map (fun s -> (s.bench, sample_json s)) !results) );
        ( "precise",
          Obs.Json.Obj
            [
              ("wbinvd_ns_per_line", Obs.Json.Float !wbinvd_ns_per_line);
              ("host_bytes", Obs.Json.Int !host_bytes);
            ] );
        ("ycsb_counters", Obs.Json.Obj !ycsb_counters);
        ("ycsb_mops_wall", Obs.Json.Float ycsb_mops);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [json: %s]\n" path

let () =
  parse_args ();
  print_endline "NVM simulator wall-clock microbenchmark";
  raw_benches ();
  random_loads ();
  precise_wbinvd ();
  precise_host_bytes ();
  scan_bench ();
  let ycsb_mops = ycsb_bench () in
  (match opts.json_file with
  | Some path -> write_json path ~ycsb_mops
  | None -> ());
  if opts.min_mops > 0.0 && ycsb_mops < opts.min_mops then begin
    Printf.eprintf
      "microbench: YCSB-A wall-clock %.2f Mops below the --min-mops %.2f gate\n"
      ycsb_mops opts.min_mops;
    exit 1
  end;
  if !host_bytes > Bench_harness.Host_footprint.ceiling then begin
    Printf.eprintf
      "microbench: Precise crash support holds %d host bytes, above its \
       %d-byte ceiling\n"
      !host_bytes Bench_harness.Host_footprint.ceiling;
    exit 1
  end
