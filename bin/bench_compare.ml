(* Diff two `bench --json` reports and gate on throughput regressions.

   Usage: bench_compare [--threshold F] [--force] BASELINE.json NEW.json

   Rows are matched within each table by their non-numeric cells (the
   workload / dist / size labels); numeric cells are compared column by
   column. Only throughput columns (header containing "Mops" or naming a
   variant) gate the exit code: lower-is-worse, and a drop beyond the
   threshold (default 10%) is a regression.

   Schema-v3 reports additionally carry a top-level "latency" section
   (from `bench --only latency`); the cells Bench_harness.Latency_report
   lists for it (p50/p99/p999, per-cause stall totals, the remote
   mode's robustness counters) are gated higher-is-worse.

   With --improve / --improve-stall the tool runs in improvement-gate
   mode instead: regression gating is skipped (the reports are expected
   to differ — e.g. different checkpoint policies) and the exit code
   demands that the named latency percentile / stall total got at least
   FACTOR times better in the new report.

   Exit codes: 0 no regression, 1 regression(s) found, 2 usage error,
   3 unreadable/incompatible reports. *)

module J = Obs.Json
module LR = Bench_harness.Latency_report

let threshold = ref 0.10

let force = ref false

(* --improve MODE:PCTL:FACTOR / --improve-stall MODE:CAUSE:FACTOR specs:
   improvement-gate mode, checked instead of the regression gates. *)
let improves : (string * string * float) list ref = ref []
let improve_stalls : (string * string * float) list ref = ref []

let usage_exit () =
  prerr_endline
    "usage: bench_compare [--threshold F] [--force]\n\
     \       [--improve MODE:PCTL:FACTOR] [--improve-stall MODE:CAUSE:FACTOR]\n\
     \       BASELINE.json NEW.json\n\
     \  --threshold F  relative throughput drop that fails the gate\n\
     \                 (default 0.10 = 10%)\n\
     \  --force        compare even when the run metadata is incompatible\n\
     \  --improve MODE:PCTL:FACTOR\n\
     \                 improvement-gate mode (repeatable; disables the\n\
     \                 regression gates): the latency section's merged PCTL\n\
     \                 (p50, p99 or p999) of MODE (e.g. open) must be at\n\
     \                 least FACTOR x smaller in NEW than in BASELINE\n\
     \  --improve-stall MODE:CAUSE:FACTOR\n\
     \                 same, for the per-cause stalled time (e.g.\n\
     \                 open:epoch_advance:1.0 = must not grow)";
  exit 2

let fail_input fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench_compare: " ^ msg);
      exit 3)
    fmt

let read_report path =
  let contents =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg -> fail_input "%s" msg
  in
  match J.of_string contents with
  | j -> j
  | exception J.Parse_error msg -> fail_input "%s: %s" path msg

(* ------------------------------------------------------------- numbers *)

(* Numeric cells come in several shapes: "3.14", "1,234", "+10.3%",
   "2.41±0.12%". Strip separators, take the value before any "±", drop a
   trailing "%". Returns None for labels ("YCSB_A", "uniform", "n/a"). *)
let cell_number s =
  let s = String.trim s in
  let s =
    (* "±" is two bytes in UTF-8 (0xC2 0xB1). *)
    let rec find_pm i =
      if i + 1 >= String.length s then None
      else if Char.code s.[i] = 0xC2 && Char.code s.[i + 1] = 0xB1 then Some i
      else find_pm (i + 1)
    in
    match find_pm 0 with Some i -> String.sub s 0 i | None -> s
  in
  let s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '%' then String.sub s 0 (n - 1) else s
  in
  let buf = Buffer.create (String.length s) in
  String.iter (fun c -> if c <> ',' then Buffer.add_char buf c) s;
  let s = Buffer.contents buf in
  if s = "" then None else float_of_string_opt s

(* ---------------------------------------------------------------- meta *)

let meta_field report name =
  Option.value (J.find_path report [ "meta"; name ]) ~default:J.Null

let check_meta a b =
  let mismatches =
    List.filter_map
      (fun name ->
        let va = meta_field a name and vb = meta_field b name in
        if va <> vb then
          Some (Printf.sprintf "%s: %s vs %s" name (J.to_string va) (J.to_string vb))
        else None)
      [
        "schema_version"; "scale"; "keys"; "threads"; "ops_per_thread";
        "epoch_ms"; "arrival_rate"; "latency_threshold_ns";
      ]
  in
  if mismatches <> [] then begin
    let msg = String.concat ", " mismatches in
    if !force then
      Printf.eprintf "bench_compare: metadata mismatch (continuing, --force): %s\n" msg
    else
      fail_input "incompatible reports (%s); re-run with matching options or pass --force"
        msg
  end;
  (* A different seed is a different workload stream: comparable, but
     noisier — worth a note, not a refusal. *)
  if meta_field a "seed" <> meta_field b "seed" then
    prerr_endline "bench_compare: note: seeds differ (different workload streams)";
  (* Different checkpoint policies are deliberately comparable (the
     improvement gates exist exactly for that); pre-policy baselines
     have no field at all. Note, don't refuse. *)
  if meta_field a "policy" <> meta_field b "policy" then
    prerr_endline "bench_compare: note: checkpoint policies differ"

(* -------------------------------------------------------------- tables *)

let strings_of = function
  | J.List l ->
      List.map (function J.String s -> s | v -> J.to_string v) l
  | _ -> []

let table_rows tbl =
  match J.find tbl "rows" with
  | Some (J.List rows) -> List.map strings_of rows
  | _ -> []

let tables_of report =
  match J.find report "tables" with
  | Some (J.Obj kvs) -> kvs
  | _ -> fail_input "report has no \"tables\" object"

(* A row's identity is its label cells — everything that does not parse
   as a number — plus the axis columns ("threads", "keys", ...), which
   are numeric but positional. *)
let axis_headers = [ "threads"; "keys"; "latency ns"; "epoch ms"; "workload"; "dist" ]

let row_key_with_axes headers row =
  let parts =
    List.map2
      (fun h c ->
        if List.mem h axis_headers || cell_number c = None then c else "")
      headers row
  in
  String.concat "|" (List.filter (fun c -> c <> "") parts)

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let gated_header h =
  contains_substring ~sub:"Mops" h
  || List.mem h [ "MT"; "MT+"; "INCLL"; "LOGGING" ]

let compare_tables a b =
  let ta = tables_of a and tb = tables_of b in
  let regressions = ref [] in
  let compared = ref 0 in
  List.iter
    (fun (name, tbl_a) ->
      match List.assoc_opt name tb with
      | None -> Printf.printf "table %-20s only in baseline — skipped\n" name
      | Some tbl_b ->
          let headers = strings_of (Option.value ~default:J.Null (J.find tbl_a "columns")) in
          let rows_b = table_rows tbl_b in
          let index_b =
            List.map (fun r -> (row_key_with_axes headers r, r)) rows_b
          in
          List.iter
            (fun row_a ->
              let key = row_key_with_axes headers row_a in
              match List.assoc_opt key index_b with
              | None ->
                  Printf.printf "%s | %s: row missing in new report\n" name key
              | Some row_b ->
                  List.iteri
                    (fun i h ->
                      let ca = List.nth_opt row_a i and cb = List.nth_opt row_b i in
                      match (ca, cb) with
                      | Some ca, Some cb -> (
                          match (cell_number ca, cell_number cb) with
                          | Some va, Some vb when gated_header h ->
                              incr compared;
                              let delta =
                                if va = 0.0 then 0.0 else (vb -. va) /. va
                              in
                              let flag =
                                if delta < -. !threshold then begin
                                  regressions :=
                                    Printf.sprintf "%s | %s | %s: %.3f -> %.3f (%+.1f%%)"
                                      name key h va vb (delta *. 100.0)
                                    :: !regressions;
                                  "  << REGRESSION"
                                end
                                else ""
                              in
                              Printf.printf "%s | %-28s | %-14s %10.3f -> %10.3f  %+6.1f%%%s\n"
                                name key h va vb (delta *. 100.0) flag
                          | _ -> ())
                      | _ -> ())
                    headers)
            (table_rows tbl_a))
    ta;
  (!compared, List.rev !regressions)

(* ------------------------------------------------------------- latency *)

(* Schema v3: gate the top-level "latency" section, cell by cell as
   Latency_report lists them — the simulated-clock percentiles of the
   merged per-op histogram, the per-cause stalled time and the remote
   mode's robustness counters, all higher-is-worse (they are tail sizes
   and fault work, not throughput). The wall histograms are host noise
   and ignored. A pair where only one report has the section means the
   schema (or the bench selection) drifted; refuse rather than silently
   passing an ungated report. *)
let compare_latency a b =
  match (J.find a "latency", J.find b "latency") with
  | None, None -> (0, [])
  | Some _, None | None, Some _ ->
      if !force then begin
        prerr_endline
          "bench_compare: latency section present in only one report \
           (continuing, --force)";
        (0, [])
      end
      else
        fail_input
          "latency section present in only one report; regenerate both with \
           the same bench selection or pass --force"
  | Some la, Some lb ->
      let regressions = ref [] and compared = ref 0 in
      let modes = match la with J.Obj kvs -> kvs | _ -> [] in
      List.iter
        (fun (mode, ma) ->
          let mb = J.find lb mode in
          let gate label va vb =
            incr compared;
            let delta = if va = 0.0 then 0.0 else (vb -. va) /. va in
            let flag =
              if delta > !threshold then begin
                regressions :=
                  Printf.sprintf "latency | %s | %s: %.0f -> %.0f ns (%+.1f%%)"
                    mode label va vb (delta *. 100.0)
                  :: !regressions;
                "  << REGRESSION"
              end
              else ""
            in
            Printf.printf
              "latency | %-28s | %-14s %10.0f -> %10.0f  %+6.1f%%%s\n" mode
              label va vb (delta *. 100.0) flag
          in
          List.iter
            (fun (cell : LR.cell) ->
              let vb = Option.bind mb (fun m -> LR.cell_value m cell) in
              match (LR.cell_value ma cell, vb) with
              | Some va, Some vb -> (
                  match cell.LR.gate with
                  | LR.Always -> gate cell.LR.label va vb
                  | LR.If_nonzero ->
                      if va > 0.0 then gate cell.LR.label va vb
                      else if vb > 0.0 then
                        Printf.printf
                          "latency | %s | %s appeared: 0 -> %.0f%s\n" mode
                          cell.LR.label vb cell.LR.unit_
                  | LR.Shown ->
                      Printf.printf "latency | %s | %s: %.0f -> %.0f%s%s\n" mode
                        cell.LR.label va vb cell.LR.unit_
                        (if va > 0.0 then
                           Printf.sprintf " (%+.1f%%)"
                             ((vb -. va) /. va *. 100.0)
                         else ""))
              | _ -> ())
            (LR.cells ma))
        modes;
      (!compared, List.rev !regressions)

(* ------------------------------------------------- improvement gates *)

let parse_improve_spec flag v =
  match String.split_on_char ':' v with
  | [ mode; what; factor ] -> (
      match float_of_string_opt factor with
      | Some f when f > 0.0 -> (mode, what, f)
      | _ ->
          prerr_endline
            (Printf.sprintf "bench_compare: bad FACTOR in %s %s" flag v);
          usage_exit ())
  | _ ->
      prerr_endline
        (Printf.sprintf "bench_compare: %s expects MODE:WHAT:FACTOR, got %s"
           flag v);
      usage_exit ()

(* Improvement-gate mode: each spec demands NEW <= BASELINE / FACTOR on a
   latency-section cell. Used to enforce "the latency policy makes the
   open-loop p999 at least 2x better than the committed default-policy
   baseline" — a cross-policy comparison where the regression gates
   would misfire by design (stalled time deliberately moves from
   epoch_advance to clwb_sweep). *)
let check_improvements a b =
  let failures = ref [] and compared = ref 0 in
  let gate label mode factor =
    let value report =
      Option.bind (J.find_path report [ "latency"; mode ]) (fun m ->
          Option.bind
            (List.find_opt
               (fun (c : LR.cell) -> c.LR.label = label)
               (LR.cells m))
            (LR.cell_value m))
    in
    match (value a, value b) with
    | Some va, Some vb ->
        incr compared;
        let ratio = if vb > 0.0 then va /. vb else infinity in
        let ok = vb <= (va /. factor) +. 1e-9 in
        Printf.printf
          "improve | %-6s | %-22s %12.0f -> %12.0f  (%.2fx, need >= %.2fx)%s\n"
          mode label va vb ratio factor
          (if ok then "" else "  << NOT MET");
        if not ok then
          failures :=
            Printf.sprintf "%s %s: %.0f -> %.0f (%.2fx < %.2fx)" mode label va
              vb ratio factor
            :: !failures
    | _ ->
        failures :=
          Printf.sprintf "%s %s: missing in one report" mode label
          :: !failures
  in
  List.iter (fun (mode, pctl, factor) -> gate pctl mode factor) !improves;
  List.iter
    (fun (mode, cause, factor) -> gate ("stall." ^ cause) mode factor)
    !improve_stalls;
  (!compared, List.rev !failures)

let () =
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> threshold := f
        | _ -> usage_exit ());
        parse rest
    | "--force" :: rest ->
        force := true;
        parse rest
    | "--improve" :: v :: rest ->
        improves := parse_improve_spec "--improve" v :: !improves;
        parse rest
    | "--improve-stall" :: v :: rest ->
        improve_stalls := parse_improve_spec "--improve-stall" v :: !improve_stalls;
        parse rest
    | ("--help" | "-h") :: _ -> usage_exit ()
    | x :: _ when String.length x > 1 && x.[0] = '-' ->
        prerr_endline ("bench_compare: unknown option " ^ x);
        usage_exit ()
    | f :: rest ->
        files := f :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ base; next ] ->
      let a = read_report base and b = read_report next in
      if !improves <> [] || !improve_stalls <> [] then begin
        (* Cross-policy comparisons are expected to differ in the policy
           meta field; everything else must still match. *)
        check_meta a b;
        let compared, failures = check_improvements a b in
        if compared = 0 && failures = [] then
          fail_input "no improvement cells found (wrong files?)";
        Printf.printf "%d improvement cell(s) checked\n" compared;
        if failures = [] then print_endline "all improvement gates met"
        else begin
          Printf.printf "%d improvement gate(s) NOT met:\n"
            (List.length failures);
          List.iter (fun r -> print_endline ("  " ^ r)) failures;
          exit 1
        end
      end
      else begin
        check_meta a b;
        let compared_t, reg_t = compare_tables a b in
        let compared_l, reg_l = compare_latency a b in
        let compared = compared_t + compared_l in
        let regressions = reg_t @ reg_l in
        if compared = 0 then
          fail_input "no comparable gated cells found (wrong files?)";
        Printf.printf "%d gated cell(s) compared, threshold %.0f%%\n" compared
          (!threshold *. 100.0);
        if regressions = [] then print_endline "no regressions"
        else begin
          Printf.printf "%d regression(s):\n" (List.length regressions);
          List.iter (fun r -> print_endline ("  " ^ r)) regressions;
          exit 1
        end
      end
  | _ -> usage_exit ()
