(* The paper's §5.2 correctness methodology, as a runnable demo:

   "We tested the modified system by intentionally crashing it at random
   points, launching a new process, and checking that system's state
   matched the state at the beginning of the failed epoch."

   The actual harness lives in [Chaos_runner.Torture] (shared with
   [bin/chaos.exe] and the CI chaos job); this executable is the
   human-friendly front door. For seed matrices, schedules and JSON
   reports use bin/chaos.exe.

   Run with: dune exec examples/crash_torture.exe -- [ops] [seed] *)

module Torture = Chaos_runner.Torture

let usage () =
  prerr_endline "usage: crash_torture [ops] [seed]";
  exit 2

let () =
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let cfg =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> Torture.default
    | [ ops ] -> { Torture.default with Torture.ops = int ops }
    | [ ops; seed ] ->
        { Torture.default with Torture.ops = int ops; seed = int seed }
    | _ -> usage ()
  in
  Printf.printf "torturing INCLL with %d ops over %d keys (seed %d)...\n%!"
    cfg.Torture.ops cfg.Torture.nkeys cfg.Torture.seed;
  let out = Torture.run cfg in
  (match out.Torture.failure with
  | Some f -> Printf.printf "MISMATCH: %s\n%!" (Torture.failure_to_string f)
  | None ->
      Printf.printf
        "OK: %d crashes, %d post-crash key verifications, all states \
         matched the\n\
         beginning of the failed epoch (paper §5.2)\n%!"
        out.Torture.crashes out.Torture.verified);
  if out.Torture.quarantined > 0 then
    Printf.printf "WARNING: %d allocator chain(s) quarantined\n%!"
      out.Torture.quarantined;
  exit (if out.Torture.ok then 0 else 1)
