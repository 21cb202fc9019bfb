(* Tests for the incremental clwb sweep and the adaptive checkpoint
   scheduler (DESIGN.md §15): bounded [Region.flush_some] quanta, the
   pressure triggers, mid-sweep ordering of the durable epoch word, and
   the differential guarantee that a checkpoint drained by the sweep is
   byte-identical to one drained by stop-the-world [wbinvd]. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Torture = Chaos_runner.Torture

let base_cfg ?(crash_support = Nvm.Config.Counting) () =
  {
    Nvm.Config.default with
    Nvm.Config.size_bytes = 2 * 1024 * 1024;
    extlog_bytes = 64 * 1024;
    crash_support;
  }

let mk_region cfg =
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  r

(* Dirty [n] fresh lines in the scratch area above the metadata. *)
let dirty_lines r n =
  for i = 0 to n - 1 do
    Nvm.Region.write_i64 r (64 * 1024 + (i * 64)) (Int64.of_int (1000 + i))
  done

(* --- Region.flush_some ------------------------------------------------- *)

let flush_some_bounded () =
  let r = mk_region (base_cfg ()) in
  Nvm.Region.wbinvd r;
  dirty_lines r 10;
  check_int "ten dirty lines" 10 (Nvm.Region.dirty_line_count r);
  let st = Nvm.Region.stats r in
  let clwb0 = st.Nvm.Stats.clwb in
  let remaining = Nvm.Region.flush_some r ~budget_lines:4 in
  check_int "budget respected" 6 remaining;
  check_int "dirty set shrank" 6 (Nvm.Region.dirty_line_count r);
  check_int "one quantum" 1 st.Nvm.Stats.sweep_quanta;
  check_int "four lines swept" 4 st.Nvm.Stats.sweep_lines;
  check_int "clwb per line" (clwb0 + 4) st.Nvm.Stats.clwb;
  (* Drain the rest: two more quanta (4 + 2 lines). *)
  check_int "second quantum" 2 (Nvm.Region.flush_some r ~budget_lines:4);
  check_int "final quantum" 0 (Nvm.Region.flush_some r ~budget_lines:4);
  check_int "three quanta total" 3 st.Nvm.Stats.sweep_quanta;
  check_int "all ten lines" 10 st.Nvm.Stats.sweep_lines;
  (* A quantum over a clean set is free: no counters move. *)
  check_int "clean no-op" 0 (Nvm.Region.flush_some r ~budget_lines:4);
  check_int "no phantom quantum" 3 st.Nvm.Stats.sweep_quanta;
  check "budget must be positive" true
    (try
       ignore (Nvm.Region.flush_some r ~budget_lines:0 : int);
       false
     with Invalid_argument _ -> true)

let flush_some_durable () =
  (* Lines committed by a sweep quantum survive a power failure exactly
     like wbinvd-flushed ones. *)
  let r = mk_region (base_cfg ~crash_support:Nvm.Config.Precise ()) in
  Nvm.Region.wbinvd r;
  dirty_lines r 5;
  while Nvm.Region.flush_some r ~budget_lines:2 > 0 do
    ()
  done;
  Nvm.Region.crash_persist_none r;
  for i = 0 to 4 do
    Alcotest.(check int64)
      "swept line durable"
      (Int64.of_int (1000 + i))
      (Nvm.Region.read_i64 r (64 * 1024 + (i * 64)))
  done

(* --- the adaptive scheduler (Epoch.Manager) ---------------------------- *)

(* The real [Latency] preset: 128-line quanta, a dirty trigger at 8192
   lines and a log trigger at half full. The dirty-line counts below are
   scaled to it. *)
let latency_cfg () =
  Nvm.Config.with_policy
    (base_cfg ~crash_support:Nvm.Config.Precise ())
    Nvm.Config.Latency

let counter r name =
  Obs.Registry.counter_value (Nvm.Region.metrics r) name

let mid_sweep_word_unadvanced () =
  (* While the sweep is in flight the durable epoch word still names the
     open epoch — a crash mid-sweep recovers exactly like a crash
     mid-wbinvd. The word only advances on the draining quantum. *)
  let r = mk_region (latency_cfg ()) in
  let em = Epoch.Manager.create ~epoch_len_ns:1000.0 r in
  Nvm.Region.wbinvd r;
  dirty_lines r 300;
  Nvm.Region.advance_clock r 1001.0;
  check "first quantum, not done" false (Epoch.Manager.maybe_advance em);
  check "sweep in flight" true (Epoch.Manager.sweeping em);
  check_int "epoch unchanged mid-sweep" 2 (Epoch.Manager.current em);
  Alcotest.(check int64)
    "durable word unadvanced mid-sweep" 2L
    (Nvm.Region.read_persisted_i64 r Nvm.Layout.off_durable_epoch);
  let advanced = ref false and iters = ref 0 in
  while (not !advanced) && !iters < 1000 do
    incr iters;
    if Epoch.Manager.maybe_advance em then advanced := true
  done;
  check "sweep converges" true !advanced;
  check "sweep finished" false (Epoch.Manager.sweeping em);
  check_int "epoch advanced once" 3 (Epoch.Manager.current em);
  check_int "fully drained" 0 (Nvm.Region.dirty_line_count r);
  Alcotest.(check int64)
    "durable word fenced after drain" 3L
    (Nvm.Region.read_persisted_i64 r Nvm.Layout.off_durable_epoch)

let forced_advance_completes_sweep () =
  (* A forced advance (extlog wrap, recovery) mid-sweep drains the
     remainder and fences the same boundary — never a second one. *)
  let r = mk_region (latency_cfg ()) in
  let em = Epoch.Manager.create ~epoch_len_ns:1000.0 r in
  Nvm.Region.wbinvd r;
  dirty_lines r 300;
  Nvm.Region.advance_clock r 1001.0;
  check "sweep started" false (Epoch.Manager.maybe_advance em);
  check "in flight" true (Epoch.Manager.sweeping em);
  Epoch.Manager.advance em;
  check_int "one epoch, not two" 3 (Epoch.Manager.current em);
  check_int "one advance recorded" 1 (Epoch.Manager.epochs_elapsed em);
  check "no longer sweeping" false (Epoch.Manager.sweeping em);
  check_int "drained" 0 (Nvm.Region.dirty_line_count r)

let lingering_sweep_completes_synchronously () =
  (* Convergence guard: a sweep that is still in flight a whole extra
     period later is completed in one synchronous drain. *)
  let r = mk_region (latency_cfg ()) in
  let em = Epoch.Manager.create ~epoch_len_ns:1000.0 r in
  Nvm.Region.wbinvd r;
  dirty_lines r 300;
  Nvm.Region.advance_clock r 1001.0;
  check "sweep started" false (Epoch.Manager.maybe_advance em);
  Nvm.Region.advance_clock r 1100.0;
  check "guard fires" true (Epoch.Manager.maybe_advance em);
  check_int "epoch advanced" 3 (Epoch.Manager.current em);
  check_int "drained" 0 (Nvm.Region.dirty_line_count r)

let dirty_pressure_triggers_early () =
  (* The dirty-set trigger starts a checkpoint long before the timer, and
     the sweep it starts drains over several quanta. *)
  let r = mk_region (latency_cfg ()) in
  let em = Epoch.Manager.create ~epoch_len_ns:1.0e15 r in
  Nvm.Region.wbinvd r;
  dirty_lines r 8191;
  check "below threshold" false (Epoch.Manager.maybe_advance em);
  check "no sweep yet" false (Epoch.Manager.sweeping em);
  dirty_lines r 8192;
  check "pressure starts the sweep" false (Epoch.Manager.maybe_advance em);
  check_int "dirty trigger counted" 1
    (counter r "epoch.advance.pressure_dirty");
  let calls = ref 1 in
  while (not (Epoch.Manager.maybe_advance em)) && !calls < 1000 do
    incr calls
  done;
  check "drained over many quanta" true (!calls > 1);
  check_int "advanced without the timer" 3 (Epoch.Manager.current em);
  check_int "timer never fired" 0 (counter r "epoch.advance.timer")

let log_pressure_triggers_early () =
  let r = mk_region (latency_cfg ()) in
  let em = Epoch.Manager.create ~epoch_len_ns:1.0e15 r in
  Nvm.Region.wbinvd r;
  let fill = ref 0.49 in
  Epoch.Manager.set_log_pressure em (fun () -> !fill);
  dirty_lines r 2;
  check "log under half full" false (Epoch.Manager.maybe_advance em);
  fill := 0.5;
  (* Two dirty lines fit one quantum, so the trigger drains in one call. *)
  check "log pressure advance" true (Epoch.Manager.maybe_advance em);
  check_int "log trigger counted" 1 (counter r "epoch.advance.pressure_log");
  check_int "advanced without the timer" 3 (Epoch.Manager.current em)

let record_update_schedules_like_with_policy () =
  (* The policy alone picks the schedule: a config built by record update
     sweeps in quanta (no wbinvd at the boundary) and gets the policy's
     period, exactly like one built by [with_policy]. *)
  List.iter
    (fun (policy, period) ->
      let name = Nvm.Config.policy_name policy in
      let run cfg =
        let r = mk_region cfg in
        let em = Epoch.Manager.create ~epoch_len_ns:1000.0 r in
        Nvm.Region.wbinvd r;
        let st = Nvm.Region.stats r in
        let wb0 = st.Nvm.Stats.wbinvd in
        dirty_lines r 300;
        Nvm.Region.advance_clock r 1001.0;
        let calls = ref 1 in
        while (not (Epoch.Manager.maybe_advance em)) && !calls < 1000 do
          incr calls
        done;
        check_int (name ^ ": checkpoint completed") 3
          (Epoch.Manager.current em);
        check (name ^ ": swept in quanta") true (st.Nvm.Stats.sweep_quanta > 1);
        check_int (name ^ ": no wbinvd at the boundary") wb0 st.Nvm.Stats.wbinvd;
        Alcotest.(check (float 0.0))
          (name ^ ": period") period
          (Epoch.Manager.epoch_len_ns em);
        (st.Nvm.Stats.sweep_quanta, st.Nvm.Stats.sweep_lines, !calls)
      in
      let base = base_cfg () in
      let by_update = run { base with Nvm.Config.policy } in
      let by_preset = run (Nvm.Config.with_policy base policy) in
      check (name ^ ": same schedule as with_policy") true
        (by_update = by_preset))
    [ (Nvm.Config.Latency, 1000.0); (Nvm.Config.Rto, 250.0) ]

(* --- sweep vs wbinvd differential -------------------------------------- *)

let mk_system nvm =
  Incll.System.create
    ~config:
      { Incll.System.default_config with Incll.System.nvm; epoch_len_ns = 1.0e15 }
    Incll.System.Incll

let whole_image r = Nvm.Region.read_bytes r 0 ~len:(Nvm.Region.size r)

let apply_workload sys =
  for i = 0 to 499 do
    Incll.System.put sys
      ~key:(Printf.sprintf "key_%04d" i)
      ~value:(Printf.sprintf "val_%06d" (i * 7))
  done;
  for i = 0 to 99 do
    ignore (Incll.System.remove sys ~key:(Printf.sprintf "key_%04d" (i * 5)))
  done;
  for i = 0 to 199 do
    Incll.System.put sys
      ~key:(Printf.sprintf "key_%04d" (i * 2))
      ~value:(Printf.sprintf "upd_%06d" i)
  done

let differential_images_identical () =
  (* Same op stream into two Precise-mode systems whose only difference
     is the drain mechanism (the timer is off, and the workload stays
     under the Latency preset's pressure triggers, so the epoch schedules
     coincide): after every completed
     checkpoint — and after a crash at any common point — the durable
     images must be byte-identical, and both recoveries must agree. *)
  let nvm_wb =
    {
      (base_cfg ~crash_support:Nvm.Config.Precise ()) with
      Nvm.Config.size_bytes = 8 * 1024 * 1024;
      extlog_bytes = 256 * 1024;
    }
  in
  let nvm_sweep = Nvm.Config.with_policy nvm_wb Nvm.Config.Latency in
  let a = mk_system nvm_wb and b = mk_system nvm_sweep in
  let wb0 = (Nvm.Region.stats (Incll.System.region b)).Nvm.Stats.wbinvd in
  apply_workload a;
  apply_workload b;
  Incll.System.advance_epoch a;
  Incll.System.advance_epoch b;
  check "sweep path actually ran" true
    ((Nvm.Region.stats (Incll.System.region b)).Nvm.Stats.sweep_quanta > 0);
  check_int "wbinvd not used by the sweep checkpoint" wb0
    (Nvm.Region.stats (Incll.System.region b)).Nvm.Stats.wbinvd;
  (* More mid-epoch traffic, then power failure at the same point. *)
  for i = 500 to 699 do
    let key = Printf.sprintf "key_%04d" i in
    Incll.System.put a ~key ~value:"tail";
    Incll.System.put b ~key ~value:"tail"
  done;
  List.iter
    (fun trigger ->
      check_int (trigger ^ " never fired on the sweep side") 0
        (counter (Incll.System.region b) trigger))
    [ "epoch.advance.pressure_dirty"; "epoch.advance.pressure_log" ];
  Nvm.Region.crash_persist_none (Incll.System.region a);
  Nvm.Region.crash_persist_none (Incll.System.region b);
  check "post-crash durable images byte-identical" true
    (Bytes.equal
       (whole_image (Incll.System.region a))
       (whole_image (Incll.System.region b)));
  let a = Incll.System.recover a and b = Incll.System.recover b in
  let sa = Incll.System.scan a ~start:"" ~n:1000
  and sb = Incll.System.scan b ~start:"" ~n:1000 in
  check "recovered contents identical" true (sa = sb);
  check "recovered to the checkpoint" true
    (Incll.System.get a ~key:"key_0401" = Some "val_002807");
  check "post-checkpoint tail rolled back" true
    (Incll.System.get a ~key:"key_0600" = None)

(* --- torture under the latency policy ---------------------------------- *)

let outcome_ok label (out : Torture.outcome) =
  (match out.Torture.failure with
  | Some f -> Alcotest.fail (label ^ ": " ^ Torture.failure_to_string f)
  | None -> ());
  check (label ^ " ok") true out.Torture.ok;
  check_int (label ^ " quarantined") 0 out.Torture.quarantined

let torture_both_policies_same_seed () =
  (* Periodic random crashes at the same op indices under both policies:
     the oracle must accept both recoveries (the sweep may move the
     epoch boundaries, but never the durability contract). *)
  List.iter
    (fun seed ->
      List.iter
        (fun policy ->
          let out =
            Torture.run
              {
                Torture.default with
                Torture.ops = 2_000;
                seed;
                crash_period = 600;
                policy;
              }
          in
          outcome_ok
            (Printf.sprintf "seed %d %s" seed (Nvm.Config.policy_name policy))
            out;
          check "crashed and recovered" true (out.Torture.recoveries >= 1))
        [ Nvm.Config.Throughput; Nvm.Config.Latency ])
    [ 7; 42 ]

let torture_crash_mid_sweep () =
  (* Scheduled crashes at the new epoch.sweep_partial site: torn sweeps
     (first quantum, and deeper in) recover like torn wbinvds. *)
  let out =
    Torture.run
      {
        Torture.default with
        Torture.ops = 3_000;
        seed = 11;
        crash_period = 0;
        policy = Nvm.Config.Latency;
        schedule = Chaos.Plan.parse "epoch.sweep_partial:1,epoch.sweep_partial:3";
      }
  in
  outcome_ok "mid-sweep" out;
  check_int "schedule drained" 0 out.Torture.schedule_left;
  check "two injected crashes" true
    (List.assoc_opt "epoch.sweep_partial" out.Torture.injected = Some 2);
  check "recovered each time" true (out.Torture.recoveries >= 2)

let tests =
  ( "sweep",
    [
      Alcotest.test_case "flush_some respects the budget" `Quick
        flush_some_bounded;
      Alcotest.test_case "swept lines are durable" `Quick flush_some_durable;
      Alcotest.test_case "durable word unadvanced mid-sweep" `Quick
        mid_sweep_word_unadvanced;
      Alcotest.test_case "forced advance completes the sweep" `Quick
        forced_advance_completes_sweep;
      Alcotest.test_case "lingering sweep completes synchronously" `Quick
        lingering_sweep_completes_synchronously;
      Alcotest.test_case "dirty pressure triggers early" `Quick
        dirty_pressure_triggers_early;
      Alcotest.test_case "log pressure triggers early" `Quick
        log_pressure_triggers_early;
      Alcotest.test_case "record-update policy schedules like with_policy"
        `Quick record_update_schedules_like_with_policy;
      Alcotest.test_case "sweep vs wbinvd byte-identical" `Quick
        differential_images_identical;
      Alcotest.test_case "torture both policies, same seeds" `Slow
        torture_both_policies_same_seed;
      Alcotest.test_case "torture crash mid-sweep" `Quick
        torture_crash_mid_sweep;
    ] )
