(* Timeline invariants of a traced run. The Perfetto file a traced run
   exports must agree with the metric registry and the recovery
   statistics about every checkpoint, fence, stall and recovery phase:
   the timeline is a view of the same intervals the histograms count,
   not a second measurement of them.

   A small Precise-mode store, traced from the start, runs timer-driven
   and forced checkpoints, external-log appends (leaf splits plus one
   explicit append), a crash and a recovery; then the Perfetto export is
   read back and its slices are compared as intervals ([B]/[E] pairs and
   [X] slices alike), so the check holds whatever encoding the exporter
   uses. Once per checkpoint policy: stop-the-world [wbinvd], and the
   incremental sweep ([sweep_budget > 0]). *)

module Sys_ = Incll.System
module J = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One interval on one track, in the export's microseconds. *)
type slice = { name : string; tid : int; t0 : float; t1 : float }

let str_field e k = match J.find e k with Some (J.String s) -> s | _ -> ""

let num_field e k =
  match Option.bind (J.find e k) J.to_float_opt with
  | Some v -> v
  | None -> Alcotest.failf "event without a numeric %S" k

(* Every slice of the export, B/E pairs matched per track, plus the
   track names by tid. *)
let read_export json =
  let events =
    match J.find (J.of_string (J.to_string json)) "traceEvents" with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let open_ = Hashtbl.create 4 and slices = ref [] and tracks = ref [] in
  List.iter
    (fun e ->
      let name = str_field e "name" in
      let tid () = int_of_float (num_field e "tid") in
      match str_field e "ph" with
      | "M" -> (
          match J.find e "args" with
          | Some a -> tracks := (tid (), str_field a "name") :: !tracks
          | None -> ())
      | "X" ->
          let t0 = num_field e "ts" in
          slices :=
            { name; tid = tid (); t0; t1 = t0 +. num_field e "dur" } :: !slices
      | "B" ->
          let tid = tid () in
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_ tid) in
          Hashtbl.replace open_ tid ((name, num_field e "ts") :: stack)
      | "E" -> (
          let tid = tid () in
          match Hashtbl.find_opt open_ tid with
          | Some ((n, t0) :: rest) ->
              check "E closes the innermost B" true (n = name);
              Hashtbl.replace open_ tid rest;
              slices := { name; tid; t0; t1 = num_field e "ts" } :: !slices
          | _ -> Alcotest.fail "E without an open B")
      | _ -> ())
    events;
  (List.rev !slices, !tracks)

let config policy =
  let nvm =
    Nvm.Config.with_policy
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 8 * 1024 * 1024;
        extlog_bytes = 256 * 1024;
        crash_support = Nvm.Config.Precise;
        trace_capacity = 1 lsl 16;
      }
      policy
  in
  (* 50 us epochs: a few timer-driven checkpoints in 400 puts. *)
  { Sys_.default_config with Sys_.nvm; epoch_len_ns = 5.0e4 }

let key i = Workload.Ycsb.key_of_rank i

let hist reg name =
  match Obs.Registry.find_histogram reg name with
  | Some h -> (Obs.Histogram.count h, Obs.Histogram.sum h)
  | None -> (0, 0.0)

let close_to ~what a b =
  if Float.abs (a -. b) > 1e-6 *. Float.max 1.0 (Float.abs b) then
    Alcotest.failf "%s: %.6f vs %.6f" what a b

let timeline policy () =
  let sys = Sys_.create ~config:(config policy) Sys_.Incll in
  let region = Sys_.region sys in
  let trace = Nvm.Region.trace region and stalls = Nvm.Region.stalls region in
  let metrics = Nvm.Region.metrics region in
  Obs.Trace.set_enabled trace true;
  Obs.Stall.clear stalls;
  let before = Obs.Registry.snapshot metrics in
  let em () = Option.get (Sys_.epoch_manager sys) in
  let elapsed0 = Epoch.Manager.epochs_elapsed (em ()) in
  for i = 0 to 399 do
    Sys_.put sys ~key:(key i) ~value:"12345678"
  done;
  (* Forced: drains an open sweep too, so none is left open below. *)
  Sys_.advance_epoch sys;
  (* A short tail that stays inside the epoch, so the crash rolls it
     back: one explicit append (of an unused superblock line, so its
     replay restores what is there), then new keys that split leaves. *)
  let ctx = Option.get (Sys_.ctx sys) in
  Extlog.Log.append ctx.Incll.Ctx.log
    ~epoch:(Epoch.Manager.current (em ()))
    ~addr:768 ~size:64;
  for i = 400 to 409 do
    Sys_.put sys ~key:(key i) ~value:"abcdefgh"
  done;
  (* Completed checkpoints, plus the one recovery ends with. *)
  let checkpoints = Epoch.Manager.epochs_elapsed (em ()) - elapsed0 + 1 in
  Sys_.crash sys (Util.Rng.create ~seed:3);
  let sys = Sys_.recover sys in
  let st = Option.get (Sys_.last_recover_stats sys) in
  check "the crash left entries to replay" true (st.Sys_.replayed_entries > 0);
  let window = Obs.Registry.diff ~after:metrics ~before in
  check_int "trace ring kept every event" 0 (Obs.Trace.dropped trace);
  check "stall ring kept every entry" true
    (Obs.Stall.admitted stalls <= Obs.Stall.capacity stalls);
  let slices, tracks =
    read_export
      (Obs.Perfetto.export
         ~tracks:[ ("shard0", trace) ]
         ~stalls:[ ("shard0", stalls) ]
         ())
  in
  let tid_of label =
    match List.find_opt (fun (_, n) -> n = label) tracks with
    | Some (tid, _) -> tid
    | None -> Alcotest.failf "no %S track" label
  in
  let op = tid_of "shard0" and stall = tid_of "shard0 stalls" in
  let on tid name = List.filter (fun s -> s.tid = tid && s.name = name) slices in
  (* One checkpoint slice per checkpoint, each one a span.checkpoint_ns
     sample. *)
  check_int "one checkpoint slice per checkpoint" checkpoints
    (List.length (on op "checkpoint"));
  check_int "checkpoint slices = span.checkpoint_ns samples"
    (fst (hist window "span.checkpoint_ns"))
    (List.length (on op "checkpoint"));
  (* Every sfence slice is one nvm.sfence_ns sample, and the flush slices
     of the policy are there. *)
  check_int "sfence slices = nvm.sfence_ns samples"
    (fst (hist window "nvm.sfence_ns"))
    (List.length (on op "sfence"));
  check_int "wbinvd slices = nvm.wbinvd_ns samples"
    (fst (hist window "nvm.wbinvd_ns"))
    (List.length (on op "wbinvd"));
  check_int "sweep slices = nvm.sweep_ns samples"
    (fst (hist window "nvm.sweep_ns"))
    (List.length (on op "sweep"));
  (match policy with
  | Nvm.Config.Throughput ->
      check "wbinvd slices" true (on op "wbinvd" <> [])
  | _ -> check "sweep slices" true (on op "sweep" <> []));
  (* The stall track holds every stall: per cause, its slices are the
     stall.<cause>_ns samples. *)
  List.iter
    (fun c ->
      let name = Obs.Stall.cause_name c in
      let mine = on stall name in
      let n, sum = hist window ("stall." ^ name ^ "_ns") in
      check_int ("stall slices = samples: " ^ name) n (List.length mine);
      close_to ~what:("stall slice time: " ^ name)
        (List.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0.0 mine)
        (sum /. 1e3))
    Obs.Stall.all_causes;
  List.iter
    (fun c ->
      check ("stall slices present: " ^ Obs.Stall.cause_name c) true
        (on stall (Obs.Stall.cause_name c) <> []))
    Obs.Stall.[ Epoch_advance; Extlog; Recovery ];
  (* The recover slice encloses one slice per phase, and the phase table
     sums to the recovery's simulated time. *)
  let recover =
    match on op "recover" with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one recover slice, got %d" (List.length l)
  in
  close_to ~what:"recover slice = recovery_sim_ns"
    (recover.t1 -. recover.t0)
    (st.Sys_.recovery_sim_ns /. 1e3);
  let phases =
    List.filter
      (fun s ->
        s.tid = op && String.length s.name > 8
        && String.sub s.name 0 8 = "recover.")
      slices
  in
  Alcotest.(check (list string))
    "one phase slice per phase, in order"
    (List.map fst st.Sys_.phases)
    (List.map (fun s -> s.name) phases);
  List.iter
    (fun s ->
      check ("recover encloses " ^ s.name) true
        (s.t0 >= recover.t0 && s.t1 <= recover.t1))
    phases;
  close_to ~what:"phase table sums to recovery_sim_ns"
    (List.fold_left (fun a (_, d) -> a +. d) 0.0 st.Sys_.phases)
    st.Sys_.recovery_sim_ns

let tests =
  ( "timeline",
    [
      Alcotest.test_case "wbinvd checkpoints" `Quick
        (timeline Nvm.Config.Throughput);
      Alcotest.test_case "incremental sweep checkpoints" `Quick
        (timeline Nvm.Config.Latency);
    ] )
