(* End-to-end crash-restart + network-fault torture (DESIGN.md §17).

   Each seed runs the REAL server binary as a child process on a
   SIGKILL-survivable NVM image ([--image-dir]), puts the frame-level
   fault injector ([Chaos_net.Netproxy]) between it and a set of
   retrying client sessions ([Wire.Session]), then tortures it:

     - seeded net.* fault schedules (drop / delay / dup / trunc / sever)
       applied to the request and reply frame streams, and
     - SIGKILL crash-restart cycles landing mid-load, the restart
       recovering from the same image directory.

   The proxy counts frames per direction across all its connections, so
   a schedule faults the same frames every run only with one client
   connection at a time, as in seed 1. The other seeds run three
   sessions at once: which session's frame each scheduled ordinal hits
   depends on scheduling, and so does the crash timing, so those seeds
   check the oracle under varied faults rather than replay one trace.

   The exactly-once oracle at the end of each seed connects DIRECTLY to
   the final server incarnation and checks, for every key, that the
   store holds exactly the last acked mutation — no acked op lost
   across any crash, no retried op applied twice (values are distinct
   per op, so a duplicated replay would surface as a stale overwrite) —
   and that the server drains cleanly on SIGTERM afterwards.

   Seed 1 is a targeted dedup scenario: one session; the proxy drops
   exactly one reply frame and, before relaying anything else, SIGKILLs
   and restarts the server, so the op is applied + durably recorded but
   never acked; the session's resend can only reach the restarted
   server and MUST be answered from the recovered dedup table — the
   seed asserts [server.dedup_hits >= 1]. After its drain, [incll_fsck]
   must find both final shard images clean (a dangling PREPARE it reports
   is informational: it judges a shard alone).

   Run with: dune exec bin/chaos_net.exe -- [--seeds 8] [--json FILE] *)

module S = Wire.Session

let usage = "usage: chaos_net [--seeds N] [--json FILE] [--verbose]"

let verbose = ref false

let logf fmt =
  Printf.ksprintf (fun s -> if !verbose then Printf.eprintf "%s\n%!" s) fmt

(* ---------------------------------------------------- server process *)

let server_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "incll_server.exe"

type server = { mutable pid : int; sock : string; dir : string }

let spawn_server sv =
  let log =
    Unix.openfile
      (Filename.concat sv.dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let args =
    [|
      server_exe; "--listen"; "unix:" ^ sv.sock; "--shards"; "2";
      "--image-dir"; Filename.concat sv.dir "img";
      (* Long epoch: no checkpoint truncates the log mid-seed, so every
         acked op's session record survives in the live prefix. *)
      "--epoch-ms"; "5000"; "--size-mb"; "16"; "--log-kb"; "1024";
      "--queue-capacity"; "4096";
    |]
  in
  sv.pid <- Unix.create_process server_exe args Unix.stdin log log;
  Unix.close log

let rec waitpid_eintr pid =
  try ignore (Unix.waitpid [] pid : int * Unix.process_status)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

(* Ready = the socket exists and a probe connection succeeds. *)
let wait_ready sv =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec poll () =
    if Unix.gettimeofday () > deadline then
      failwith "chaos_net: server did not come up";
    match Wire.Client.connect (Wire.Client.Unix_sock sv.sock) with
    | c -> Wire.Client.close c
    | exception (Unix.Unix_error _ | Failure _) ->
        Unix.sleepf 0.02;
        poll ()
  in
  poll ()

let sigkill_restart sv =
  Unix.kill sv.pid Sys.sigkill;
  waitpid_eintr sv.pid;
  (* Stale socket file from the killed process would fool the readiness
     probe only if connect succeeded — it cannot; but remove it so the
     probe fails fast. *)
  (try Sys.remove sv.sock with Sys_error _ -> ());
  spawn_server sv;
  wait_ready sv

(* Graceful-drain check: SIGTERM must exit 0 within the deadline. *)
let sigterm_drain sv =
  Unix.kill sv.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] sv.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill sv.pid Sys.sigkill;
          waitpid_eintr sv.pid;
          Error "server did not drain on SIGTERM"
        end
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, st ->
        Error
          (match st with
          | Unix.WEXITED n -> Printf.sprintf "server exited %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "server killed by signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "server stopped by signal %d" n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* ------------------------------------------------------- one session *)

type session_result = {
  acked : (string * string option) list;  (* expected final state *)
  ops : int;
  retries : int;
  reconnects : int;
  backoff_ns : float;
  error : string option;
}

let session_cfg seed =
  {
    S.op_deadline = 60.0;
    attempt_timeout = 0.5;
    retry_budget = 500;
    backoff_base = 0.01;
    backoff_max = 0.1;
    seed;
  }

(* One client session: a seeded stream of puts / deletes / small txns
   over its own 8-key keyspace, values distinct per op. Records what was
   acked; any terminal session error fails the seed. *)
let run_session ~addr ~sid_ix ~seed ~nops () =
  let rng = Util.Rng.create ~seed:(seed * 1000 + sid_ix) in
  let key j = Printf.sprintf "s%d-%d" sid_ix (j mod 8) in
  let expected : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  let ops = ref 0 in
  match S.connect ~config:(session_cfg (seed + sid_ix)) addr with
  | exception e ->
      {
        acked = []; ops = 0; retries = 0; reconnects = 0; backoff_ns = 0.0;
        error = Some (Printexc.to_string e);
      }
  | s ->
      let finish error =
        let r =
          {
            acked = Hashtbl.fold (fun k v l -> (k, v) :: l) expected [];
            ops = !ops;
            retries = S.retries s;
            reconnects = S.reconnects s;
            backoff_ns = S.backoff_ns s;
            error;
          }
        in
        S.close s;
        r
      in
      (try
         for j = 1 to nops do
           let k = key j in
           let v = Printf.sprintf "s%d.%d" sid_ix j in
           (match Util.Rng.int rng 6 with
           | 0 ->
               if S.delete s k then () else ();
               Hashtbl.replace expected k None
           | 1 ->
               (* A two-key durable transaction through the 2PC path. *)
               let k2 = key (j + 1) in
               S.txn_begin s;
               S.txn_put s k v;
               S.txn_put s k2 (v ^ "b");
               S.txn_commit s;
               Hashtbl.replace expected k (Some v);
               Hashtbl.replace expected k2 (Some (v ^ "b"))
           | _ ->
               S.put s k v;
               Hashtbl.replace expected k (Some v));
           incr ops
         done;
         finish None
       with e -> finish (Some (Printexc.to_string e)))

(* ---------------------------------------------------------- a seed *)

type seed_report = {
  seed : int;
  ok : bool;
  failures : string list;
  total_ops : int;
  total_retries : int;
  total_reconnects : int;
  total_backoff_ms : float;
  crashes : int;
  faults : int;
  dedup_hits : int;
}

(* "server.dedup_hits" from the STATS JSON counter dump. *)
let dedup_hits_of_stats json =
  match
    Obs.Json.find_path (Obs.Json.of_string json)
      [ "counters"; "server.dedup_hits" ]
  with
  | Some (Obs.Json.Int n) -> n
  | _ -> 0

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* The offline checker over a drained server's shard image, its report
   kept beside the image: anything but a clean exit fails the seed. *)
let fsck_clean dir i =
  let img = Filename.concat dir (Printf.sprintf "img/shard%d.img" i) in
  let exe = Filename.concat (Filename.dirname server_exe) "incll_fsck.exe" in
  let q = Filename.quote in
  Sys.command (Printf.sprintf "%s %s > %s 2>&1" (q exe) (q img) (q (img ^ ".fsck")))
  = 0

(* A seeded schedule of faults for one direction: [n] points at strictly
   increasing frame ordinals. Severing faults are kept rare (each costs
   a reconnect round trip). *)
let gen_sched rng n =
  let hit = ref 1 in
  List.init n (fun _ ->
      hit := !hit + 2 + Util.Rng.int rng 10;
      let site =
        match Util.Rng.int rng 8 with
        | 0 | 1 -> Chaos.Site.Net_drop
        | 2 | 3 -> Chaos.Site.Net_delay
        | 4 | 5 -> Chaos.Site.Net_dup
        | 6 -> Chaos.Site.Net_sever
        | _ -> Chaos.Site.Net_trunc
      in
      { Chaos.Plan.site; hit = !hit })

let run_seed ~seed ~sessions ~nops ~ncrashes =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "incll_chaos_net_%d_%d" (Unix.getpid ()) seed)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sv = { pid = -1; sock = Filename.concat dir "srv.sock"; dir } in
  spawn_server sv;
  wait_ready sv;
  let rng = Util.Rng.create ~seed in
  let targeted = seed = 1 in
  (* The proxy numbers frames per direction across all its connections,
     so with several sessions connecting at once the targeted ordinal
     could land on another session's HELLO reply. One session makes it
     the reply to that session's 3rd op, a stamped mutation. *)
  let sessions = if targeted then 1 else sessions in
  let crashes = Atomic.make 0 in
  let sched_up = if targeted then [] else gen_sched rng 4 in
  let sched_down =
    if targeted then
      (* Drop exactly one reply frame: frame 1 is the HELLO reply and
         every op, a transaction included, is one request frame, so
         hit 4 is the reply to the session's 3rd op — applied, durably
         recorded, never acked. [on_fault] SIGKILLs at that moment. *)
      [ { Chaos.Plan.site = Chaos.Site.Net_drop; hit = 4 } ]
    else gen_sched rng 4
  in
  let proxy =
    Chaos_net.Netproxy.start ~sched_up ~sched_down
      ~on_fault:(fun p ->
        logf "seed %d: injected %s" seed (Chaos.Plan.point_to_string p);
        if targeted then begin
          (* Synchronously, on the relaying domain: the old server is
             dead and the new one recovered before this connection
             relays another frame, so no resend can reach the old
             server's in-memory dedup table. *)
          logf "seed %d: SIGKILL at dropped reply" seed;
          sigkill_restart sv;
          Atomic.incr crashes
        end)
      ~listen:(Wire.Client.Unix_sock (Filename.concat dir "proxy.sock"))
      ~upstream:(Wire.Client.Unix_sock sv.sock) ()
  in
  let paddr = Chaos_net.Netproxy.addr proxy in
  let done_flag = Atomic.make false in
  let workers =
    List.init sessions (fun i ->
        Domain.spawn (run_session ~addr:paddr ~sid_ix:i ~seed ~nops))
  in
  (* Crash controller for the other seeds, on its own domain: seeded
     SIGKILL cycles mid-load, each restart recovering from the same
     image directory. *)
  let watcher =
    Domain.spawn (fun () ->
        if not targeted then
          for _ = 1 to ncrashes do
            if not (Atomic.get done_flag) then begin
              Unix.sleepf (0.2 +. (Util.Rng.float rng *. 0.3));
              if not (Atomic.get done_flag) then begin
                logf "seed %d: SIGKILL mid-load" seed;
                sigkill_restart sv;
                Atomic.incr crashes
              end
            end
          done)
  in
  let results = List.map Domain.join workers in
  Atomic.set done_flag true;
  Domain.join watcher;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iteri
    (fun i r ->
      match r.error with
      | Some e -> fail "session %d: %s" i e
      | None -> ())
    results;
  (* The exactly-once oracle: direct connection, no proxy in the way. *)
  let dedup_hits = ref 0 in
  (match Wire.Client.connect (Wire.Client.Unix_sock sv.sock) with
  | exception e -> fail "final connect: %s" (Printexc.to_string e)
  | c ->
      List.iter
        (fun r ->
          List.iter
            (fun (k, expect) ->
              let got =
                match
                  Wire.Client.call ~deadline:(Unix.gettimeofday () +. 10.0) c
                    (Wire.Proto.Get k)
                with
                | { Wire.Proto.status = Wire.Proto.Ok;
                    payload = Wire.Proto.Value v; _ } ->
                    Some v
                | { Wire.Proto.status = Wire.Proto.Not_found; _ } -> None
                | r -> fail "get %s: unexpected reply" k;
                       ignore r;
                       None
              in
              if got <> expect then
                fail "key %s: acked %s but store has %s" k
                  (match expect with Some v -> v | None -> "<absent>")
                  (match got with Some v -> v | None -> "<absent>"))
            r.acked)
        results;
      (match
         Wire.Client.call ~deadline:(Unix.gettimeofday () +. 10.0) c
           (Wire.Proto.Stats Wire.Proto.Stats_json)
       with
      | { Wire.Proto.status = Wire.Proto.Ok;
          payload = Wire.Proto.Text json; _ } ->
          dedup_hits := dedup_hits_of_stats json
      | _ -> fail "STATS failed on final server")
      [@warning "-8"];
      Wire.Client.close c);
  if targeted && Atomic.get crashes = 0 then
    fail "targeted seed: reply-drop fault never fired";
  if targeted && !dedup_hits < 1 then
    fail "targeted seed: expected a dedup hit after crash-restart recovery";
  (match sigterm_drain sv with Ok () -> () | Error e -> fail "%s" e);
  if targeted then
    List.iter
      (fun i ->
        if not (fsck_clean dir i) then fail "fsck shard%d.img not clean" i)
      [ 0; 1 ];
  let faults = Chaos_net.Netproxy.injected_total proxy in
  Chaos_net.Netproxy.stop proxy;
  let ok = !failures = [] in
  if ok then rm_rf dir
  else Printf.eprintf "seed %d artifacts kept in %s\n%!" seed dir;
  {
    seed;
    ok;
    failures = List.rev !failures;
    total_ops = List.fold_left (fun a r -> a + r.ops) 0 results;
    total_retries = List.fold_left (fun a r -> a + r.retries) 0 results;
    total_reconnects = List.fold_left (fun a r -> a + r.reconnects) 0 results;
    total_backoff_ms =
      List.fold_left (fun a r -> a +. r.backoff_ns) 0.0 results /. 1e6;
    crashes = Atomic.get crashes;
    faults;
    dedup_hits = !dedup_hits;
  }

(* ------------------------------------------------------------- main *)

let report_json reports =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"seeds\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"seed\":%d,\"ok\":%b,\"ops\":%d,\"retries\":%d,\"reconnects\":%d,\
         \"backoff_ms\":%.3f,\"crashes\":%d,\"faults\":%d,\"dedup_hits\":%d,\
         \"failures\":[%s]}"
        r.seed r.ok r.total_ops r.total_retries r.total_reconnects
        r.total_backoff_ms r.crashes r.faults r.dedup_hits
        (String.concat ","
           (List.map (fun f -> Printf.sprintf "%S" f) r.failures)))
    reports;
  Printf.bprintf b "],\"ok\":%b}" (List.for_all (fun r -> r.ok) reports);
  Buffer.contents b

let () =
  let seeds = ref 8 in
  let json_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest ->
        seeds := int_of_string v;
        parse rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse rest
    | "--verbose" :: rest ->
        verbose := true;
        parse rest
    | x :: _ ->
        prerr_endline ("unknown argument " ^ x);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Sessions write into sockets the fault schedule severs under them;
     that must surface as EPIPE (a retryable error), not process death. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists server_exe) then begin
    Printf.eprintf "chaos_net: %s not built\n" server_exe;
    exit 2
  end;
  let reports =
    List.init !seeds (fun i ->
        let seed = i + 1 in
        let r = run_seed ~seed ~sessions:3 ~nops:24 ~ncrashes:2 in
        Printf.printf
          "seed %2d: %s  ops=%d retries=%d reconnects=%d backoff=%.0fms \
           crashes=%d faults=%d dedup_hits=%d\n%!"
          r.seed
          (if r.ok then "OK  " else "FAIL")
          r.total_ops r.total_retries r.total_reconnects r.total_backoff_ms
          r.crashes r.faults r.dedup_hits;
        List.iter (fun f -> Printf.printf "         %s\n%!" f) r.failures;
        r)
  in
  (match !json_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (report_json reports);
      output_string oc "\n";
      close_out oc
  | None -> ());
  let bad = List.filter (fun r -> not r.ok) reports in
  let hits = List.fold_left (fun a r -> a + r.dedup_hits) 0 reports in
  Printf.printf "chaos_net: %d/%d seeds passed, %d dedup hits total\n%!"
    (List.length reports - List.length bad)
    (List.length reports) hits;
  if bad <> [] then exit 1
