(* A small interactive/scripted shell over a durable store — handy for
   poking at the system and for demos.

   Run with: dune exec bin/incll_cli.exe
     [-- --variant INCLL --shards 2 --policy latency]
   or against a running bin/incll_server.exe over the wire protocol:
     dune exec bin/incll_cli.exe -- --connect unix:/tmp/incll.sock
   (commands go through the fault-tolerant Wire.Session: retry with
   backoff, transparent reconnect, exactly-once stamps).
   Then type `help` at the prompt, or pipe a script on stdin. *)

module S = Store.Sharded
module Sys_ = Incll.System

let usage =
  {|commands:
  put <key> <value>       insert or update
  get <key>               look a key up
  del <key>               remove a key
  scan <start> <n>        n consecutive pairs from the smallest key >= start
  count                   number of entries
  begin                   start a multi-key transaction
  tput <key> <value>      buffer a put in the open transaction
  tdel <key>              buffer a remove in the open transaction
  tget <key>              read-your-writes lookup inside the transaction
  commit                  two-phase commit of the open transaction
  abort                   discard the open transaction
  checkpoint              force an epoch boundary (durability point)
  crash [seed]            power failure (PCSO per-line prefixes)
  recover                 rebuild from the persistent image (prints the
                          per-phase time breakdown)
  stats                   persistence-event counters
  stats --json            the same plus histograms/metrics, as JSON
  stats --prom            merged metrics in Prometheus text exposition
  trace on|off            enable/disable the persistence-event trace ring
  trace dump              print buffered trace events (JSON; non-destructive)
  trace clear             empty the trace ring(s)
  validate                walk and check the whole structure
  save <file>             write the persisted NVM image to a file
  load <file>             reboot from a saved image (single shard)
  replay <file>           apply a trace file (PUT/GET/DEL/SCAN lines)
  help                    this text
  quit                    exit|}

let remote_usage =
  {|commands (remote):
  put <key> <value>       insert or update on the server
  get <key>               look a key up on the server
  del <key>               remove a key
  scan <start> <n>        n consecutive pairs from the smallest key >= start
  count                   number of entries (paged scans)
  begin                   open a transaction, buffered in the shell
  tput <key> <value>      buffer a put in the open transaction
  tdel <key>              buffer a remove in the open transaction
  tget <key>              read-your-writes lookup inside the transaction
  commit                  send the transaction as one durable cross-shard
                          commit (the write set must fit one 1 MiB frame)
  abort                   discard the open transaction
  stats                   server metrics as JSON (stats --json is the same)
  stats --prom            server metrics in Prometheus text exposition
  help                    this text
  quit                    exit|}

(* The same shell, but every command is a wire round-trip to a running
   bin/incll_server.exe, through a retrying Wire.Session. Crash/recover/
   save/load stay local-only: the server owns its region. *)
let remote_main addr =
  let module R = Wire.Session in
  let module P = Wire.Proto in
  let s = R.connect addr in
  Printf.printf "incll shell — connected to %s. Type `help`.\n%!"
    (Wire.Client.string_of_addr addr);
  let interactive = Unix.isatty Unix.stdin in
  (try
     while true do
       if interactive then Printf.printf "incll> %!";
       let line = input_line stdin in
       let parts =
         String.split_on_char ' ' (String.trim line)
         |> List.filter (fun s -> s <> "")
       in
       (try
          match parts with
          | [] -> ()
          | [ "help" ] -> print_endline remote_usage
          | [ "quit" ] | [ "exit" ] -> raise Exit
          | [ "put"; k; v ] ->
              R.put s k v;
              print_endline "ok"
          | [ "get"; k ] -> (
              match R.get s k with
              | Some v -> Printf.printf "%S\n" v
              | None -> print_endline "(not found)")
          | [ "tget"; k ] -> (
              match if R.txn_active s then R.txn_get s k else R.get s k with
              | Some v -> Printf.printf "%S\n" v
              | None -> print_endline "(not found)")
          | [ "del"; k ] ->
              print_endline (if R.delete s k then "ok" else "(not found)")
          | [ "scan"; start; n ] ->
              List.iter
                (fun (k, v) -> Printf.printf "  %S -> %S\n" k v)
                (R.scan s ~start ~n:(int_of_string n))
          | [ "count" ] ->
              let rec page start acc =
                match R.scan s ~start ~n:512 with
                | [] -> acc
                | pairs ->
                    let last, _ = List.nth pairs (List.length pairs - 1) in
                    page (last ^ "\x00") (acc + List.length pairs)
              in
              Printf.printf "%d entries\n" (page "" 0)
          | [ "begin" ] ->
              R.txn_begin s;
              print_endline "txn open"
          | [ "tput"; k; v ] ->
              R.txn_put s k v;
              print_endline "buffered"
          | [ "tdel"; k ] ->
              R.txn_remove s k;
              print_endline "buffered"
          | [ "commit" ] ->
              R.txn_commit s;
              print_endline "committed durably"
          | [ "abort" ] ->
              R.txn_abort s;
              print_endline "aborted (no shard was touched)"
          | [ "stats" ] | [ "stats"; "--json" ] ->
              print_endline (R.stats s P.Stats_json)
          | [ "stats"; "--prom" ] -> print_string (R.stats s P.Stats_prom)
          | _ -> print_endline "unknown command (try `help`)"
        with
       | Exit -> raise Exit
       | e -> Printf.printf "error: %s\n" (Printexc.to_string e))
     done
   with End_of_file | Exit -> if interactive then print_endline "bye");
  R.close s

let config_for policy =
  {
    Sys_.default_config with
    Sys_.nvm =
      Nvm.Config.with_policy
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = 64 * 1024 * 1024;
          extlog_bytes = 4 * 1024 * 1024;
        }
        policy;
    epoch_len_ns = 16.0e6;
  }

let () =
  let variant = ref Sys_.Incll in
  let shards = ref 1 in
  let policy = ref Nvm.Config.Throughput in
  let connect = ref None in
  let rec parse = function
    | [] -> ()
    | "--connect" :: v :: rest ->
        connect := Some (Wire.Client.addr_of_string v);
        parse rest
    | "--variant" :: v :: rest ->
        variant := Sys_.variant_of_string v;
        parse rest
    | "--shards" :: v :: rest ->
        shards := int_of_string v;
        parse rest
    | "--policy" :: v :: rest ->
        (match Nvm.Config.policy_of_string v with
        | p -> policy := p
        | exception Invalid_argument _ ->
            prerr_endline
              ("unknown policy " ^ v ^ " (throughput|latency|rto)");
            exit 2);
        parse rest
    | x :: _ ->
        prerr_endline ("unknown argument " ^ x);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !connect with
  | Some addr ->
      remote_main addr;
      exit 0
  | None -> ());
  let config = config_for !policy in
  let store = ref (S.create ~config !variant ~shards:!shards) in
  let crashed = ref false in
  Printf.printf "incll shell — %s, %d shard(s), %s policy. Type `help`.\n%!"
    (Sys_.variant_name !variant)
    !shards
    (Nvm.Config.policy_name !policy);
  let interactive = Unix.isatty Unix.stdin in
  (try
     while true do
       if interactive then Printf.printf "incll> %!";
       let line = input_line stdin in
       let parts =
         String.split_on_char ' ' (String.trim line)
         |> List.filter (fun s -> s <> "")
       in
       (try
          match parts with
          | [] -> ()
          | [ "help" ] -> print_endline usage
          | [ "quit" ] | [ "exit" ] -> raise Exit
          | [ "put"; k; v ] when not !crashed ->
              S.put !store ~key:k ~value:v;
              print_endline "ok"
          | [ "get"; k ] when not !crashed -> (
              match S.get !store ~key:k with
              | Some v -> Printf.printf "%S\n" v
              | None -> print_endline "(not found)")
          | [ "del"; k ] when not !crashed ->
              print_endline (if S.remove !store ~key:k then "ok" else "(not found)")
          | [ "scan"; start; n ] when not !crashed ->
              List.iter
                (fun (k, v) -> Printf.printf "  %S -> %S\n" k v)
                (S.scan !store ~start ~n:(int_of_string n))
          | [ "count" ] when not !crashed ->
              Printf.printf "%d entries\n" (S.cardinal !store)
          | [ "begin" ] when not !crashed ->
              if S.txn_active !store then print_endline "transaction already open"
              else begin
                S.txn_begin !store;
                Printf.printf "txn %d open\n"
                  (Option.value ~default:0 (S.txn_id !store))
              end
          | [ "tput"; k; v ] when not !crashed ->
              if S.txn_active !store then begin
                S.txn_put !store ~key:k ~value:v;
                print_endline "buffered"
              end
              else print_endline "no open transaction (try `begin`)"
          | [ "tdel"; k ] when not !crashed ->
              if S.txn_active !store then begin
                S.txn_remove !store ~key:k;
                print_endline "buffered"
              end
              else print_endline "no open transaction (try `begin`)"
          | [ "tget"; k ] when not !crashed ->
              if S.txn_active !store then
                match S.txn_get !store ~key:k with
                | Some v -> Printf.printf "%S\n" v
                | None -> print_endline "(not found)"
              else print_endline "no open transaction (try `begin`)"
          | [ "commit" ] when not !crashed ->
              if S.txn_active !store then begin
                let id = Option.value ~default:0 (S.txn_id !store) in
                S.txn_commit !store;
                Printf.printf "txn %d committed durably\n" id
              end
              else print_endline "no open transaction (try `begin`)"
          | [ "abort" ] when not !crashed ->
              if S.txn_active !store then begin
                S.txn_abort !store;
                print_endline "aborted (no shard was touched)"
              end
              else print_endline "no open transaction (try `begin`)"
          | [ "checkpoint" ] when not !crashed ->
              S.advance_epochs !store;
              print_endline "checkpointed (everything so far is durable)"
          | "crash" :: rest when not !crashed ->
              let seed =
                match rest with [ s ] -> int_of_string s | _ -> 42
              in
              S.crash !store (Util.Rng.create ~seed);
              crashed := true;
              print_endline
                "power failure: volatile state lost; `recover` to restart"
          | [ "recover" ] ->
              if !crashed then begin
                let phases = S.recover !store in
                let wall = S.last_recover_wall_phases !store in
                crashed := false;
                print_endline "recovered to the last completed checkpoint";
                let sum l = List.fold_left (fun a (_, d) -> a +. d) 0.0 l in
                let total = sum phases in
                Printf.printf "  %-24s %10s  %6s  %10s\n" "phase" "simulated"
                  "share" "wall";
                List.iter
                  (fun (name, d) ->
                    Printf.printf "  %-24s %7.3f ms  %5.1f%%  %7.3f ms\n" name
                      (d /. 1e6)
                      (if total > 0.0 then 100.0 *. d /. total else 0.0)
                      (Option.value ~default:0.0 (List.assoc_opt name wall)
                      /. 1e6))
                  phases;
                Printf.printf "  %-24s %7.3f ms  %6s  %7.3f ms\n" "total"
                  (total /. 1e6) "" (sum wall /. 1e6)
              end
              else print_endline "nothing to recover from (try `crash` first)"
          | [ "replay"; path ] when not !crashed ->
              let ops = Workload.Trace.load path in
              List.iter
                (fun op ->
                  match op with
                  | Workload.Trace.Put (key, value) -> S.put !store ~key ~value
                  | Workload.Trace.Get key -> ignore (S.get !store ~key)
                  | Workload.Trace.Del key -> ignore (S.remove !store ~key)
                  | Workload.Trace.Scan (start, n) ->
                      ignore (S.scan !store ~start ~n))
                ops;
              Printf.printf "replayed %d operations\n" (List.length ops)
          | [ "save"; path ] when not !crashed ->
              if S.nshards !store <> 1 then
                print_endline "save works on single-shard stores"
              else begin
                S.advance_epochs !store;
                Nvm.Image.save (Sys_.region (S.shard !store 0)) ~path;
                Printf.printf "checkpointed and saved image to %s\n" path
              end
          | [ "load"; path ] ->
              let size_bytes = Nvm.Image.image_size ~path in
              let nvm = { config.Sys_.nvm with Nvm.Config.size_bytes } in
              store := S.attach ~config !variant [| Nvm.Image.load nvm ~path |];
              crashed := false;
              Printf.printf "rebooted from %s (%d entries)\n" path
                (S.cardinal !store)
          | [ "validate" ] when not !crashed ->
              for i = 0 to S.nshards !store - 1 do
                Masstree.Tree.validate (Sys_.tree (S.shard !store i))
              done;
              print_endline "structure valid"
          | [ "stats" ] when not !crashed ->
              for i = 0 to S.nshards !store - 1 do
                let sys = S.shard !store i in
                let st = Nvm.Region.stats (Sys_.region sys) in
                Printf.printf "shard %d: %s\n" i
                  (Format.asprintf "%a" Nvm.Stats.pp st);
                Printf.printf "         externally logged nodes: %d\n"
                  (Sys_.nodes_logged sys)
              done
          | [ "stats"; "--json" ] when not !crashed ->
              let shards =
                List.init (S.nshards !store) (fun i ->
                    Nvm.Stats.to_json
                      (Nvm.Region.stats (Sys_.region (S.shard !store i))))
              in
              print_endline
                (Obs.Json.to_string_pretty
                   (Obs.Json.Obj
                      [
                        ("shards", Obs.Json.List shards);
                        ("metrics", Obs.Registry.to_json (S.metrics !store));
                      ]))
          | [ "stats"; "--prom" ] when not !crashed ->
              print_string (Obs.Registry.to_prometheus (S.metrics !store))
          | [ "trace"; ("on" | "off") as sw ] ->
              for i = 0 to S.nshards !store - 1 do
                Obs.Trace.set_enabled
                  (Nvm.Region.trace (Sys_.region (S.shard !store i)))
                  (sw = "on")
              done;
              Printf.printf "trace %s (%d shard(s))\n" sw (S.nshards !store)
          | [ "trace"; "dump" ] ->
              (* Non-destructive: dump again and you get the same window;
                 use `trace clear` to start a fresh one. *)
              let dump =
                Obs.Json.List
                  (List.init (S.nshards !store) (fun i ->
                       Obs.Trace.to_json
                         (Nvm.Region.trace (Sys_.region (S.shard !store i)))))
              in
              print_endline (Obs.Json.to_string_pretty dump)
          | [ "trace"; "clear" ] ->
              for i = 0 to S.nshards !store - 1 do
                Obs.Trace.clear (Nvm.Region.trace (Sys_.region (S.shard !store i)))
              done;
              Printf.printf "trace cleared (%d shard(s))\n" (S.nshards !store)
          | _ when !crashed ->
              print_endline "the system is crashed; only `recover` works"
          | _ -> print_endline "unknown command (try `help`)"
        with
       | Exit -> raise Exit
       | e -> Printf.printf "error: %s\n" (Printexc.to_string e))
     done
   with End_of_file | Exit -> if interactive then print_endline "bye")
