(* The serving daemon: a durable sharded store behind the wire protocol.

   Run with: dune exec bin/incll_server.exe -- --listen unix:/tmp/incll.sock
     [--variant INCLL --shards 2 --policy latency --epoch-ms 16]

   Listens on a Unix-domain or TCP socket ("unix:/path" / "tcp:host:port";
   TCP port 0 binds an ephemeral port and the banner line reports the real
   one). SIGTERM/SIGINT drain gracefully: stop accepting, finish every
   in-flight request, flush every reply, then exit. *)

module Sys_ = Incll.System

let usage =
  {|usage: incll_server --listen ADDR [options]
  --listen ADDR         unix:/path/to.sock or tcp:host:port (required)
  --variant V           MT | MT+ | LOGGING | INCLL       (default INCLL)
  --shards N            shard count (default 2); the server runs 1 + N
                        domains, each shard domain serving its connections
  --policy P            throughput | latency | rto        (default throughput)
  --epoch-ms MS         checkpoint cadence                (default 16)
  --queue-capacity N    per-shard request queue bound     (default 1024)
  --image-dir DIR       persist each shard's NVM image to DIR/shard<i>.img;
                        restarting over DIR recovers it or refuses a mismatch
  --size-mb MB          per-shard region size             (default 64)
  --log-kb KB           per-shard external-log size       (default 4096)|}

let config_for policy epoch_ms ~size_mb ~log_kb =
  {
    Sys_.default_config with
    Sys_.nvm =
      Nvm.Config.with_policy
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = size_mb * 1024 * 1024;
          extlog_bytes = log_kb * 1024;
        }
        policy;
    epoch_len_ns = epoch_ms *. 1e6;
  }

(* A malformed or non-positive numeric option, or an image directory
   another store left, is refused with one line and exit 2 before
   anything is bound. *)
let refuse msg =
  prerr_endline msg;
  exit 2

let positive flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> refuse (flag ^ " must be a positive integer")

let positive_float flag v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f && f > 0.0 -> f
  | _ -> refuse (flag ^ " must be a positive number")

let () =
  let listen = ref None in
  let variant = ref Sys_.Incll in
  let shards = ref 2 in
  let policy = ref Nvm.Config.Throughput in
  let epoch_ms = ref 16.0 in
  let queue_capacity = ref 1024 in
  let image_dir = ref None in
  let size_mb = ref 64 in
  let log_kb = ref 4096 in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--listen" :: a :: rest ->
        (match Wire.Client.addr_of_string a with
        | addr -> listen := Some addr
        | exception Invalid_argument m -> bad m);
        parse rest
    | "--variant" :: v :: rest ->
        (match Sys_.variant_of_string v with
        | x -> variant := x
        | exception Invalid_argument _ ->
            bad ("unknown variant " ^ v ^ " (MT|MT+|LOGGING|INCLL)"));
        parse rest
    | "--shards" :: v :: rest ->
        shards := positive "--shards" v;
        parse rest
    | "--policy" :: v :: rest ->
        (match Nvm.Config.policy_of_string v with
        | p -> policy := p
        | exception Invalid_argument _ ->
            bad ("unknown policy " ^ v ^ " (throughput|latency|rto)"));
        parse rest
    | "--epoch-ms" :: v :: rest ->
        epoch_ms := positive_float "--epoch-ms" v;
        parse rest
    | "--queue-capacity" :: v :: rest ->
        queue_capacity := positive "--queue-capacity" v;
        parse rest
    | "--image-dir" :: v :: rest ->
        image_dir := Some v;
        parse rest
    | "--size-mb" :: v :: rest ->
        size_mb := positive "--size-mb" v;
        parse rest
    | "--log-kb" :: v :: rest ->
        log_kb := positive "--log-kb" v;
        parse rest
    | x :: _ -> bad ("unknown argument " ^ x)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let listen =
    match !listen with
    | Some a -> a
    | None -> bad "--listen is required"
  in
  let config = config_for !policy !epoch_ms ~size_mb:!size_mb ~log_kb:!log_kb in
  (* A region holds the superblock, then the external log, then the heap;
     one the first two fill leaves a fresh store nothing to allocate. *)
  if Nvm.Layout.heap_off config.Sys_.nvm >= config.Sys_.nvm.Nvm.Config.size_bytes
  then
    refuse
      (Printf.sprintf
         "--size-mb %d leaves no heap after the --log-kb %d external log; \
          raise --size-mb or lower --log-kb"
         !size_mb !log_kb);
  let store, recovered =
    match !image_dir with
    | None -> (Store.Sharded.create ~config !variant ~shards:!shards, false)
    | Some dir -> (
        try Store.Sharded.open_images ~config !variant ~shards:!shards ~dir
        with Failure m | Sys_error m -> refuse ("incll_server: " ^ m))
  in
  let srv =
    Server.Engine.start ~queue_capacity:!queue_capacity ~store
      ~variant:!variant ~shards:!shards listen
  in
  Printf.printf
    "incll_server listening on %s — %s, %d shard(s), %s policy%s\n%!"
    (Wire.Client.string_of_addr (Server.Engine.addr srv))
    (Sys_.variant_name !variant)
    !shards
    (Nvm.Config.policy_name !policy)
    (if recovered then " (recovered from image)" else "");
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  prerr_endline "incll_server: draining...";
  Server.Engine.stop srv;
  prerr_endline "incll_server: drained, bye"
