(* Frame-level network fault injector: a socket proxy between a wire
   client and the serving engine that understands the frame boundaries
   of [Wire.Proto] and applies a deterministic [Chaos.Plan] schedule of
   net.* faults to the frame stream — drop a frame, deliver it late,
   deliver it twice, cut it mid-bytes, or sever the connection.

   Determinism: faults are scheduled by *frame ordinal per direction*
   ([{site = Net_drop; hit = 5}] faults the 5th relayed frame in that
   direction), not by time. The ordinals count frames across every
   relayed connection, so a seeded schedule replays the same fault
   sequence only while one client connection is relayed at a time; with
   concurrent connections each ordinal lands on whichever connection's
   frame comes next. The proxy keeps its own counters — the global
   [Chaos.Plan] injector singleton is for single-domain crash plans and
   is not touched here.

   Each relayed connection runs on one domain that pumps both directions
   through a select loop (a torture run reconnects many times; one
   domain per connection keeps the process under the runtime's domain
   budget). *)

module P = Wire.Proto

type sched = {
  mutable points : Chaos.Plan.point list;  (* ordered by hit *)
  mutable frames : int;  (* frames seen in this direction *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound : Wire.Client.addr;
  upstream : Wire.Client.addr;
  stop_flag : bool Atomic.t;
  mutable accept_domain : unit Domain.t option;
  mutable conns : unit Domain.t list;
  mu : Mutex.t;  (* conns list + schedules + injected counts *)
  up : sched;  (* client -> server *)
  down : sched;  (* server -> client *)
  injected : int array;  (* per Chaos.Site.index *)
  on_fault : (Chaos.Plan.point -> unit) option;
}

let restart_eintr = Wire.Client.restart_eintr
let write_all = Wire.Client.write_all

let net_site = function
  | Chaos.Site.Net_drop | Net_delay | Net_dup | Net_trunc | Net_sever -> true
  | _ -> false

let check_sched = function
  | None -> []
  | Some pts ->
      List.iter
        (fun { Chaos.Plan.site; _ } ->
          if not (net_site site) then
            invalid_arg
              ("Netproxy: non-net site in schedule: "
              ^ Chaos.Site.to_string site))
        pts;
      List.sort (fun a b -> compare a.Chaos.Plan.hit b.Chaos.Plan.hit) pts

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Under [t.mu]: the fault (if any) scheduled for the next frame of this
   direction. *)
let next_fault t sched =
  Mutex.lock t.mu;
  sched.frames <- sched.frames + 1;
  let fault =
    match sched.points with
    | { Chaos.Plan.hit; site } :: tl when sched.frames >= hit ->
        sched.points <- tl;
        t.injected.(Chaos.Site.index site) <-
          t.injected.(Chaos.Site.index site) + 1;
        Some { Chaos.Plan.site; hit }
    | _ -> None
  in
  Mutex.unlock t.mu;
  (match (fault, t.on_fault) with
  | Some p, Some f -> f p
  | _ -> ());
  fault

let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

exception Severed

(* Sever both sides of the relayed connection; both peers see EOF. *)
let sever a b =
  (try Unix.shutdown a Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.shutdown b Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Relay one complete frame, applying at most one scheduled fault. *)
let relay t sched ~src ~dst payload =
  let frame = frame_of_payload payload in
  match next_fault t sched with
  | None -> write_all dst frame
  | Some { Chaos.Plan.site = Chaos.Site.Net_drop; _ } -> ()
  | Some { site = Net_delay; _ } ->
      (try Unix.sleepf 0.15 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      write_all dst frame
  | Some { site = Net_dup; _ } ->
      write_all dst frame;
      write_all dst frame
  | Some { site = Net_trunc; _ } ->
      (* Torn frame: deliver the length prefix plus part of the payload,
         then cut the connection — the receiver's decoder must hold the
         partial frame without mis-parsing it. *)
      let cut = 4 + max 1 (String.length payload / 2) in
      write_all dst (String.sub frame 0 (min cut (String.length frame - 1)));
      sever src dst;
      raise Severed
  | Some { site = Net_sever; _ } ->
      sever src dst;
      raise Severed
  | Some _ -> (* schedules are validated net-only *) write_all dst frame

(* Pump both directions of one relayed connection until EOF, a severing
   fault, or proxy stop. *)
let conn_loop t ~client ~server =
  let dir_up = (t.up, P.Decoder.create (), client, server) in
  let dir_down = (t.down, P.Decoder.create (), server, client) in
  let buf = Bytes.create 65536 in
  (try
     let eof = ref false in
     while (not !eof) && not (Atomic.get t.stop_flag) do
       match
         restart_eintr (fun () -> Unix.select [ client; server ] [] [] 0.2)
       with
       | [], _, _ -> ()
       | ready, _, _ ->
           List.iter
             (fun fd ->
               let sched, dec, src, dst =
                 if fd = client then dir_up else dir_down
               in
               let n =
                 restart_eintr (fun () ->
                     Unix.read src buf 0 (Bytes.length buf))
               in
               if n = 0 then eof := true
               else begin
                 P.Decoder.feed dec buf 0 n;
                 let rec frames () =
                   match P.Decoder.next dec with
                   | Some payload ->
                       relay t sched ~src ~dst payload;
                       frames ()
                   | None -> ()
                 in
                 frames ()
               end)
             ready
     done
   with Severed | Unix.Unix_error _ | End_of_file | P.Malformed _ -> ());
  sever client server;
  close_quiet client;
  close_quiet server

let handle_conn t client =
  match Wire.Client.connect_fd t.upstream with
  | exception _ -> close_quiet client
  | server ->
      let d = Domain.spawn (fun () -> conn_loop t ~client ~server) in
      Mutex.lock t.mu;
      t.conns <- d :: t.conns;
      Mutex.unlock t.mu

let accept_loop t =
  while not (Atomic.get t.stop_flag) do
    match restart_eintr (fun () -> Unix.select [ t.listen_fd ] [] [] 0.2) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.listen_fd with
        | client, _ ->
            (match t.bound with
            | Wire.Client.Tcp _ -> Unix.setsockopt client Unix.TCP_NODELAY true
            | _ -> ());
            handle_conn t client
        | exception Unix.Unix_error _ -> ())
  done

let start ?sched_up ?sched_down ?on_fault ~listen ~upstream () =
  (* Relaying into severed sockets is this proxy's job description. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound = Wire.Client.listen listen in
  let t =
    {
      listen_fd;
      bound;
      upstream;
      stop_flag = Atomic.make false;
      accept_domain = None;
      conns = [];
      mu = Mutex.create ();
      up = { points = check_sched sched_up; frames = 0 };
      down = { points = check_sched sched_down; frames = 0 };
      injected = Array.make Chaos.Site.count 0;
      on_fault;
    }
  in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let addr t = t.bound

let injected t site =
  Mutex.lock t.mu;
  let n = t.injected.(Chaos.Site.index site) in
  Mutex.unlock t.mu;
  n

let injected_total t =
  Mutex.lock t.mu;
  let n = Array.fold_left ( + ) 0 t.injected in
  Mutex.unlock t.mu;
  n

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    close_quiet t.listen_fd;
    (match t.accept_domain with
    | Some d ->
        Domain.join d;
        t.accept_domain <- None
    | None -> ());
    Mutex.lock t.mu;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.mu;
    List.iter Domain.join conns;
    match t.bound with
    | Wire.Client.Unix_sock path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  end
