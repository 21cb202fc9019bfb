exception Timeout

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Unix_sock (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match (host, int_of_string_opt port) with
          | "", _ | _, None ->
              invalid_arg ("Client.addr_of_string: bad tcp address " ^ s)
          | host, Some port -> Tcp (host, port))
      | None -> invalid_arg ("Client.addr_of_string: tcp needs host:port " ^ s))
  | _ ->
      invalid_arg
        ("Client.addr_of_string: want unix:/path or tcp:host:port, got " ^ s)

let string_of_addr = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* A signal delivered to the process (the CLI installs handlers, the
   server a SIGTERM one) makes blocking syscalls fail with EINTR; always
   resume them. *)
let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = restart_eintr (fun () -> Unix.write fd b !off (n - !off)) in
    off := !off + k
  done

let inet_addr host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with Not_found -> Unix.inet_addr_of_string host

let connect_fd addr =
  let domain, sockaddr =
    match addr with
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (inet_addr host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  fd

let listen addr =
  let fd, bound =
    match addr with
    | Unix_sock path ->
        (* A stale socket file from an earlier run would fail the bind. *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (fd, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (fd, Unix.ADDR_INET (inet_addr host, port))
  in
  (try
     Unix.bind fd bound;
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  match (addr, Unix.getsockname fd) with
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> (fd, Tcp (host, port))
  | _ -> (fd, addr)

type t = {
  fd : Unix.file_descr;
  dec : Proto.Decoder.t;
  rbuf : Bytes.t;
  stash : (int, Proto.reply) Hashtbl.t;
  mutable next_id : int;
  mutable in_flight : int;
}

let connect addr =
  {
    fd = connect_fd addr;
    dec = Proto.Decoder.create ();
    rbuf = Bytes.create 65536;
    stash = Hashtbl.create 64;
    next_id = 0;
    in_flight = 0;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send ?sess t op =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffffffff;
  write_all t.fd (Proto.frame_of_request { Proto.id; op; sess });
  t.in_flight <- t.in_flight + 1;
  id

let pending t = t.in_flight + Hashtbl.length t.stash

(* Wait until [t.fd] is readable or [deadline] (absolute, wall clock)
   passes; raises [Timeout] on expiry. The decoder keeps any partial
   frame, so the connection stays usable after a timeout. *)
let wait_readable t deadline =
  let rec wait () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then raise Timeout;
    match restart_eintr (fun () -> Unix.select [ t.fd ] [] [] remaining) with
    | [], _, _ -> wait ()
    | _ -> ()
  in
  wait ()

let rec read_reply ?deadline t =
  match Proto.Decoder.next t.dec with
  | Some payload -> Proto.reply_of_payload payload
  | None ->
      (match deadline with None -> () | Some dl -> wait_readable t dl);
      let n =
        restart_eintr (fun () -> Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf))
      in
      if n = 0 then raise End_of_file;
      Proto.Decoder.feed t.dec t.rbuf 0 n;
      read_reply ?deadline t

(* Drain the stash first so call/recv interleavings never lose one. *)
let pop_stash t =
  let stashed =
    Hashtbl.fold (fun id r acc -> match acc with None -> Some (id, r) | s -> s)
      t.stash None
  in
  match stashed with
  | Some (id, r) ->
      Hashtbl.remove t.stash id;
      Some r
  | None -> None

let recv ?deadline t =
  match pop_stash t with
  | Some r -> r
  | None ->
      let r = read_reply ?deadline t in
      t.in_flight <- t.in_flight - 1;
      r

let recv_opt t =
  match pop_stash t with
  | Some r -> Some r
  | None -> (
      match Proto.Decoder.next t.dec with
      | Some payload ->
          t.in_flight <- t.in_flight - 1;
          Some (Proto.reply_of_payload payload)
      | None -> (
          match restart_eintr (fun () -> Unix.select [ t.fd ] [] [] 0.0) with
          | [], _, _ -> None
          | _ -> (
              let n = Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) in
              if n = 0 then raise End_of_file;
              Proto.Decoder.feed t.dec t.rbuf 0 n;
              match Proto.Decoder.next t.dec with
              | Some payload ->
                  t.in_flight <- t.in_flight - 1;
                  Some (Proto.reply_of_payload payload)
              | None -> None)))

let call ?deadline ?sess t op =
  let id = send ?sess t op in
  match Hashtbl.find_opt t.stash id with
  | Some r ->
      Hashtbl.remove t.stash id;
      r
  | None ->
      let rec loop () =
        let r = read_reply ?deadline t in
        t.in_flight <- t.in_flight - 1;
        if r.Proto.id = id then r
        else begin
          Hashtbl.replace t.stash r.Proto.id r;
          loop ()
        end
      in
      loop ()

(* --- convenience wrappers ------------------------------------------ *)

let fail_status what (r : Proto.reply) =
  failwith (Printf.sprintf "%s: %s" what (Proto.status_name r.Proto.status))

let get t k =
  match call t (Proto.Get k) with
  | { Proto.status = Proto.Ok; payload = Proto.Value v; _ } -> Some v
  | { Proto.status = Proto.Not_found; _ } -> None
  | r -> fail_status "get" r

let put t k v =
  match call t (Proto.Put (k, v)) with
  | { Proto.status = Proto.Ok; _ } -> ()
  | r -> fail_status "put" r

let delete t k =
  match call t (Proto.Delete k) with
  | { Proto.status = Proto.Ok; _ } -> true
  | { Proto.status = Proto.Not_found; _ } -> false
  | r -> fail_status "delete" r

let scan t ~start ~n =
  match call t (Proto.Scan (start, n)) with
  | { Proto.status = Proto.Ok; payload = Proto.Pairs l; _ } -> l
  | r -> fail_status "scan" r

let stats t fmt =
  match call t (Proto.Stats fmt) with
  | { Proto.status = Proto.Ok; payload = Proto.Text s; _ } -> s
  | r -> fail_status "stats" r
