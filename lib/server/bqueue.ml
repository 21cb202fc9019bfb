type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mu : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* Written under [mu], read without it. [armed] <=> exactly one byte
     sits in the pipe, and it is set whenever [q] is non-empty outside a
     push, so a consumer that reads it false has nothing to pop. *)
  armed : bool Atomic.t;
  closed : bool Atomic.t;
}

let create ~capacity =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { q = Queue.create (); capacity; mu = Mutex.create (); wake_r; wake_w;
    armed = Atomic.make false; closed = Atomic.make false }

(* Under [mu]: keeps "armed <=> one byte in the pipe", so the consumer's
   select sees the fd readable exactly while there is work (or close). *)
let arm t =
  if not (Atomic.get t.armed) then begin
    Atomic.set t.armed true;
    ignore (Unix.write_substring t.wake_w "!" 0 1)
  end

let push_aux t x ~bounded =
  Mutex.protect t.mu (fun () ->
      let ok =
        (not (Atomic.get t.closed))
        && ((not bounded) || Queue.length t.q < t.capacity)
      in
      if ok then begin
        Queue.push x t.q;
        arm t
      end;
      ok)

let try_push t x = push_aux t x ~bounded:true
let push_unbounded t x = push_aux t x ~bounded:false

let pop_batch t ~max =
  (* Disarmed: empty, or a push is still inside [mu] and will arm. *)
  if not (Atomic.get t.armed) then []
  else
    Mutex.protect t.mu (fun () ->
        let out = List.init (min max (Queue.length t.q)) (fun _ -> Queue.pop t.q) in
        if Queue.is_empty t.q && Atomic.get t.armed && not (Atomic.get t.closed)
        then begin
          Atomic.set t.armed false;
          ignore (Unix.read t.wake_r (Bytes.create 1) 0 1)
        end;
        out)

let wake_fd t = t.wake_r
let kick t = Mutex.protect t.mu (fun () -> arm t)

let close t =
  Mutex.protect t.mu (fun () ->
      Atomic.set t.closed true;
      arm t)

let is_closed t = Atomic.get t.closed

let release t =
  Unix.close t.wake_r;
  Unix.close t.wake_w
