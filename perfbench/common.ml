(* Shared set-up of every workload: the store configuration (the
   server's, stated once), per-phase measurement and the result record. *)

module Sys_ = Incll.System
module Y = Workload.Ycsb

(* ----------------------------------------------------------- config *)

(* The serving daemon's NVM configuration (bin/incll_server.ml
   [config_for]): Precise crash support, the paper's throughput
   checkpoint policy, 16 ms simulated epochs, the default cost model and
   simulated cache, a 4 MiB external log. The in-process workloads use
   the same, so the serve workload differs from kv_a_zipf only by the
   serving path. *)
let epoch_ms = 16.0
let log_kb = 4096
let policy = Nvm.Config.Throughput

(* Region sized to the key count: 192 B per key covers the tree, the
   allocator's slack and the inserts of a YCSB-E run, rounded up to a
   16 MiB multiple. *)
let size_mb nkeys =
  let mb = ((nkeys * 192) + (1 lsl 20) - 1) lsr 20 in
  max 16 ((mb + 15) / 16 * 16)

let config ?(crash_support = Nvm.Config.Precise) ~nkeys () =
  {
    Sys_.default_config with
    Sys_.nvm =
      Nvm.Config.with_policy
        {
          Nvm.Config.default with
          Nvm.Config.size_bytes = size_mb nkeys * 1024 * 1024;
          extlog_bytes = log_kb * 1024;
          crash_support;
        }
        policy;
    epoch_len_ns = epoch_ms *. 1e6;
  }

(* ------------------------------------------------------------ sizes *)

type sizes = {
  warm_ops : int;  (** untimed ops between populate and the timed phase *)
  det_ops : int;
      (** the deterministic window: simulated-clock and count metrics
          are taken over exactly the first [det_ops] ops of the timed
          stream (serve: replayed in-process), so they repeat bit for
          bit for a seed whatever the host's speed *)
  crash_ops : int;  (** ops run between the checkpoint and the crash (kv) *)
  rss_ops : int;
      (** timed-phase op count at which peak RSS is read, so the reading
          does not grow with the host's speed *)
}

(* ------------------------------------------------------ measurement *)

(* One timed phase. Throughput, the read and put medians and p99 are
   taken per 250 ms window of wall time, throughput as ops / summed op
   time (harness generation and checking excluded).

   Throughput and the two medians are reported as the level the phase
   sustained in 90% of its windows: the 10th percentile of the window
   throughputs, the 90th percentile of the window medians. On a shared
   host the speed of the same code comes and goes in spells of seconds
   (one 20 s serve run ran at 16 Kops/s for seconds at a time and
   at 20-25 in between), so a run's median window landed on whichever
   level its spells favoured. Over ten runs of each workload on a busy
   host the window medians spread by 21-39% of their median (the
   quartile distance), the sustained levels by 10-15%.

   p99 is the median over the windows: a window's p99 rests on 1% of its
   ops (about 45 in serve), so its upper quantiles follow single slow
   spells (the sustained level spread by 32% on serve, the median by
   18%). *)
module Meas = struct
  let window_ns = 250_000_000
  let max_windows = 4096

  type t = {
    get : Lat.t;
    put : Lat.t;
    scan : Lat.t;
    win_ops : int array;
    win_busy : int array;
    win_p99 : int array;
    win_read_p50 : int array;  (** -1: no read in the window *)
    win_put_p50 : int array;  (** -1: no put in the window *)
    win : Lat.t;  (** the current window's latencies *)
    win_read : Lat.t;  (** the current window's GETs and SCANs *)
    win_put : Lat.t;
    mutable cur_w : int;
    start : int;
    mutable ops : int;
    mutable busy_ns : int;
    mutable failed : int;
    mutable puts : int;
    mutable put_bytes : int;  (** key + value bytes PUT *)
  }

  let create () =
    {
      get = Lat.create ();
      put = Lat.create ();
      scan = Lat.create ();
      win_ops = Array.make max_windows 0;
      win_busy = Array.make max_windows 0;
      win_p99 = Array.make max_windows 0;
      win_read_p50 = Array.make max_windows (-1);
      win_put_p50 = Array.make max_windows (-1);
      win = Lat.create ();
      win_read = Lat.create ();
      win_put = Lat.create ();
      cur_w = 0;
      start = Clock.now_ns ();
      ops = 0;
      busy_ns = 0;
      failed = 0;
      puts = 0;
      put_bytes = 0;
    }

  let note m lat ~t0 ~t1 =
    let d = t1 - t0 in
    Lat.add lat d;
    let w = min (max_windows - 1) ((t1 - m.start) / window_ns) in
    if w <> m.cur_w then begin
      let p50 l = if Lat.count l = 0 then -1 else Lat.quantile_ns l 0.5 in
      m.win_p99.(m.cur_w) <- Lat.quantile_ns m.win 0.99;
      m.win_read_p50.(m.cur_w) <- p50 m.win_read;
      m.win_put_p50.(m.cur_w) <- p50 m.win_put;
      Lat.clear m.win;
      Lat.clear m.win_read;
      Lat.clear m.win_put;
      m.cur_w <- w
    end;
    Lat.add m.win d;
    Lat.add (if lat == m.put then m.win_put else m.win_read) d;
    Array.unsafe_set m.win_ops w (Array.unsafe_get m.win_ops w + 1);
    Array.unsafe_set m.win_busy w (Array.unsafe_get m.win_busy w + d);
    m.ops <- m.ops + 1;
    m.busy_ns <- m.busy_ns + d

  let note_put m ~key ~value =
    m.puts <- m.puts + 1;
    m.put_bytes <- m.put_bytes + String.length key + String.length value

  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else if n land 1 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

  (* Per-window values of the complete windows that saw ops (the
     current, partial one is dropped). *)
  let per_window m f =
    List.filter_map
      (fun w -> if m.win_ops.(w) > 0 then Some (f w) else None)
      (List.init m.cur_w Fun.id)

  let sustained = 0.9

  (* Nearest-rank [q]-quantile of the window values, or [whole] (the
     whole phase's figure) when fewer than three windows have one. *)
  let across_windows vals q ~whole =
    let a = Array.of_list vals in
    let n = Array.length a in
    if n < 3 then whole ()
    else begin
      Array.sort compare a;
      a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
    end

  let throughput_kops m =
    across_windows
      (per_window m (fun w ->
           float_of_int m.win_ops.(w) /. float_of_int m.win_busy.(w) *. 1e6))
      (1.0 -. sustained)
      ~whole:(fun () ->
        if m.busy_ns = 0 then 0.0
        else float_of_int m.ops /. float_of_int m.busy_ns *. 1e6)

  let all m =
    let a = Lat.create () in
    Lat.merge_into ~into:a m.get;
    Lat.merge_into ~into:a m.put;
    Lat.merge_into ~into:a m.scan;
    a

  let p50_ns m win whole =
    across_windows
      (List.filter (fun v -> v >= 0.0) (per_window m (fun w -> float_of_int win.(w))))
      sustained
      ~whole:(fun () -> Lat.quantile whole 0.5)

  let p99_ns m =
    let p = per_window m (fun w -> float_of_int m.win_p99.(w)) in
    if List.length p >= 3 then median (Array.of_list p) else Lat.quantile (all m) 0.99

  (* GETs, or SCANs in a workload without GETs. *)
  let read_p50_ns m =
    p50_ns m m.win_read_p50 (if Lat.count m.get > 0 then m.get else m.scan)

  let put_p50_ns m = p50_ns m m.win_put_p50 m.put
end

let us ns = ns /. 1000.0

(* ----------------------------------------------------------- result *)

type result = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable setup_s : float;
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable notes : string list;  (** check failures, for stderr *)
}

let result () =
  { correct = true; attempted = 0; failed = 0; setup_s = 0.0; metrics = []; notes = [] }

let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

let fail r fmt =
  Printf.ksprintf
    (fun s ->
      r.correct <- false;
      r.notes <- s :: r.notes)
    fmt

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Every GET must return the seeded model's value: YCSB puts write
   [value_for key] and every key read is loaded. *)
let check_get ~expect = function Some v -> String.equal v expect | None -> false

(* A scan returns strictly increasing keys from [start], each with its
   model value, and exactly [n] of them unless it ran off the end of the
   key space. *)
let check_scan ~start ~n ~max_key pairs =
  let rec go prev k = function
    | [] -> (k, prev)
    | (key, v) :: tl ->
        if String.compare key prev <= 0 && k > 0 then (-1, prev)
        else if k = 0 && String.compare key start < 0 then (-1, prev)
        else if not (String.equal v (Y.value_for key)) then (-1, prev)
        else go key (k + 1) tl
  in
  let k, last = go start 0 pairs in
  k >= 0
  && (k = n || (k < n && (k = 0 && String.compare start max_key > 0
                          || String.equal last max_key)))
