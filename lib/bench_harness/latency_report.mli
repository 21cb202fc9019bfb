(** The result of one latency mode, shared by the in-process runner
    ({!Runner}) and the remote bench ({!Remote}). Each runner picks an
    op's cause its own way (ledger overlap in process, reply evidence
    remotely) and builds one of these; this module alone writes the
    [latency.<mode>] JSON object, and {!cells} is how [bin/bench_compare]
    reads it back. *)

type spike = {
  shard : int;
      (** The stream the op came from: its shard in process; [0] for the
          remote bench's one connection. *)
  index : int;  (** Position in that stream. *)
  tag : char;  (** ['\000'] put, ['\001'] get, ['\002'] scan. *)
  start_ns : float;
      (** Start of the op's latency window: its intended arrival in open
          loop, its dispatch in closed loop. *)
  lat_ns : float;  (** Latency (CO-corrected in open loop). *)
  wall_ns : float;
      (** Wall time: in process the dispatch-to-completion service time;
          remotely every number is wall clock, so [lat_ns]. *)
  queue_ns : float;
      (** Server shard-queue wait the reply reported; [0] in process. *)
  cause : Obs.Stall.cause option;
      (** Dominant persistence stall overlapping the op: from the
          ledger in process, as the server reported it remotely. *)
  stalls : Obs.Stall.entry list;
      (** Ledger entries overlapping the op's window — the in-process
          evidence; [[]] remotely (the ledger lives in the server). *)
}
(** One of the slowest ops of a run, with its evidence. *)

val spike_k : int
(** Spikes kept per run (16). *)

val insert_spike : spike list -> spike -> spike list
(** Add a spike to a slowest-first list of at most {!spike_k}; a spike
    tying one already kept goes after it (first seen stays first). *)

val merge_spikes : spike list list -> spike list
(** The {!spike_k} slowest of several slowest-first lists; ties keep the
    order of the lists, then their order within a list. *)

type robust = {
  ops : int;  (** Probe mutations sent through [Wire.Session]. *)
  retries : int;  (** Session retries the probe consumed. *)
  reconnects : int;  (** Session reconnects during the probe. *)
  backoff_ns : float;  (** Wall time the probe spent backing off. *)
  dedup_hits : int;
      (** Server dedup hits over the probe window; [>= 1] by
          construction (the probe replays one duplicate stamp). *)
}
(** Fault-tolerance telemetry from the remote bench's robustness probe. *)

type t = {
  threshold_ns : float;  (** Attribution threshold. *)
  arrival_rate : float option;
      (** Offered ops per second (simulated in process, wall remotely);
          [None] for a closed loop. *)
  latency : Obs.Histogram.t;  (** Per-op latency, CO-corrected. *)
  wall : Obs.Histogram.t option;
      (** In process: per-op wall service time. [None] remotely, where
          [latency] is already wall clock. *)
  shards : Obs.Histogram.t list;  (** Per-shard [latency]; [[]] remotely. *)
  over_threshold : int;  (** Ops slower than [threshold_ns]. *)
  attributed : (string * int) list;
      (** Over-threshold ops per cause name, {!Obs.Stall.all_causes}
          order, then ["none"]. *)
  stall_totals : (string * (int * float)) list;
      (** Per cause name: (stall count, total stalled ns) over the
          measured window, {!Obs.Stall.all_causes} order. *)
  spikes : spike list;  (** Slowest first, at most {!spike_k}. *)
  robust : robust option;  (** Remote only. *)
}

val attribution : (Obs.Stall.cause option -> int) -> (string * int) list
(** [attribution count] is the [attributed] list: [count (Some c)] for
    every cause, then [count None] as ["none"]. *)

val cause_key : Obs.Stall.cause option -> string
(** The [attributed] key of a cause: its name, or ["none"]. *)

val attributed_ops : t -> int
(** Over-threshold ops blamed on some cause (["none"] excluded). *)

val to_json : ?extra:(string * Obs.Json.t) list -> t -> Obs.Json.t
(** The [latency.<mode>] object. [extra] fields (a runner's throughput,
    say) follow [threshold_ns] and are never gated. *)

val tables : (string * t) list -> Util.Table.t * Util.Table.t
(** The summary table (percentiles, over-threshold count, attributed
    share) and the per-cause stall table, one row group per labelled
    mode. *)

val print_spikes : (string * t) list -> unit
(** The five slowest ops of each labelled mode and their evidence. *)

(** {2 Reading a report back} *)

type gate =
  | Always  (** Higher is worse; always compared. *)
  | If_nonzero
      (** Higher is worse; compared when the baseline is non-zero,
          otherwise a new non-zero value is noted. *)
  | Shown  (** Printed for localisation, never gated. *)

type cell = {
  label : string;  (** e.g. ["p99"], ["stall.epoch_advance"]. *)
  path : string list;
      (** Inside the mode object; a numeric step indexes a list. *)
  gate : gate;
  unit_ : string;  (** Printed after a value: [" ns"] or [""]. *)
}

val cells : Obs.Json.t -> cell list
(** The cells of one [latency.<mode>] object, in print order: the
    percentiles of [merged], each shard's p99, the robustness counters
    and each cause's stalled time. *)

val cell_value : Obs.Json.t -> cell -> float option
(** A cell's value in a [latency.<mode>] object, if present. *)
