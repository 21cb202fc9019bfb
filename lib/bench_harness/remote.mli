(** Remote bench harness: drives an [incll_server] over the wire protocol
    with the same seeded YCSB streams as the in-process runner, open-loop
    with coordinated-omission-corrected wall latency.

    The measured phase sends each op at its intended arrival time
    (offered rate, never gated on replies) over one pipelined connection
    and records [recv - intended_arrival] per op, so an op stuck behind a
    server stall is charged its whole wait. Per-op attribution uses the
    evidence the reply carries: the shard-queue wait measured by the
    server ([queue_ns], the [net_queue] stall) and the dominant
    persistence-stall cause overlapping execution. Server-side per-cause
    stalled time over the measured window comes from diffing STATS
    snapshots taken before and after.

    Unlike the in-process runner, every number here is wall clock — host
    noise included. The serve gate therefore diffs the report against
    itself (schema/plumbing, attribution floor) rather than against a
    committed baseline. *)

type result = {
  busy : int;  (** Measured ops bounced with BUSY (not applied). *)
  mops_wall : float;  (** Completion rate over the measured phase. *)
  calibrated_mops : float;  (** Closed-loop capacity estimate. *)
  latency : Latency_report.t;
      (** Per-op CO-corrected wall latency at the offered rate, the
          attribution by {!attribute}, the server's per-cause stall
          totals over the measured window (from the STATS diff), the
          slowest ops with the evidence their replies carried, and the
          robustness probe's telemetry. *)
  oracle_ok : bool option;  (** [None] when the oracle was not requested. *)
}

val attribute :
  threshold_ns:float ->
  lat_ns:float ->
  queue_ns:float ->
  Obs.Stall.cause option ->
  Obs.Stall.cause option
(** The cause an over-threshold op is blamed on, from its reply:
    [Net_queue] when the server's shard-queue wait is at least half the
    latency or accounts for all of it above the threshold; otherwise the
    persistence stall the server reported; with none, [Net_queue] if the
    op queued at all, else [None]. *)

val run :
  addr:Wire.Client.addr ->
  seed:int ->
  n:int ->
  mix:Workload.Ycsb.mix ->
  dist:Workload.Ycsb.dist ->
  nkeys:int ->
  ?arrival_rate:float ->
  (* offered ops per wall second; default 0.9 x calibrated capacity *)
  ?latency_threshold_ns:float ->
  ?oracle:Incll.System.config * int ->
  (* replay the same streams through an in-process [Store.Sharded] with
     this config and shard count and compare complete final states
     (BUSY-bounced mutations are skipped on both sides) *)
  unit ->
  result
(** Connect, populate [nkeys] keys (BUSY retried — population must be
    complete), calibrate closed-loop capacity on a disjoint seeded
    stream, then run the measured open-loop stream, the oracle check
    (when requested) and the robustness probe. Raises [Failure] on
    protocol errors, on oracle mismatch, and when the probe's duplicate
    stamp is not deduplicated. *)
