(** Chrome/Perfetto [trace_event] JSON exporter.

    Renders {!Trace} rings, {!Stall} rings (and optional {!Series}) as a
    [{"traceEvents": [...]}] document that loads directly in
    {{:https://ui.perfetto.dev}Perfetto} or [chrome://tracing]:

    - {!Trace.Slice}s (checkpoints, recoveries and their phases, sfences,
      wbinvds, sweep quanta) become complete (["X"]) slices whose width
      is their duration on the simulated clock;
    - consecutive checkpoint starts frame synthesized ["epoch N"] slices,
      so each epoch's dirty-line buildup and boundary flush burst reads
      as one box;
    - every other event becomes an instant event with its payload in
      [args];
    - each series becomes a Perfetto counter track (["C"] events).

    Timestamps convert from simulated ns to the format's microseconds. *)

val export :
  ?pid:int ->
  ?series:(string * Series.t) list ->
  ?stalls:(string * Stall.t) list ->
  tracks:(string * Trace.t) list ->
  unit ->
  Json.t
(** One track (tid) per named trace ring — shards pass one ring each.
    Track names appear via [thread_name] metadata events. Each named
    {!Stall} ledger becomes its own dedicated track (tids above the trace
    tracks) of complete slices named by {!Stall.cause_name}, so a shard's
    stalls read side by side with its op timeline. *)

val events_of_stalls : pid:int -> tid:int -> Stall.t -> Json.t list
(** The raw slice list for one stall ledger (no metadata, no wrapper). *)
