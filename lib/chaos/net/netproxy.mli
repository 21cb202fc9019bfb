(** Frame-level network fault injector (DESIGN.md §17): a socket proxy
    between a wire client and the serving engine that reassembles
    [Wire.Proto] frames and applies a deterministic {!Chaos.Plan}
    schedule of [net.*] faults to the frame stream.

    Faults are scheduled by {e frame ordinal per direction}: the point
    [{site = Net_drop; hit = 5}] in [sched_down] drops the 5th reply
    frame the server sends — not the 5th second. The ordinals count
    frames across every relayed connection, so a seeded schedule hits
    the same frames every run only while one client connection is
    relayed at a time; with concurrent connections, which connection's
    frame an ordinal lands on depends on scheduling. At most one fault
    applies per frame; points fire in ascending [hit] order.

    Sites: [Net_drop] (frame vanishes), [Net_delay] (delivered ~150 ms
    late), [Net_dup] (delivered twice), [Net_trunc] (cut mid-payload,
    then the connection severed — a torn frame), [Net_sever] (connection
    cut between frames). The proxy keeps its own counters; the global
    {!Chaos.Plan} injector singleton is untouched. *)

type t

val start :
  ?sched_up:Chaos.Plan.point list ->
  ?sched_down:Chaos.Plan.point list ->
  ?on_fault:(Chaos.Plan.point -> unit) ->
  listen:Wire.Client.addr ->
  upstream:Wire.Client.addr ->
  unit ->
  t
(** Bind [listen] (TCP port 0 resolves; read {!addr}) and relay every
    accepted connection to [upstream]. [sched_up] faults client→server
    frames (requests), [sched_down] server→client frames (replies).
    [on_fault] runs on the pump domain as each fault is injected (e.g. a
    torture harness SIGKILLs the server there). Raises
    [Invalid_argument] if a schedule contains a non-[net.*] site. *)

val addr : t -> Wire.Client.addr
(** The bound downstream address (ephemeral TCP port resolved). *)

val injected : t -> Chaos.Site.t -> int
(** Faults actually injected at a site so far, both directions. *)

val injected_total : t -> int

val stop : t -> unit
(** Stop accepting, sever every relayed connection, join the pump
    domains. Idempotent. *)
