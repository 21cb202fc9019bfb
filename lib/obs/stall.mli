(** The interval recorder: one per region (= one shard = one domain; no
    internal locking). Each timed interval is recorded once, at its
    site, and every output is a view of that record:

    - a {e named interval} ({!begin_}/{!end_}: a checkpoint, a recovery
      and its phases) feeds ["span.<name>_ns"] (and
      ["span.<name>_wall_ns"] given a wall clock);
    - a {e point} ({!leaf}: an sfence, a wbinvd, a sweep quantum) is
      charged in one piece and feeds its own histogram;
    - both become a {!Trace.Slice} on the shard's op track while the
      attached trace ring is enabled;
    - a {e stall} is time in which the shard made no progress on user
      operations because the runtime was busy with persistence
      machinery. Stall scopes ({!enter}/{!exit}, or a cause given to a
      named interval) are outermost-wins: nested scopes (an sfence inside
      an extlog append inside a txn fence) are swallowed by the outermost
      one, so each unit of stalled time has exactly one root cause. A
      point outside every scope is a stall of its own cause. Each stall
      feeds ["stall.<cause>_ns"] and is kept in a bounded ring: the
      attribution view the bench runner and the server correlate slow
      operations against, and the shard's stall track in {!Perfetto}. *)

type cause =
  | Epoch_advance  (** stop-the-world wbinvd flush + durable epoch write *)
  | Clwb_sweep  (** sfence-backed clwb drain outside any coarser scope *)
  | Extlog  (** external-log append/seal, or a wrap-forced checkpoint *)
  | Limbo_merge  (** allocator limbo-chain merge at a checkpoint *)
  | Alloc_slow  (** allocator bump slow path (fresh chunk carve-out) *)
  | Txn_fence  (** transaction prepare/commit-record/watermark fences *)
  | Recovery  (** post-crash recovery, all phases *)
  | Net_queue
      (** time a request spent parked in a server shard queue before its
          shard domain picked it up (the serving layer's queueing delay;
          wall clock — the queue exists outside the simulated memory
          system) *)

val all_causes : cause list
(** Every constructor, in declaration order (exhaustiveness tests and
    per-cause tables iterate this). *)

val cause_name : cause -> string
(** Stable lowercase name: ["epoch_advance"], ["clwb_sweep"], ... — used
    as the [stall.<cause>_ns] metric suffix and the Perfetto slice name. *)

val cause_index : cause -> int
(** Position in {!all_causes} — the wire protocol's cause byte. *)

val cause_of_index : int -> cause option
(** Inverse of {!cause_index}; [None] out of range. *)

type entry = {
  cause : cause;
  start_ns : float;  (** clock reading at the start of the stall *)
  dur_ns : float;
  epoch : int;  (** shard epoch current when the stall was recorded *)
}

val dominant_cause : entry list -> t0:float -> t1:float -> cause option
(** The cause with the largest total overlap against the [t0, t1) window
    among [entries] (typically an {!overlapping} result); [None] when
    nothing overlaps. The bench runner's slow-op attribution and the
    server's per-request stall reporting share this. *)

type t

val create :
  ?capacity:int ->
  ?registry:Registry.t ->
  ?trace:Trace.t ->
  ?wall_clock:(unit -> float) ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** A stall ring of at most [capacity] (default 1024) entries. [clock]
    (ns; default stuck at 0, for recorders fed only by {!record}) is
    read as intervals open and close; the region passes its simulated
    clock. Only named intervals read [wall_clock] (ns). Histograms live
    in [registry] (default a private one). *)

val set_epoch : t -> int -> unit
(** Stamp subsequent entries with this epoch (the epoch manager owns the
    epoch counter; the region that owns the recorder does not). *)

val set_min_dur_ns : t -> float -> unit
(** Ring admission filter: stalls shorter than this still feed their
    histogram but are not kept in the ring (per-op sfences would
    otherwise evict the interesting entries). Default 0. *)

(** {1 Stalls} *)

val record : t -> cause -> start_ns:float -> dur_ns:float -> unit
(** Record one stall directly, whatever scope is open (the server's
    [net_queue] waits, on its own wall-clock recorder; tests). *)

val enter : t -> cause -> unit
(** Open a stall scope now. Nested calls only bump a depth counter — the
    outermost cause wins. *)

val exit : t -> unit
(** Close the innermost scope; when the outermost closes, one stall is
    recorded spanning its {!enter} to now. Unbalanced [exit] (no open
    scope) is a no-op. *)

(** {1 Points} *)

type point
(** A kind of interval charged in one piece, made once per recorder. *)

val point :
  t -> name:string -> histogram:string -> ?label:string -> cause -> point
(** Its slice [name], the [histogram] fed with every duration, the
    slice's argument [label], and the [cause] it stalls under when no
    scope is open. *)

val leaf : t -> point -> dur_ns:float -> arg:int -> unit
(** Record a point that just ended, [dur_ns] long, with argument [arg].
    Reads no wall clock; with tracing off it allocates only the stall it
    keeps in the ring, if any. *)

(** {1 Named intervals} *)

type interval = {
  name : string;
  start_ns : float;
  end_ns : float;
  wall_ns : float;  (** wall-clock duration; 0 without a wall clock *)
  children : interval list;
      (** The named intervals that opened and closed inside this one,
          directly, oldest first. *)
}

val begin_ : t -> ?cause:cause -> string -> unit
(** Open the named interval [name] now; with [cause], also a stall scope
    of that cause until it ends. *)

val stall : t -> string -> cause -> unit
(** Make the innermost open interval, which must be [name], a stall
    scope of [cause] from now until it ends: a checkpoint under the
    incremental sweep opens at its boundary but stalls operations only
    from its final drain. *)

val end_ : t -> ?arg:string * int -> string -> interval
(** Close the innermost open interval, which must be [name] (else
    [Invalid_argument]: unbalanced instrumentation is a bug worth
    failing loudly on), and its stall scope. [arg] (label, value) rides
    on its slice. *)

val with_ : t -> string -> (unit -> 'a) -> 'a
(** [with_ t name f] runs [f] as the named interval [name]. If [f]
    raises, the interval stays open, unrecorded: what raised (a crash
    point, say) may have left intervals open inside it too, and the
    crash that follows abandons them all. *)

val abandon : t -> unit
(** Drop every open interval and scope unrecorded: a crash ends them. *)

(** {1 The attribution ring} *)

val length : t -> int
(** Entries currently held in the ring. *)

val capacity : t -> int

val admitted : t -> int
(** Count of entries admitted to the ring since creation or {!clear}
    (≥ [length]; the difference is what wrapped out). *)

val entries : t -> entry list
(** Ring contents, oldest first. *)

val overlapping : t -> t0:float -> t1:float -> entry list
(** Ring entries whose [start_ns, start_ns + dur_ns) interval intersects
    [t0, t1), oldest first. Copies the whole ring: prefer {!since} on a
    per-op path. *)

val since : t -> admitted:int -> entry list
(** Ring entries admitted after the count was [admitted] (a prior
    {!admitted} reading), oldest first; only those still in the ring.
    Costs the entries returned, not the ring. When entries are recorded
    in clock order (a region's are: a stall is admitted when it ends),
    every entry admitted before a reading taken at clock [t0] ends at or
    before [t0], so [dominant_cause (since t ~admitted) ~t0 ~t1] equals
    [dominant_cause (overlapping t ~t0 ~t1) ~t0 ~t1]. A {!clear} in
    between restarts the count. *)

val clear : t -> unit
(** Start a fresh window: drop the ring, the attached trace ring's events
    and any open stall scope, so a timeline's op and stall tracks cover
    the same window. Histograms are left alone — windows diff those. *)
