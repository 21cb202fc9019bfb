(** Persistence-event statistics and the simulated clock.

    The paper's latency figures (3 and 8) emulate slower NVM by adding a
    delay after each [sfence]. In this reproduction the equivalent is a
    virtual clock: every simulated-hardware event advances [sim_ns] by its
    cost-model price, so "throughput under emulated latency" is
    [ops / sim_seconds] and depends only on counted events — exactly the
    quantity the paper sweeps. *)

type clock = { mutable ns : float }
(** The simulated clock, in its own all-float record so hot-path updates
    are unboxed in-place stores (a [mutable float] field in the mixed
    record below would allocate on every charge). *)

type t = {
  mutable writes : int;  (** Individual store instructions to NVM space. *)
  mutable reads : int;  (** Individual load instructions from NVM space. *)
  mutable bytes_written : int;
  mutable clwb : int;  (** Asynchronous line write-back initiations. *)
  mutable sfence : int;  (** Draining fences (full NVM round trips). *)
  mutable release_fence : int;  (** Compiler-only fences: free at run time. *)
  mutable wbinvd : int;  (** Global cache flushes (one per epoch). *)
  mutable wbinvd_lines : int;  (** Dirty lines written back by those flushes. *)
  mutable lines_committed : int;
      (** Lines whose volatile content became durable, for any
          reason (clwb+sfence, eviction, wbinvd, incremental sweep). *)
  mutable sweep_quanta : int;
      (** Bounded incremental-sweep quanta ({!Region.flush_some} calls that
          committed at least one line). *)
  mutable sweep_lines : int;
      (** Dirty lines written back by those sweep quanta. *)
  mutable evictions : int;  (** Capacity write-backs by cache replacement. *)
  mutable crashes : int;
  clock : clock;  (** Simulated elapsed time; read it via {!sim_ns}. *)
}

val create : unit -> t
val reset : t -> unit

val sim_ns : t -> float
(** Simulated elapsed nanoseconds ([t.clock.ns]). *)

val add_ns : t -> float -> unit
val diff : after:t -> before:t -> t
(** Event-count difference (for measuring a window; [sim_ns] also differs). *)

val snapshot : t -> t
val pp : Format.formatter -> t -> unit
(** One-line rendering of {e every} field (kept exhaustive by a test). *)

val int_fields : t -> (string * int) list
(** Every integer counter with its display label, in declaration order
    ([sim_ns] is the only non-member). Feeds [pp], [to_json] and the
    exhaustiveness test. *)

val to_json : t -> Obs.Json.t
(** All fields, as an object. *)
