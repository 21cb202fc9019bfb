(** Configuration of the simulated NVM memory system.

    The simulator models the machine of the paper's §6: a write-back CPU
    cache in front of byte-addressable NVM, with explicit write-back
    ([clwb]) and ordering ([sfence]) instructions, a privileged global flush
    ([wbinvd]) and the PCSO persistence-ordering model of §2.1. *)

val line_size : int
(** Cache-line size in bytes (64, as on the paper's Skylake host). *)

val line_shift : int
(** [log2 line_size]. *)

type cost_model = {
  op_base_ns : float;
      (** Baseline cost charged per data-structure operation; calibrated so
          one thread runs at a few Mops/s like the paper's Masstree. *)
  write_ns : float;
      (** Cost of one store to NVM space (a cached store: cheap). The InCLL
          bookkeeping stores surface in simulated time through this. *)
  read_ns : float;  (** Cost of one load from NVM space (cached). *)
  mem_miss_ns : float;
      (** Extra cost when the accessed line misses the simulated
          last-level cache (a direct-mapped tag array sized like the
          paper's 19.25 MB L3). This is what makes large trees slower
          than small ones (Figure 5) and skewed workloads faster than
          uniform ones (§6): locality is priced, not assumed. *)
  clwb_ns : float;
      (** Cost of initiating an asynchronous cache-line write-back. Cheap:
          clwb does not wait for the memory round trip. *)
  sfence_ns : float;
      (** Base cost of an [sfence] that must drain outstanding write-backs:
          a full round trip to NVM. *)
  sfence_extra_ns : float;
      (** Additional emulated NVM latency added after each draining
          [sfence]. This is the 0–1000 ns sweep variable of Figures 3/8. *)
  wbinvd_base_ns : float;
      (** Fixed cost of the global cache flush syscall (§6.2 measures the
          total at 1.38–1.39 ms for a 19.25 MB L3). *)
  wbinvd_per_line_ns : float;  (** Per-dirty-line cost of the global flush. *)
}

val default_cost_model : cost_model
(** Constants calibrated against §6: a full cache of dirty lines flushes in
    ≈1.4 ms, and an 8-thread Masstree-like op costs ≈150 ns. *)

type crash_support =
  | Counting  (** Track dirty lines and statistics only; crashes disallowed.
                  Fast mode for pure-throughput benchmarks. *)
  | Precise  (** Additionally journal each dirty line's pending stores
                 with the bytes they overwrote, which derives the persisted
                 view and enables PCSO-faithful crash injection. *)

(** Checkpoint-scheduling policy (DESIGN.md §15). Selects how the epoch
    manager drains the dirty set at a checkpoint and when it decides to
    start one; durability semantics are identical under every policy. *)
type policy =
  | Throughput
      (** The paper's scheduler: fixed-period epochs, stop-the-world
          [wbinvd] flush. Default; bit-identical to the pre-policy
          behaviour. *)
  | Latency
      (** Tail-optimised: incremental bounded clwb sweep interleaved with
          op execution (no single stall exceeds the sweep budget), with
          dirty-line and extlog pressure starting checkpoints early. *)
  | Rto
      (** Recovery-time-optimised: short epochs and aggressive pressure
          triggers bound the rollback window and the replayable log at a
          throughput cost. *)

val policy_name : policy -> string
val policy_of_string : string -> policy
(** Inverse of {!policy_name}; raises [Invalid_argument] on anything
    else. *)

type t = {
  size_bytes : int;  (** Size of the persistent region. *)
  extlog_bytes : int;  (** Size of the external-log slice of the region. *)
  crash_support : crash_support;
  max_dirty_lines : int option;
      (** Simulated cache capacity in lines. When the number of dirty lines
          exceeds it, random victim lines are written back — modelling the
          cache-replacement write-backs that make the paper's epoch flush
          cheap ("modified cache lines may have been written back during the
          epoch", §1). [None] disables background eviction. *)
  evict_batch : int;
      (** How many victims to write back when over capacity. *)
  max_line_log_bytes : int;
      (** In [Precise] mode, a line whose pending-write log outgrows this
          bound is evicted (a legal cache behaviour) to bound memory. *)
  trace_capacity : int;
      (** Capacity (events) of the region's trace ring. The default 4096
          suffices for interactive poking; timeline exports
          ([bench --trace]) raise it so whole epochs survive the ring. *)
  policy : policy;
      (** The checkpoint schedule. The drain, the period divisor and the
          pressure thresholds all follow from it; their values live in
          [Epoch.Manager] (DESIGN.md §15). *)
  cost : cost_model;
}

val default : t

val with_sfence_extra_ns : t -> float -> t

val with_policy : t -> policy -> t
(** [with_policy t p] is [{ t with policy = p }]. *)
