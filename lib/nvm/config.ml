let line_size = 64
let line_shift = 6

type cost_model = {
  op_base_ns : float;
  write_ns : float;
  read_ns : float;
  mem_miss_ns : float;
  clwb_ns : float;
  sfence_ns : float;
  sfence_extra_ns : float;
  wbinvd_base_ns : float;
  wbinvd_per_line_ns : float;
}

(* Calibration: §6.2 reports 1.38-1.39 ms to flush a 19.25 MB L3
   (~300 K lines) => ~4.3 ns/line + ~100 us base. Masstree on the paper's
   Skylake runs at roughly 5-7 Mops/s/thread => ~110 ns of fixed per-op
   cost plus per-access charges; an LLC miss costs a DRAM round trip
   (~30 ns at full bandwidth); an sfence that waits for NVM is on the
   order of a full memory round trip, ~100 ns. *)
let default_cost_model =
  {
    op_base_ns = 120.0;
    write_ns = 1.5;
    read_ns = 0.4;
    mem_miss_ns = 14.0;
    clwb_ns = 5.0;
    sfence_ns = 100.0;
    sfence_extra_ns = 0.0;
    wbinvd_base_ns = 100_000.0;
    wbinvd_per_line_ns = 4.3;
  }

type crash_support = Counting | Precise

type policy = Throughput | Latency | Rto

let policy_name = function
  | Throughput -> "throughput"
  | Latency -> "latency"
  | Rto -> "rto"

let policy_of_string = function
  | "throughput" -> Throughput
  | "latency" -> Latency
  | "rto" -> Rto
  | s -> invalid_arg (Printf.sprintf "Config.policy_of_string: %S" s)

type t = {
  size_bytes : int;
  extlog_bytes : int;
  crash_support : crash_support;
  max_dirty_lines : int option;
  evict_batch : int;
  max_line_log_bytes : int;
  trace_capacity : int;
  policy : policy;
  cost : cost_model;
}

let default =
  {
    size_bytes = 64 * 1024 * 1024;
    extlog_bytes = 8 * 1024 * 1024;
    crash_support = Precise;
    max_dirty_lines = Some 300_000;
    evict_batch = 64;
    max_line_log_bytes = 8192;
    trace_capacity = 4096;
    policy = Throughput;
    cost = default_cost_model;
  }

let with_sfence_extra_ns t ns =
  { t with cost = { t.cost with sfence_extra_ns = ns } }

let with_policy t policy = { t with policy }
