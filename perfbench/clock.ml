external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]
(** CLOCK_MONOTONIC in ns; allocation-free. *)
