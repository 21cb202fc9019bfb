external now_ns : unit -> (float[@unboxed])
  = "util_clock_now_ns" "util_clock_now_ns_unboxed"
[@@noalloc]
