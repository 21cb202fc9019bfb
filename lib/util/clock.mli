(** The wall clock the region's interval recorder, the bench runner and
    the server time their durations with. *)

external now_ns : unit -> (float[@unboxed])
  = "util_clock_now_ns" "util_clock_now_ns_unboxed"
[@@noalloc]
(** [CLOCK_MONOTONIC] in nanoseconds from an arbitrary origin: never
    decreases, resolves one nanosecond (a double holds the reading
    exactly for the first 104 days after boot, to 2 ns for the next 104)
    and allocates nothing in native code. Only differences of readings mean
    anything; for a calendar date use [Unix.gettimeofday]. *)
