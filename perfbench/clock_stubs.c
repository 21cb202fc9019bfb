/* Monotonic nanosecond clock for the benchmark's op timings.
   Unix.gettimeofday steps in whole microseconds (about half an
   in-process GET) and boxes a float; this returns an untagged int and
   never allocates, so timing an op does not perturb the GC counters the
   benchmark also reports. */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_unboxed(unit));
}
