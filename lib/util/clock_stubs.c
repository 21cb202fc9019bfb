/* Monotonic nanosecond clock. Unix.gettimeofday returns seconds since
   1970 in a double, which near 1.76e9 s resolves only 2^-22 s (238.4
   ns), and boxes its result; this reads CLOCK_MONOTONIC and returns an
   unboxed double that never allocates. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double util_clock_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value util_clock_now_ns(value unit)
{
  return caml_copy_double(util_clock_now_ns_unboxed(unit));
}
