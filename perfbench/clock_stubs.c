/* Monotonic nanosecond clock for the benchmark's timers: an unboxed
   int, so reading it allocates nothing on the timed path. */
#include <time.h>
#include <caml/mlvalues.h>

value pbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
