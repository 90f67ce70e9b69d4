/* Clock reads for clock.ml, in nanoseconds. */
#include <time.h>
#include <caml/mlvalues.h>

static value read_ns(clockid_t id)
{
  struct timespec t;
  clock_gettime(id, &t);
  return Val_long((long)t.tv_sec * 1000000000L + t.tv_nsec);
}

value perfbench_wall_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_MONOTONIC);
}

value perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_process_cpu_ns(value unit)
{
  (void)unit;
  return read_ns(CLOCK_PROCESS_CPUTIME_ID);
}
