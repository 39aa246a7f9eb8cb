/* The benchmark's clock and processor placement.

   perfbench_now: seconds on CLOCK_MONOTONIC, with nanosecond resolution
   (gettimeofday has microseconds, a fiftieth of a serve round trip) and
   unmoved by adjustments of the wall clock.

   perfbench_allowed_cpus / perfbench_set_affinity: the CPUs this process
   may run on, and pinning the calling thread to a set of them (Linux
   sched_getaffinity / sched_setaffinity), for the single-threaded
   passes. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

double perfbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}

value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int i, n = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    CAMLreturn(Atom(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  if (n == 0) CAMLreturn(Atom(0));
  cpus = caml_alloc(n, 0);
  n = 0;
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, n++, Val_int(i));
  CAMLreturn(cpus);
}

value perfbench_set_affinity(value cpus)
{
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    int cpu = Int_val(Field(cpus, i));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
