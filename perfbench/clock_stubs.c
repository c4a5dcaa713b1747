/* CPU time of the whole process (every domain).  Unlike the wall clock,
   it does not advance while the hypervisor or another tenant holds the
   CPU. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value cmsbench_process_cpu(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
