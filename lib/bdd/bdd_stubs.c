/* Allocator settings for BDD workloads (DESIGN.md §Kernel, GC tuning). */

#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

/* Pin glibc's mmap threshold at 128 KiB.  Left dynamic, glibc raises it
   to the size of the first mmapped block freed, up to 32 MB, so large
   arrays freed after that (resized computed tables, rebuilt unique-table
   stripes) stay in its heap instead of going back to the OS.  Setting it
   explicitly also turns the dynamic adjustment off.  A no-op on other C
   libraries. */
value bdd_pin_mmap_threshold(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  return Val_unit;
}
