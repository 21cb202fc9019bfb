/* Ask the kernel to back a fresh volatile image with transparent huge
   pages (Region.fresh_image calls this before the image is first
   touched). Advice only: where THP is off, or madvise fails, nothing
   changes. */

#include <stdint.h>
#include <unistd.h>
#include <sys/mman.h>
#include <caml/mlvalues.h>

value incll_madvise_hugepage(value b)
{
#ifdef MADV_HUGEPAGE
  uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
  uintptr_t start = (uintptr_t)Bytes_val(b);
  uintptr_t lo = (start + page - 1) & ~(page - 1);
  uintptr_t hi = (start + caml_string_length(b)) & ~(page - 1);
  if (hi > lo) (void)madvise((void *)lo, hi - lo, MADV_HUGEPAGE);
#endif
  return Val_unit;
}
