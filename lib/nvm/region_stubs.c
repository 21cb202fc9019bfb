/* Ask the kernel to back a fresh volatile image with transparent huge
   pages (Region.fresh_image calls this before the image is first
   touched). Advice only: where THP is off, or madvise fails, nothing
   changes. */

#include <stdint.h>
#include <string.h>
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

/* Host prefetch hints (Region.prefetch, Region.prefetch_deref): ask the
   host to start loading [lines] 64-byte lines of the image from [addr]
   on, and the 16-bit LLC tag slot of each, so that the loads the
   simulator is about to charge overlap instead of missing one after
   another. Nothing but [prefetch_deref]'s address words is read, and
   nothing simulated changes. A range outside the image is clipped; an empty one is
   ignored. The tag slot of line [l] is [l land (slots - 1)], the slot
   count being half the tag array's length. */

#define LINE_SHIFT 6

#if defined(__GNUC__)
#define PREFETCH(p) __builtin_prefetch((p), 0, 3)
#else
#define PREFETCH(p) ((void)(p))
#endif

/* The length of a [Bytes.t] whose length is a multiple of 8, as the
   image's and the tag array's are: the block's size less its padding
   word, read from the header alone (caml_string_length is a call, and
   reads the block's last byte too). */
#define LEN8(b) ((intnat)(Bosize_val(b) - sizeof(value)))

static inline void prefetch_lines(value img, value tags, intnat size,
                                  intnat addr, intnat lines)
{
  const char *base = (const char *)Bytes_val(img);
  const char *tag_base = (const char *)Bytes_val(tags);
  uintnat slot_mask = ((uintnat)LEN8(tags) >> 1) - 1;
  intnat first, last, line;
  if (addr < 0 || addr >= size || lines <= 0) return;
  first = addr >> LINE_SHIFT;
  last = (size - 1) >> LINE_SHIFT;
  if (lines - 1 < last - first) last = first + lines - 1;
  for (line = first; line <= last; line++) {
    PREFETCH(base + (line << LINE_SHIFT));
    PREFETCH(tag_base + (((uintnat)line & slot_mask) << 1));
  }
}

value incll_prefetch(value img, value tags, intnat addr, intnat lines)
{
  prefetch_lines(img, tags, LEN8(img), addr, lines);
  return Val_unit;
}

value incll_prefetch_byte(value img, value tags, value addr, value lines)
{
  return incll_prefetch(img, tags, Long_val(addr), Long_val(lines));
}

/* For each bit [i] set in [words], prefetch from the address held in
   the little-endian word at [at + 8 i], read host-side like Region's own
   image accessors and truncated to 63 bits like [Int64.to_int]; a word
   outside the image is skipped. One call covers a node's value words. */
value incll_prefetch_deref(value img, value tags, intnat at, intnat words,
                           intnat lines)
{
  intnat size = LEN8(img);
  uintnat m = (uintnat)words;
  intnat a;
  uint64_t w;
  if (at > size - 8) return Val_unit;
  for (a = at; m != 0 && a <= size - 8; m >>= 1, a += 8) {
    if (!(m & 1) || a < 0) continue;
#ifdef ARCH_BIG_ENDIAN
    {
      const unsigned char *p = (const unsigned char *)Bytes_val(img) + a;
      int i;
      w = 0;
      for (i = 7; i >= 0; i--) w = (w << 8) | p[i];
    }
#else
    memcpy(&w, (const unsigned char *)Bytes_val(img) + a, 8);
#endif
    prefetch_lines(img, tags, size, (intnat)(w << 1) >> 1, lines);
  }
  return Val_unit;
}

value incll_prefetch_deref_byte(value img, value tags, value at, value words,
                                value lines)
{
  return incll_prefetch_deref(img, tags, Long_val(at), Long_val(words),
                              Long_val(lines));
}
