/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a string
   slice, for crc32.ml.

   Two paths, which give the same value:

   - The fold, on an x86-64 CPU with PCLMULQDQ and SSE4.1.  A slice of
     64 bytes or more has its first [len & ~15] bytes folded 128 bits at
     a time by carry-less multiplication, four lanes abreast, then one
     16-byte block at a time, and is reduced to 32 bits by Barrett
     reduction: Gopal et al., "Fast CRC Computation for Generic
     Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
   - The tables: slicing-by-8 over eight 256-entry tables.  It takes
     slices under 64 bytes, the last [len % 16] bytes after a fold, and
     every slice on a host without the instructions.

   [dcp_crc32_init] builds the tables and picks the path once, at module
   initialisation, before any domain starts; both are read-only after
   it.  The OCaml side checks bounds, so [dcp_crc32_digest] is only ever
   given a slice inside its string. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

#define POLY 0xedb88320u

/* table[0] is the byte-at-a-time table; table[k] is table[k - 1]
   advanced through one more zero byte. */
static uint32_t table[8][256];

static uint32_t crc_tables(uint32_t crc, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t x = crc ^ ((uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
                        | (uint32_t)p[3] << 24);
    crc = table[7][x & 0xff] ^ table[6][(x >> 8) & 0xff] ^ table[5][(x >> 16) & 0xff]
          ^ table[4][x >> 24] ^ table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]]
          ^ table[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0)
    crc = (crc >> 8) ^ table[0][(crc ^ *p++) & 0xff];
  return crc;
}

#if defined(__x86_64__)
#include <immintrin.h>

static int use_fold;

/* The constants of the reflected domain, for P = 0x104C11DB7.  k1..k4
   are x^(4*128+32), x^(4*128-32), x^(128+32) and x^(128-32) mod P, the
   distances a 128-bit lane moves over 64 bytes and over 16 bytes; k5 is
   x^64 mod P, for the 64-bit step; each is reflected in 32 bits and
   shifted left by one.  P' is P and mu is floor(x^64 / P), each
   reflected in 33 bits, for the Barrett reduction. */
#define K1 0x154442bd4ull
#define K2 0x1c6e41596ull
#define K3 0x1751997d0ull
#define K4 0x0ccaa009eull
#define K5 0x163cd6124ull
#define P_PRIME 0x1db710641ull
#define MU 0x1f7011641ull

/* One lane moved forward by the distance in [k] and added to [next]. */
__attribute__((target("pclmul,sse4.1")))
static inline __m128i fold(__m128i lane, __m128i k, __m128i next)
{
  __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/* [len] is a multiple of 16, at least 64.  Takes and returns the
   running (pre-inverted) CRC. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_fold(uint32_t crc, const unsigned char *p, size_t len)
{
  const __m128i *q = (const __m128i *)p;
  __m128i x1 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)crc));
  __m128i x2 = _mm_loadu_si128(q + 1);
  __m128i x3 = _mm_loadu_si128(q + 2);
  __m128i x4 = _mm_loadu_si128(q + 3);
  __m128i k = _mm_set_epi64x(K2, K1);
  for (q += 4, len -= 64; len >= 64; q += 4, len -= 64) {
    x1 = fold(x1, k, _mm_loadu_si128(q));
    x2 = fold(x2, k, _mm_loadu_si128(q + 1));
    x3 = fold(x3, k, _mm_loadu_si128(q + 2));
    x4 = fold(x4, k, _mm_loadu_si128(q + 3));
  }
  k = _mm_set_epi64x(K4, K3);
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; len >= 16; q++, len -= 16)
    x1 = fold(x1, k, _mm_loadu_si128(q));

  /* 128 bits to 64: the low half moves by k4 onto the high half. */
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  /* 64 bits to 32 plus 32: the low word moves by k5. */
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32),
                                          _mm_set_epi64x(0, K5), 0x00));
  /* Barrett reduction to 32 bits. */
  k = _mm_set_epi64x(MU, P_PRIME);
  __m128i t = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10), mask32);
  x1 = _mm_xor_si128(x1, _mm_clmulepi64_si128(t, k, 0x00));
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

CAMLprim value dcp_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int bit = 0; bit < 8; bit++)
      c = (c & 1) ? (c >> 1) ^ POLY : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xff];
#if defined(__x86_64__)
  __builtin_cpu_init();
  use_fold = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

CAMLprim value dcp_crc32_digest(value s, value pos, value len)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(pos);
  size_t n = (size_t)Long_val(len);
  uint32_t crc = 0xffffffffu;
#if defined(__x86_64__)
  if (use_fold && n >= 64) {
    size_t folded = n & ~(size_t)15;
    crc = crc_fold(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return Val_long(crc_tables(crc, p, n) ^ 0xffffffffu);
}
