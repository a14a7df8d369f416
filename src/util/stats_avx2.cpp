// AVX2 compaction kernels of util::QuantileSketch: a bitonic sorting
// network for level 0 and a bitonic merge for the levels above.
//
// Level 0 arrives in runs of equal values (2.7 values per add on the
// paper-scale world, so about 95 runs per 256-value fill), and std::sort
// over the runs is bound by branch mispredictions: which way each
// comparison goes is the data. A sorting network compares fixed
// positions whatever the data, so it has no data-dependent branch at
// all; over the expanded 256 values it does more comparisons than
// std::sort over the runs, four per instruction, and still wins.
//
// Sort (n a power of two >= 32; every other size takes the scalar
// kernel):
//   1. each 32-value block is sorted in eight ymm registers: a
//      19-comparator network sorts the eight values of each lane across
//      the registers, two 4x4 transposes turn the four lanes into four
//      sorted runs of eight, and two rounds of bitonic merges join them;
//   2. memory stages then merge sorted runs of 32 into 64, 128, ...: a
//      flip stage pairs the i-th smallest of one run with the i-th
//      largest of the other, which leaves two bitonic halves, each
//      cleaned by compare-exchanges at distances n/2 down to 32 in
//      memory and the last five in registers.
//
// Merge (two sorted halves of one power-of-two length m >= 32): the same
// flip stage, reading the halves from their own arrays, then the same
// cleaning of each half.
//
// min/max return their second operand when the two compare equal,
// which cannot show: QuantileSketch::add stores -0.0 as +0.0 and
// rejects NaN, so values that compare equal have the same bits.
#include "util/stats_kernels.hpp"

#if SPOOFSCOPE_KERNEL_AVX2

#include <immintrin.h>

namespace spoofscope::util::sketch {

namespace {

using V = __m256d;  // four doubles

// The vector helpers are forced inline: a helper left out of line (GCC
// keeps merge8 out of line otherwise) passes its vectors through the
// stack.

V load(const double* p) { return _mm256_loadu_pd(p); }
void store(double* p, V v) { _mm256_storeu_pd(p, v); }

/// Compare-exchange, lane by lane: a gets the minima, b the maxima.
[[gnu::always_inline]] inline void cmpx(V& a, V& b) {
  const V lo = _mm256_min_pd(a, b);
  b = _mm256_max_pd(a, b);
  a = lo;
}

/// The lanes of v in reverse order.
[[gnu::always_inline]] inline V reversed(V v) {
  return _mm256_permute4x64_pd(v, 0x1B);
}

/// Sorts a bitonic vector: compare-exchange at distance 2, then 1.
[[gnu::always_inline]] inline V sort_bitonic4(V v) {
  V t = _mm256_permute2f128_pd(v, v, 0x01);  // swap the 128-bit halves
  v = _mm256_blend_pd(_mm256_min_pd(v, t), _mm256_max_pd(v, t), 0b1100);
  t = _mm256_permute_pd(v, 0b0101);  // swap the lanes of each half
  return _mm256_blend_pd(_mm256_min_pd(v, t), _mm256_max_pd(v, t), 0b1010);
}

/// 4x4 transpose: afterwards lane c of the inputs is vector c.
[[gnu::always_inline]] inline void transpose(V& a, V& b, V& c, V& d) {
  const V t0 = _mm256_unpacklo_pd(a, b);
  const V t1 = _mm256_unpackhi_pd(a, b);
  const V t2 = _mm256_unpacklo_pd(c, d);
  const V t3 = _mm256_unpackhi_pd(c, d);
  a = _mm256_permute2f128_pd(t0, t2, 0x20);
  b = _mm256_permute2f128_pd(t1, t3, 0x20);
  c = _mm256_permute2f128_pd(t0, t2, 0x31);
  d = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Merges the sorted runs (a0, a1) and (b0, b1) into the sorted 16
/// (a0, a1, b0, b1). The flip pairs a's i-th smallest with b's i-th
/// largest: the minima are the lower 8 as a bitonic sequence, the maxima
/// the upper 8 in reverse order, which is bitonic too.
[[gnu::always_inline]] inline void merge8(V& a0, V& a1, V& b0, V& b1) {
  const V rb1 = reversed(b1);
  const V rb0 = reversed(b0);
  V lo0 = _mm256_min_pd(a0, rb1), hi0 = _mm256_max_pd(a0, rb1);
  V lo1 = _mm256_min_pd(a1, rb0), hi1 = _mm256_max_pd(a1, rb0);
  cmpx(lo0, lo1);
  cmpx(hi0, hi1);
  a0 = sort_bitonic4(lo0);
  a1 = sort_bitonic4(lo1);
  b0 = sort_bitonic4(hi0);
  b1 = sort_bitonic4(hi1);
}

/// Sorts the bitonic 32 values r[0..8): compare-exchange at distances
/// 16, 8 and 4 across vectors, then 2 and 1 inside each.
[[gnu::always_inline]] inline void clean32(V (&r)[8]) {
  cmpx(r[0], r[4]); cmpx(r[1], r[5]); cmpx(r[2], r[6]); cmpx(r[3], r[7]);
  cmpx(r[0], r[2]); cmpx(r[1], r[3]); cmpx(r[4], r[6]); cmpx(r[5], r[7]);
  cmpx(r[0], r[1]); cmpx(r[2], r[3]); cmpx(r[4], r[5]); cmpx(r[6], r[7]);
  for (V& v : r) v = sort_bitonic4(v);
}

/// Sorts the 32 values at p in registers.
void sort32(double* p) {
  V r0 = load(p), r1 = load(p + 4), r2 = load(p + 8), r3 = load(p + 12);
  V r4 = load(p + 16), r5 = load(p + 20), r6 = load(p + 24), r7 = load(p + 28);
  // Each lane's eight values, sorted across the registers.
  cmpx(r0, r2); cmpx(r1, r3); cmpx(r4, r6); cmpx(r5, r7);
  cmpx(r0, r4); cmpx(r1, r5); cmpx(r2, r6); cmpx(r3, r7);
  cmpx(r0, r1); cmpx(r2, r3); cmpx(r4, r5); cmpx(r6, r7);
  cmpx(r2, r4); cmpx(r3, r5);
  cmpx(r1, r4); cmpx(r3, r6);
  cmpx(r1, r2); cmpx(r3, r4); cmpx(r5, r6);
  // Lane c becomes the sorted run (rc, rc+4).
  transpose(r0, r1, r2, r3);
  transpose(r4, r5, r6, r7);
  merge8(r0, r4, r1, r5);  // sorted 16: r0 r4 r1 r5
  merge8(r2, r6, r3, r7);  // sorted 16: r2 r6 r3 r7
  // Flip the two 16s into the lower and (reversed) upper bitonic halves.
  const V a[4] = {r0, r4, r1, r5};
  const V b[4] = {r2, r6, r3, r7};
  V lo[4], hi[4];
  for (int j = 0; j < 4; ++j) {
    const V rb = reversed(b[3 - j]);
    lo[j] = _mm256_min_pd(a[j], rb);
    hi[j] = _mm256_max_pd(a[j], rb);
  }
  cmpx(lo[0], lo[2]); cmpx(lo[1], lo[3]);
  cmpx(lo[0], lo[1]); cmpx(lo[2], lo[3]);
  cmpx(hi[0], hi[2]); cmpx(hi[1], hi[3]);
  cmpx(hi[0], hi[1]); cmpx(hi[2], hi[3]);
  for (int j = 0; j < 4; ++j) {
    store(p + 4 * j, sort_bitonic4(lo[j]));
    store(p + 16 + 4 * j, sort_bitonic4(hi[j]));
  }
}

/// Sorts the bitonic sequence p[0, n), n a power of two >= 32.
void clean_bitonic(double* p, std::size_t n) {
  for (std::size_t d = n / 2; d >= 32; d /= 2) {
    for (std::size_t i = 0; i < n; i += 2 * d) {
      for (std::size_t j = i; j < i + d; j += 4) {
        V a = load(p + j), b = load(p + j + d);
        cmpx(a, b);
        store(p + j, a);
        store(p + j + d, b);
      }
    }
  }
  for (std::size_t i = 0; i < n; i += 32) {
    V r[8];
    for (int j = 0; j < 8; ++j) r[j] = load(p + i + 4 * j);
    clean32(r);
    for (int j = 0; j < 8; ++j) store(p + i + 4 * j, r[j]);
  }
}

}  // namespace

void sort_avx2(double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 32) sort32(v + i);
  for (std::size_t m = 32; m < n; m *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * m) {
      merge_avx2(v + i, v + i + m, m, v + i);
    }
  }
}

void merge_avx2(const double* a, const double* b, std::size_t m, double* out) {
  // Flip: a[i] against b[m - 1 - i]. The minima are the lower half in
  // place; the maxima, stored reversed, are the upper half in place.
  // Each step reads and writes the same two slots when out is a.
  for (std::size_t i = 0; i < m; i += 4) {
    const V x = load(a + i);
    const V y = reversed(load(b + m - 4 - i));
    store(out + i, _mm256_min_pd(x, y));
    store(out + 2 * m - 4 - i, reversed(_mm256_max_pd(x, y)));
  }
  clean_bitonic(out, m);
  clean_bitonic(out + m, m);
}

}  // namespace spoofscope::util::sketch

#endif  // SPOOFSCOPE_KERNEL_AVX2
