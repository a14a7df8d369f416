// The AVX2 compaction kernels of util::QuantileSketch
// (util/stats_avx2.cpp). QuantileSketch calls them only where
// util::resolve_simd_kernel chose kAvx2 and the size is one they cover;
// every other compaction runs the scalar kernels in util/stats.cpp.
#pragma once

#include <bit>
#include <cstddef>

#include "util/simd.hpp"

namespace spoofscope::util::sketch {

/// Sizes sort_avx2 covers: powers of two of at least one 32-value
/// register block (level 0's k-value fill for k = 32, 64, 256, ...).
constexpr bool avx2_sorts(std::size_t n) {
  return n >= 32 && std::has_single_bit(n);
}

/// Sizes merge_avx2 covers: two halves of one power-of-two length of at
/// least 32 (the k/2 + k/2 merge of k = 64, 256, ...).
constexpr bool avx2_merges(std::size_t a, std::size_t b) {
  return a == b && a >= 32 && std::has_single_bit(a);
}

#if SPOOFSCOPE_KERNEL_AVX2
/// Sorts v[0, n) ascending with a bitonic network; avx2_sorts(n) must
/// hold (n a power of two >= 32).
void sort_avx2(double* v, std::size_t n);

/// Merges the sorted a[0, m) and b[0, m) into out[0, 2m) with a bitonic
/// merge; avx2_merges(m, m) must hold. out may be a when b is a + m.
void merge_avx2(const double* a, const double* b, std::size_t m, double* out);
#endif

}  // namespace spoofscope::util::sketch
