// Batch kernels for the flat classification plane.
//
// The DIR-24-8 base table is gather-friendly: classifying a batch is one
// 32-bit gather per src address plus one 16-bit record gather per routed
// row, so the hot path vectorizes cleanly. Three kernels implement the
// same contract behind FlatClassifier::classify_batch:
//
//   kScalar — the portable prefetched loop (always compiled in),
//   kAvx2   — 8-wide AVX2 gathers (x86-64, runtime-detected),
//   kNeon   — 4-wide NEON lanes (aarch64).
//
// Every kernel is bit-identical to the scalar oracle by construction: the
// vector lanes only resolve the pure-table fast path (base entry + full
// membership bits), and any row touching the overflow or interval-set
// fallback lanes is compacted into a pending list and re-run through the
// exact scalar slow lane. classify_batch_oracle_test and
// classify_simd_kernel_test enforce this differentially.
//
// Kernel selection (SimdKernel, the feature macros, SPOOFSCOPE_SIMD) is
// util::resolve_simd_kernel, shared with the trace decoder; the names
// below keep it spelled classify::… for the plane's callers.
#pragma once

#include "util/simd.hpp"

namespace spoofscope::classify {

using util::parse_simd_kernel;
using util::resolve_simd_kernel;
using util::SimdKernel;
using util::simd_kernel_compiled;
using util::simd_kernel_name;
using util::simd_kernel_usable;
using util::usable_simd_kernels;

}  // namespace spoofscope::classify
