// SIMD kernel selection shared by every vectorized hot path: the trace
// decoder (net::MappedTraceReader), the flat plane's batch classifier
// (classify::FlatClassifier::classify_batch) and the quantile sketch's
// compaction (util::QuantileSketch) resolve their kernel through the
// same request -> concrete mapping, so one --simd value or one
// SPOOFSCOPE_SIMD setting pins every layer at once.
//
// Compile-time availability is controlled by feature macros so the tree
// builds on targets with neither AVX2 nor NEON (and with
// -DSPOOFSCOPE_DISABLE_SIMD=ON, which forces the portable build on any
// host — tools/check.sh uses this as the non-x86 compile guard). A layer
// without a kernel for the resolved ISA (decode and the sketch have no
// NEON kernel) runs its scalar code under that selection.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#if !defined(SPOOFSCOPE_DISABLE_SIMD)
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPOOFSCOPE_KERNEL_AVX2 1
#endif
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define SPOOFSCOPE_KERNEL_NEON 1
#endif
#endif
#if !defined(SPOOFSCOPE_KERNEL_AVX2)
#define SPOOFSCOPE_KERNEL_AVX2 0
#endif
#if !defined(SPOOFSCOPE_KERNEL_NEON)
#define SPOOFSCOPE_KERNEL_NEON 0
#endif

namespace spoofscope::util {

/// Which SIMD kernel a hot path runs. kAuto resolves at runtime to the
/// best kernel this build + CPU supports (the SPOOFSCOPE_SIMD
/// environment variable, when set, overrides what kAuto picks — the
/// sanitizer sweeps in tools/check.sh use it to pin kernels without
/// plumbing flags through every test binary).
enum class SimdKernel : std::uint8_t {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// "auto" | "scalar" | "avx2" | "neon".
const char* simd_kernel_name(SimdKernel kernel);

/// Inverse of simd_kernel_name; nullopt on unknown spellings.
std::optional<SimdKernel> parse_simd_kernel(std::string_view name);

/// True when the kernel's code is present in this build (feature macros).
bool simd_kernel_compiled(SimdKernel kernel);

/// True when the kernel can run here: compiled in AND the CPU supports
/// it (AVX2 is runtime-detected; scalar and kAuto are always usable).
bool simd_kernel_usable(SimdKernel kernel);

/// The concrete kernels usable on this host, scalar first — what the
/// differential suites and per-kernel benches iterate over. Never empty.
std::vector<SimdKernel> usable_simd_kernels();

/// Maps a requested kernel to the concrete one to run. kAuto picks the
/// best usable kernel (honouring SPOOFSCOPE_SIMD); an explicit request
/// for an unusable kernel (or an unparseable SPOOFSCOPE_SIMD value)
/// throws std::runtime_error — silently falling back would defeat the
/// differential suites that pin kernels.
SimdKernel resolve_simd_kernel(SimdKernel requested);

}  // namespace spoofscope::util
