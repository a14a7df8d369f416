// Small statistics toolkit used by the analysis modules: summary stats,
// empirical CDF/CCDF construction, and linear/log-binned histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/simd.hpp"

namespace spoofscope::util {

/// Summary statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double sum = 0.0;
};

/// Computes summary statistics; returns a zeroed Summary for empty input.
Summary summarize(std::span<const double> xs);

/// Returns the q-quantile (0 <= q <= 1) of `xs` using linear interpolation
/// between order statistics. `xs` need not be sorted. Empty input -> 0.
double quantile(std::span<const double> xs, double q);

/// One point of an empirical distribution function.
struct DistPoint {
  double x = 0.0;  ///< sample value
  double y = 0.0;  ///< cumulative fraction
};

/// Empirical CDF: for each distinct sorted value x, the fraction of samples
/// <= x. Suitable for direct plotting (Fig 8a style).
std::vector<DistPoint> empirical_cdf(std::span<const double> xs);

/// Empirical CCDF: fraction of samples strictly greater than x
/// (Fig 4 style).
std::vector<DistPoint> empirical_ccdf(std::span<const double> xs);

/// Fixed-width linear histogram over [lo, hi); values outside are clamped
/// into the first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }

  /// Fraction of total mass in bin i (0 if the histogram is empty).
  double fraction(std::size_t i) const;

 private:
  double lo_, hi_, width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

/// Base-`base` logarithmic histogram for heavy-tailed quantities
/// (per-member traffic volumes, packet counts).
class LogHistogram {
 public:
  /// Bins: [0,1), [1,base), [base,base^2), ...
  explicit LogHistogram(double base = 10.0, std::size_t bins = 12);

  void add(double x, double weight = 1.0);

  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }

 private:
  double base_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

/// Bounded-memory streaming quantile summary — the sketch behind the
/// streaming analysis builders (DESIGN.md §12).
///
/// A deterministic multi-level compactor in the MRL/KLL family: samples
/// land in a level-0 buffer of capacity `k`; a full level is sorted and
/// every other element (alternating offset per level) is promoted with
/// doubled weight. Everything is a pure function of the insertion
/// sequence — no randomness, no hash order — so two runs over the same
/// stream produce bit-identical summaries.
///
/// Every level is a flat array of values. Level 0 keeps its values in
/// arrival order (a weighted add stores that many copies) and is sorted
/// when it compacts; every higher level stays sorted, so a compaction
/// merges the promoted values into it instead of sorting the level. The
/// sort and the merge run on the SIMD kernel chosen at construction
/// (util::resolve_simd_kernel); every kernel leaves the same values,
/// bit for bit, on every level, so the kernel changes speed only.
///
/// Guarantees:
///  - Exact mode: while count() < exact_threshold() no compaction has
///    happened and quantile() equals util::quantile() of the retained
///    samples exactly.
///  - Sketched mode: every rank estimate is within rank_error_bound()
///    of the truth. The bound is maintained conservatively (each
///    compaction of weight-w elements adds w), giving
///    rank_error_bound() <= ~2·(count/k)·log2(count/k) — a fraction
///    that shrinks as k grows and is pinned by the property tests.
///  - Memory: retained() <= k · (log2(count/k) + 2) values, independent
///    of the stream length for practical purposes.
///  - NaN is rejected: it has no rank, and a sort or merge over it
///    would leave a level unsorted. -0.0 is stored as +0.0: the two
///    compare equal, and a min/max network may hand back either one.
class QuantileSketch {
 public:
  /// `k` is the per-level buffer capacity (rounded up to an even value,
  /// minimum 8): larger k = smaller error, more memory. `kernel` picks
  /// the compaction kernel through util::resolve_simd_kernel (a kernel
  /// this host cannot run throws std::runtime_error); a kernel without
  /// a sketch implementation (neon) compacts with the scalar one.
  explicit QuantileSketch(std::size_t k = 256,
                          SimdKernel kernel = SimdKernel::kAuto);

  /// Inserts one sample; `weight` folds that many identical samples in,
  /// with the same result as `weight` single inserts. -0.0 is stored as
  /// +0.0. Throws std::invalid_argument, leaving the sketch as it was,
  /// if x is NaN.
  void add(double x, std::uint64_t weight = 1);

  /// Total samples inserted.
  std::uint64_t count() const { return count_; }

  /// Counts strictly below this are guaranteed exact (no compaction).
  std::size_t exact_threshold() const { return k_; }

  /// True while no compaction has discarded information.
  bool exact() const { return error_bound_ == 0; }

  /// q-quantile estimate (0 <= q <= 1); exact-mode results match
  /// util::quantile() bit-for-bit. Empty sketch -> 0.
  double quantile(double q) const;

  /// Estimated number of inserted samples <= x; off by at most
  /// rank_error_bound().
  std::uint64_t rank(double x) const;

  /// Absolute rank-error bound accumulated so far (0 = exact).
  std::uint64_t rank_error_bound() const { return error_bound_; }

  /// Values currently held across all levels (the memory footprint).
  std::size_t retained() const;

  /// Number of levels; level l holds weight-2^l values.
  std::size_t levels() const { return levels_.size(); }

  /// Level l's values: level 0 in arrival order, higher levels sorted.
  std::span<const double> level(std::size_t l) const {
    return l == 0 ? std::span<const double>(levels_[0].data(), fill_)
                  : std::span<const double>(levels_[l]);
  }

  /// The offset (0 or 1) level l's next compaction promotes from.
  unsigned parity(std::size_t l) const { return parity_[l]; }

 private:
  /// Level 0 keeps this many spare slots past its fill, so an add of
  /// weight <= kSlack stores kSlack copies without a branch and then
  /// counts only the ones that fit.
  static constexpr std::size_t kSlack = 16;

  [[noreturn]] static void reject_nan();
  /// Compacts every full level (k values), bottom-up; a level's promoted
  /// values are merged into the level above before that level is
  /// checked.
  void compact_full_levels();
  /// Merges the sorted `incoming` values into sorted level `level`.
  void merge_sorted(std::size_t level, std::span<const double> incoming);
  /// All retained (value, weight) pairs, sorted by value.
  std::vector<std::pair<double, std::uint64_t>> weighted() const;

  std::size_t k_;
  bool avx2_;  ///< compact with the AVX2 kernels (else the scalar ones)
  std::uint64_t count_ = 0;
  std::uint64_t error_bound_ = 0;
  std::size_t fill_ = 0;  ///< values in level 0
  /// Level l's values. levels_[0] is level 0's buffer: fill_ values in
  /// arrival order, then at least kSlack spare slots.
  std::vector<std::vector<double>> levels_;
  std::vector<std::uint8_t> parity_;  ///< per-level alternating offset
  /// Compaction scratch, empty between calls: the promoted values, the
  /// merge output and the scalar sort's arrival runs.
  std::vector<double> promoted_, merged_;
  std::vector<std::pair<double, std::size_t>> runs_;
};

inline void QuantileSketch::add(double x, std::uint64_t weight) {
  if (std::isnan(x)) reject_nan();
  x += 0.0;  // -0.0 + 0.0 is +0.0
  while (weight > 0) {
    double* slot = levels_[0].data() + fill_;
    for (std::size_t i = 0; i < kSlack; ++i) slot[i] = x;
    const std::size_t n = std::min<std::uint64_t>(
        std::min<std::uint64_t>(weight, kSlack), k_ - fill_);
    fill_ += n;
    count_ += n;
    weight -= n;
    if (fill_ == k_) compact_full_levels();
  }
}

/// Pearson correlation of two equal-length samples; 0 for degenerate input.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Gini coefficient of non-negative values: 0 = perfectly even,
/// -> 1 = fully concentrated. Used to characterize attack amplifier
/// distribution strategies (Fig 11b).
double gini(std::span<const double> xs);

}  // namespace spoofscope::util
