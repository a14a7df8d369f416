// Small statistics toolkit used by the analysis modules: summary stats,
// empirical CDF/CCDF construction, and linear/log-binned histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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
/// Levels hold runs of equal values. Level 0 keeps its runs in arrival
/// order (a weighted add is one run) and sorts them by value when it
/// compacts; every higher level stays sorted, so a compaction merges
/// the promoted runs into it instead of sorting the level.
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
///  - merge() folds another sketch in (same k required); counts add,
///    error bounds add, and all merged rank estimates stay within the
///    combined bound regardless of merge grouping.
class QuantileSketch {
 public:
  /// `k` is the per-level buffer capacity (rounded up to an even value,
  /// minimum 8): larger k = smaller error, more memory.
  explicit QuantileSketch(std::size_t k = 256);

  /// Inserts one sample; `weight` folds that many identical samples in,
  /// with the same result as `weight` single inserts.
  void add(double x, std::uint64_t weight = 1);

  /// Folds `other` into this sketch. Throws std::invalid_argument if
  /// the two sketches were built with different k.
  void merge(const QuantileSketch& other);

  /// Total samples inserted (including merged-in ones).
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

 private:
  /// `count` copies of `value`.
  struct Run {
    double value = 0.0;
    std::uint64_t count = 0;
  };
  /// Level i holds weight-2^i values. Level 0's runs are in arrival
  /// order; higher levels are sorted with equal values coalesced.
  struct Level {
    std::vector<Run> runs;
    std::uint64_t size = 0;  ///< values held: the sum of run counts
  };

  void compact(std::size_t level);
  /// Merges the sorted `incoming` runs into sorted level `level`.
  void merge_sorted(std::size_t level, std::span<const Run> incoming);
  /// All retained (value, weight) pairs, sorted by value.
  std::vector<std::pair<double, std::uint64_t>> weighted() const;

  std::size_t k_;
  std::uint64_t count_ = 0;
  std::uint64_t error_bound_ = 0;
  std::vector<Level> levels_;
  std::vector<std::uint8_t> parity_;  ///< per-level alternating offset
  std::vector<Run> promoted_;  ///< compact() scratch; empty between calls
};

/// Pearson correlation of two equal-length samples; 0 for degenerate input.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Gini coefficient of non-negative values: 0 = perfectly even,
/// -> 1 = fully concentrated. Used to characterize attack amplifier
/// distribution strategies (Fig 11b).
double gini(std::span<const double> xs);

}  // namespace spoofscope::util
