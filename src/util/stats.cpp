#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats_kernels.hpp"

namespace spoofscope::util {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  for (double x : xs) {
    s.sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = s.sum / static_cast<double>(s.count);
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  return s;
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= v.size()) return v.back();
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

namespace {

std::vector<DistPoint> edf(std::span<const double> xs, bool complementary) {
  std::vector<DistPoint> out;
  if (xs.empty()) return out;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double cum = static_cast<double>(j) / n;
    out.push_back({v[i], complementary ? 1.0 - cum : cum});
    i = j;
  }
  return out;
}

}  // namespace

std::vector<DistPoint> empirical_cdf(std::span<const double> xs) {
  return edf(xs, /*complementary=*/false);
}

std::vector<DistPoint> empirical_ccdf(std::span<const double> xs) {
  return edf(xs, /*complementary=*/true);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  if (bins == 0 || !(hi > lo)) throw std::invalid_argument("Histogram: bad range");
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x, double weight) {
  std::size_t i;
  if (x < lo_) {
    i = 0;
  } else if (x >= hi_) {
    i = counts_.size() - 1;
  } else {
    i = static_cast<std::size_t>((x - lo_) / width_);
    i = std::min(i, counts_.size() - 1);
  }
  counts_[i] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(std::size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

double Histogram::fraction(std::size_t i) const {
  return total_ > 0 ? counts_[i] / total_ : 0.0;
}

LogHistogram::LogHistogram(double base, std::size_t bins)
    : base_(base), counts_(bins, 0.0) {
  if (base <= 1.0 || bins == 0) throw std::invalid_argument("LogHistogram: bad parameters");
}

void LogHistogram::add(double x, double weight) {
  std::size_t i = 0;
  if (x >= 1.0) {
    i = static_cast<std::size_t>(std::log(x) / std::log(base_)) + 1;
    i = std::min(i, counts_.size() - 1);
  }
  counts_[i] += weight;
  total_ += weight;
}

double LogHistogram::bin_lo(std::size_t i) const {
  return i == 0 ? 0.0 : std::pow(base_, static_cast<double>(i - 1));
}

namespace {

/// Arrival runs of level 0: (value, length) in arrival order.
using ArrivalRuns = std::vector<std::pair<double, std::size_t>>;

/// The scalar level-0 sort. Level 0 arrives in runs of equal values (an
/// add of weight w stores w copies), so this sorts the runs and writes
/// them back: std::sort over the runs, not over every value. `v` must
/// have kSlack writable slots past v[n - 1].
template <std::size_t kSlack>
void sort_by_runs(double* v, std::size_t n, ArrivalRuns& runs) {
  // Branch-free run detection: slot r + 1 is rewritten until a value
  // differs from the one before it, which opens run r + 1 there.
  runs.resize(n + 1);
  runs[0] = {v[0], 0};
  std::size_t r = 0;
  for (std::size_t i = 1; i < n; ++i) {
    runs[r + 1] = {v[i], i};
    r += v[i] != v[i - 1];
  }
  const std::size_t count = r + 1;
  runs[count].second = n;
  for (std::size_t j = 0; j < count; ++j) {
    runs[j].second = runs[j + 1].second - runs[j].second;
  }
  std::sort(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(count),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Write kSlack copies at a time: a run of up to kSlack values costs
  // one fixed block of stores, and the next run overwrites the excess.
  double* out = v;
  for (std::size_t j = 0; j < count; ++j) {
    const auto [x, length] = runs[j];
    for (std::size_t i = 0; i < length; i += kSlack) {
      for (std::size_t s = 0; s < kSlack; ++s) out[i + s] = x;
    }
    out += length;
  }
  runs.clear();
}

/// Branch-free two-pointer merge of sorted a[0, na) and b[0, nb).
void merge_scalar(const double* a, std::size_t na, const double* b,
                  std::size_t nb, double* out) {
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const bool take_b = b[j] < a[i];
    *out++ = std::min(a[i], b[j]);
    j += take_b;
    i += !take_b;
  }
  out = std::copy(a + i, a + na, out);
  std::copy(b + j, b + nb, out);
}

/// Sorts level 0's v[0, n) on the AVX2 kernel where it was chosen and
/// covers n, else on the scalar one.
template <std::size_t kSlack>
void sort_level0([[maybe_unused]] bool avx2, double* v, std::size_t n,
                 ArrivalRuns& runs) {
#if SPOOFSCOPE_KERNEL_AVX2
  if (avx2 && sketch::avx2_sorts(n)) {
    sketch::sort_avx2(v, n);
    return;
  }
#endif
  sort_by_runs<kSlack>(v, n, runs);
}

/// Merges the sorted a and b into out, on the AVX2 kernel where it was
/// chosen and covers the sizes, else on the scalar one.
void merge_levels([[maybe_unused]] bool avx2, std::span<const double> a,
                  std::span<const double> b, double* out) {
#if SPOOFSCOPE_KERNEL_AVX2
  if (avx2 && sketch::avx2_merges(a.size(), b.size())) {
    sketch::merge_avx2(a.data(), b.data(), b.size(), out);
    return;
  }
#endif
  merge_scalar(a.data(), a.size(), b.data(), b.size(), out);
}

}  // namespace

QuantileSketch::QuantileSketch(std::size_t k, SimdKernel kernel)
    : k_(std::max<std::size_t>(k, 8)),
      avx2_(resolve_simd_kernel(kernel) == SimdKernel::kAvx2) {
  if (k_ % 2 != 0) ++k_;
  levels_.emplace_back(k_ + kSlack);
  parity_.push_back(0);
}

void QuantileSketch::reject_nan() {
  throw std::invalid_argument("QuantileSketch::add: NaN sample");
}

void QuantileSketch::compact_full_levels() {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    // A full level holds exactly k values (even): add() compacts level 0
    // at k, and each compaction below adds k / 2 to the level above,
    // which held 0 or k / 2.
    if ((l == 0 ? fill_ : levels_[l].size()) < k_) continue;
    double* v = levels_[l].data();
    if (l == 0) sort_level0<kSlack>(avx2_, v, k_, runs_);
    // Promote every other value of the sorted level with doubled weight.
    const std::size_t offset = parity_[l];
    parity_[l] ^= 1;
    promoted_.resize(k_ / 2);
    for (std::size_t i = 0; i < k_ / 2; ++i) promoted_[i] = v[2 * i + offset];
    if (l == 0) {
      fill_ = 0;
    } else {
      levels_[l].clear();
    }
    if (l + 1 == levels_.size()) {
      levels_.emplace_back();
      parity_.push_back(0);
    }
    merge_sorted(l + 1, promoted_);
    promoted_.clear();
    // Keeping one of each weight-w pair shifts any rank by at most w.
    error_bound_ += std::uint64_t{1} << l;
  }
}

void QuantileSketch::merge_sorted(std::size_t level,
                                  std::span<const double> incoming) {
  auto& values = levels_[level];
  merged_.resize(values.size() + incoming.size());
  merge_levels(avx2_, values, incoming, merged_.data());
  values.swap(merged_);
  merged_.clear();
}

std::vector<std::pair<double, std::uint64_t>> QuantileSketch::weighted() const {
  std::vector<std::pair<double, std::uint64_t>> out;
  out.reserve(retained());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    for (const double x : level(l)) out.emplace_back(x, std::uint64_t{1} << l);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (exact()) return util::quantile(level(0), q);
  q = std::clamp(q, 0.0, 1.0);
  // Equal values are adjacent after the sort, so the walk crosses each
  // value change at the same cumulative weight however they are split.
  const auto items = weighted();
  const double pos = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (const auto& [x, w] : items) {
    if (static_cast<double>(cum + w) > pos) return x;
    cum += w;
  }
  return items.back().first;
}

std::uint64_t QuantileSketch::rank(double x) const {
  std::uint64_t r = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto values = level(l);
    const auto below = std::count_if(values.begin(), values.end(),
                                     [x](double v) { return v <= x; });
    r += static_cast<std::uint64_t>(below) << l;
  }
  return r;
}

std::size_t QuantileSketch::retained() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l) n += level(l).size();
  return n;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const Summary sx = summarize(xs);
  const Summary sy = summarize(ys);
  if (sx.stddev == 0.0 || sy.stddev == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean) * (ys[i] - sy.mean);
  }
  cov /= static_cast<double>(xs.size());
  return cov / (sx.stddev * sy.stddev);
}

double gini(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  double sum = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    sum += v[i];
    weighted += static_cast<double>(i + 1) * v[i];
  }
  if (sum <= 0.0) return 0.0;
  const double n = static_cast<double>(v.size());
  return (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
}

}  // namespace spoofscope::util
