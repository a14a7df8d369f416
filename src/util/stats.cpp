#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

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

/// Appends `count` copies of `value`, extending the last run if equal.
template <typename Run>
void append_run(std::vector<Run>& runs, double value, std::uint64_t count) {
  if (!runs.empty() && runs.back().value == value) {
    runs.back().count += count;
  } else {
    runs.push_back({value, count});
  }
}

}  // namespace

QuantileSketch::QuantileSketch(std::size_t k) : k_(std::max<std::size_t>(k, 8)) {
  if (k_ % 2 != 0) ++k_;
  levels_.emplace_back();
  parity_.push_back(0);
}

void QuantileSketch::add(double x, std::uint64_t weight) {
  // Every level stays below k between calls, so single inserts could
  // only compact when one fills level 0: append up to that point in one
  // run, then cascade exactly as the filling insert would.
  while (weight > 0) {
    Level& l0 = levels_[0];
    const std::uint64_t n = std::min<std::uint64_t>(weight, k_ - l0.size);
    append_run(l0.runs, x, n);
    l0.size += n;
    count_ += n;
    weight -= n;
    for (std::size_t l = 0; l < levels_.size() && levels_[l].size >= k_; ++l) {
      compact(l);
    }
  }
}

void QuantileSketch::compact(std::size_t level) {
  if (level == 0) {
    std::sort(levels_[0].runs.begin(), levels_[0].runs.end(),
              [](const Run& a, const Run& b) { return a.value < b.value; });
  }
  // Promote every other element of the sorted even-length prefix with
  // doubled weight; an odd straggler (possible after merge) stays put.
  const std::uint64_t size = levels_[level].size;
  const std::uint64_t pairs = size / 2;
  if (pairs == 0) return;
  if (level + 1 >= levels_.size()) {
    levels_.emplace_back();  // may reallocate levels_: take refs after
    parity_.push_back(0);
  }
  auto& runs = levels_[level].runs;
  const std::uint64_t offset = parity_[level];
  parity_[level] ^= 1;
  // Sorted positions below m that get promoted: offset, offset + 2, ...
  const auto promoted_below = [offset](std::uint64_t m) {
    return (m + 1 - offset) / 2;
  };
  std::uint64_t first = 0;  // sorted position of the run's first copy
  for (const Run& r : runs) {
    const std::uint64_t end = std::min(first + r.count, 2 * pairs);
    if (end > first) {
      const std::uint64_t n = promoted_below(end) - promoted_below(first);
      if (n > 0) append_run(promoted_, r.value, n);
    }
    first += r.count;
  }
  const double top = runs.back().value;
  runs.clear();
  levels_[level].size = size % 2;
  if (size % 2 != 0) runs.push_back({top, 1});
  merge_sorted(level + 1, promoted_);
  promoted_.clear();
  // Keeping one of each weight-w pair shifts any rank by at most w.
  error_bound_ += std::uint64_t{1} << level;
}

void QuantileSketch::merge_sorted(std::size_t level,
                                  std::span<const Run> incoming) {
  auto& runs = levels_[level].runs;
  // Merge from the back into the grown vector, then coalesce equal
  // neighbours.
  std::size_t ours = runs.size();
  std::size_t theirs = incoming.size();
  runs.resize(ours + theirs);
  for (std::size_t out = runs.size(); theirs > 0;) {
    if (ours > 0 && incoming[theirs - 1].value < runs[ours - 1].value) {
      runs[--out] = runs[--ours];
    } else {
      runs[--out] = incoming[--theirs];
    }
  }
  std::size_t last = 0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].value == runs[last].value) {
      runs[last].count += runs[i].count;
    } else {
      runs[++last] = runs[i];
    }
  }
  if (!runs.empty()) runs.resize(last + 1);
  for (const Run& r : incoming) levels_[level].size += r.count;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.k_ != k_) {
    throw std::invalid_argument("QuantileSketch::merge: mismatched k");
  }
  count_ += other.count_;
  error_bound_ += other.error_bound_;
  while (levels_.size() < other.levels_.size()) {
    levels_.emplace_back();
    parity_.push_back(0);
  }
  const Level& their0 = other.levels_[0];
  levels_[0].runs.insert(levels_[0].runs.end(), their0.runs.begin(),
                         their0.runs.end());
  levels_[0].size += their0.size;
  for (std::size_t l = 1; l < other.levels_.size(); ++l) {
    merge_sorted(l, other.levels_[l].runs);
  }
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    while (levels_[l].size >= k_) compact(l);
  }
}

std::vector<std::pair<double, std::uint64_t>> QuantileSketch::weighted() const {
  // One pair per run: equal values are adjacent after the sort, so the
  // quantile walk sees the same cumulative weight at every value change.
  std::vector<std::pair<double, std::uint64_t>> out;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    for (const Run& r : levels_[l].runs) {
      out.emplace_back(r.value, r.count << l);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (exact()) {
    std::vector<double> xs;
    xs.reserve(levels_[0].size);
    for (const Run& r : levels_[0].runs) xs.insert(xs.end(), r.count, r.value);
    return util::quantile(xs, q);
  }
  q = std::clamp(q, 0.0, 1.0);
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
    for (const Run& run : levels_[l].runs) {
      if (run.value <= x) r += run.count << l;
    }
  }
  return r;
}

std::size_t QuantileSketch::retained() const {
  std::size_t n = 0;
  for (const auto& level : levels_) n += level.size;
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
