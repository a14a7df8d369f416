#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace spoofscope::util {
namespace {

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, BasicMoments) {
  const std::vector<double> xs{1, 2, 3, 4};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
  EXPECT_NEAR(s.stddev, 1.118, 1e-3);
}

TEST(Quantile, MedianOfOddSample) {
  const std::vector<double> xs{5, 1, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Quantile, Extremes) {
  const std::vector<double> xs{7, 2, 9};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  const std::vector<double> xs{1, 2};
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 2.0);
}

TEST(Cdf, StepsAtDistinctValues) {
  const std::vector<double> xs{1, 1, 2, 3};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].y, 0.5);
  EXPECT_DOUBLE_EQ(cdf[1].y, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].y, 1.0);
}

TEST(Ccdf, ComplementOfCdf) {
  const std::vector<double> xs{1, 2, 3, 4};
  const auto ccdf = empirical_ccdf(xs);
  ASSERT_EQ(ccdf.size(), 4u);
  EXPECT_DOUBLE_EQ(ccdf[0].y, 0.75);
  EXPECT_DOUBLE_EQ(ccdf[3].y, 0.0);
}

TEST(Cdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}).empty());
  EXPECT_TRUE(empirical_ccdf({}).empty());
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.9);
  h.add(-5.0);   // clamps into first bin
  h.add(100.0);  // clamps into last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 3.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
}

TEST(Histogram, FractionOfEmptyIsZero) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(LogHistogram, PowersLandInExpectedBins) {
  LogHistogram h(10.0, 6);
  h.add(0.0);    // bin 0: [0,1)
  h.add(5.0);    // bin 1: [1,10)
  h.add(50.0);   // bin 2: [10,100)
  h.add(1e9);    // clamps into last bin
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.count(5), 1.0);
}

TEST(LogHistogram, BinLowerEdges) {
  LogHistogram h(10.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 100.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{3, 2, 1};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsReturnZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(Gini, UniformIsZero) {
  const std::vector<double> xs{5, 5, 5, 5};
  EXPECT_NEAR(gini(xs), 0.0, 1e-12);
}

TEST(Gini, FullConcentrationApproachesOne) {
  std::vector<double> xs(100, 0.0);
  xs[0] = 1000.0;
  EXPECT_GT(gini(xs), 0.98);
}

TEST(Gini, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(gini({}), 0.0);
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(gini(zeros), 0.0);
}

// ---------------------------------------------------------- QuantileSketch

/// True rank (number of samples <= x) in a materialized stream.
std::uint64_t true_rank(const std::vector<double>& xs, double x) {
  std::uint64_t r = 0;
  for (const double v : xs) {
    if (v <= x) ++r;
  }
  return r;
}

/// Every rank estimate must be within the sketch's self-reported bound.
void expect_ranks_within_bound(const QuantileSketch& sk,
                               const std::vector<double>& xs,
                               const char* what) {
  ASSERT_EQ(sk.count(), xs.size()) << what;
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t stride = std::max<std::size_t>(1, sorted.size() / 500);
  for (std::size_t i = 0; i < sorted.size(); i += stride) {
    const double x = sorted[i];
    // True rank of sorted[i]: index of the last duplicate + 1.
    const auto last =
        std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin();
    const std::uint64_t exact = static_cast<std::uint64_t>(last);
    const std::uint64_t est = sk.rank(x);
    const std::uint64_t diff = est > exact ? est - exact : exact - est;
    EXPECT_LE(diff, sk.rank_error_bound()) << what << " x=" << x;
  }
}

TEST(QuantileSketch, ExactModeMatchesQuantileBitForBit) {
  QuantileSketch sk(64);
  EXPECT_EQ(sk.exact_threshold(), 64u);
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 63; ++i) {
    xs.push_back(static_cast<double>(rng.uniform_u32(0, 1000)));
    sk.add(xs.back());
  }
  ASSERT_TRUE(sk.exact());
  EXPECT_EQ(sk.rank_error_bound(), 0u);
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(sk.quantile(q), quantile(xs, q)) << "q=" << q;
  }
  for (const double x : xs) EXPECT_EQ(sk.rank(x), true_rank(xs, x));
}

TEST(QuantileSketch, ExactUntilThresholdThenSketched) {
  QuantileSketch sk(16);
  for (int i = 0; i < 15; ++i) sk.add(i);
  EXPECT_TRUE(sk.exact());
  sk.add(15);  // hits k: first compaction
  EXPECT_FALSE(sk.exact());
  EXPECT_GT(sk.rank_error_bound(), 0u);
}

TEST(QuantileSketch, EmptySketch) {
  const QuantileSketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_TRUE(sk.exact());
  EXPECT_EQ(sk.quantile(0.5), 0.0);
}

TEST(QuantileSketch, WeightedAddFoldsIdenticalSamples) {
  QuantileSketch a(32), b(32);
  Rng rng(11);
  std::uint64_t total = 0;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(rng.uniform_u32(0, 100));
    const std::uint64_t w = 1 + rng.index(5);
    a.add(x, w);
    for (std::uint64_t j = 0; j < w; ++j) b.add(x);
    total += w;
  }
  EXPECT_EQ(a.count(), total);
  // add(x, w) is defined as w sequential inserts — bit-identical summary.
  EXPECT_EQ(a.rank_error_bound(), b.rank_error_bound());
  EXPECT_EQ(a.retained(), b.retained());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

// The rank-error guarantee must survive adversarial insertion orders —
// the orderings that break naive reservoir/heap schemes.
TEST(QuantileSketch, AdversarialOrderingsStayWithinRankErrorBound) {
  constexpr std::size_t kN = 50000;
  constexpr std::size_t kK = 256;

  std::vector<double> ascending(kN);
  for (std::size_t i = 0; i < kN; ++i) ascending[i] = static_cast<double>(i);
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> sawtooth(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    sawtooth[i] = static_cast<double>(i % 2 == 0 ? i / 2 : kN - 1 - i / 2);
  }
  std::vector<double> shuffled = ascending;
  Rng rng(20170205);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.index(i + 1)]);
  }

  const struct {
    const char* name;
    const std::vector<double>* xs;
  } cases[] = {{"ascending", &ascending},
               {"descending", &descending},
               {"sawtooth", &sawtooth},
               {"shuffled", &shuffled}};
  for (const auto& c : cases) {
    QuantileSketch sk(kK);
    for (const double x : *c.xs) sk.add(x);
    expect_ranks_within_bound(sk, *c.xs, c.name);
    // The bound itself stays a small fraction of the stream (the §12
    // pinned accuracy contract for the report's packet-size quantiles).
    EXPECT_LT(static_cast<double>(sk.rank_error_bound()) / kN, 0.07) << c.name;
  }
}

TEST(QuantileSketch, DeterministicAcrossIdenticalStreams) {
  QuantileSketch a(64), b(64);
  Rng ra(3), rb(3);
  for (int i = 0; i < 10000; ++i) a.add(ra.uniform_u32(0, 1 << 20));
  for (int i = 0; i < 10000; ++i) b.add(rb.uniform_u32(0, 1 << 20));
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.retained(), b.retained());
  EXPECT_EQ(a.rank_error_bound(), b.rank_error_bound());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.999, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

// merge() must keep every estimate within the combined bound no matter
// how the partial sketches are grouped — the property the chunk-order
// report reduction relies on.
TEST(QuantileSketch, MergeGroupingsAllStayWithinCombinedBounds) {
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kParts = 4;
  std::vector<double> xs(kN);
  Rng rng(42);
  for (auto& x : xs) x = static_cast<double>(rng.uniform_u32(0, 1 << 16));

  std::vector<QuantileSketch> parts(kParts, QuantileSketch(128));
  for (std::size_t i = 0; i < kN; ++i) parts[i % kParts].add(xs[i]);

  // Left fold: ((p0 + p1) + p2) + p3.
  QuantileSketch left = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) left.merge(parts[p]);
  // Right fold: p0 + (p1 + (p2 + p3)).
  QuantileSketch right = parts[kParts - 1];
  for (std::size_t p = kParts - 1; p-- > 0;) {
    QuantileSketch acc = parts[p];
    acc.merge(right);
    right = acc;
  }
  // Balanced: (p0 + p1) + (p2 + p3).
  QuantileSketch lo = parts[0], hi = parts[2];
  lo.merge(parts[1]);
  hi.merge(parts[3]);
  QuantileSketch balanced = lo;
  balanced.merge(hi);

  expect_ranks_within_bound(left, xs, "left fold");
  expect_ranks_within_bound(right, xs, "right fold");
  expect_ranks_within_bound(balanced, xs, "balanced");
}

TEST(QuantileSketch, MergeRejectsMismatchedK) {
  QuantileSketch a(64), b(128);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

/// The compactor QuantileSketch replaced, kept as its reference: add()
/// inserts one sample at a time and scans every level after each, and
/// compact() std::sort-s the level it compacts.
class ReferenceSketch {
 public:
  explicit ReferenceSketch(std::size_t k) : k_(std::max<std::size_t>(k, 8)) {
    if (k_ % 2 != 0) ++k_;
    levels_.emplace_back();
    parity_.push_back(0);
  }

  void add(double x, std::uint64_t weight = 1) {
    for (std::uint64_t i = 0; i < weight; ++i) {
      levels_[0].push_back(x);
      ++count_;
      for (std::size_t l = 0; l < levels_.size(); ++l) {
        if (levels_[l].size() >= k_) compact(l);
      }
    }
  }

  void merge(const ReferenceSketch& other) {
    count_ += other.count_;
    error_bound_ += other.error_bound_;
    for (std::size_t l = 0; l < other.levels_.size(); ++l) {
      if (l >= levels_.size()) {
        levels_.emplace_back();
        parity_.push_back(0);
      }
      levels_[l].insert(levels_[l].end(), other.levels_[l].begin(),
                        other.levels_[l].end());
    }
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      while (levels_[l].size() >= k_) compact(l);
    }
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t rank_error_bound() const { return error_bound_; }

  std::size_t retained() const {
    std::size_t n = 0;
    for (const auto& level : levels_) n += level.size();
    return n;
  }

  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    if (error_bound_ == 0) return util::quantile(levels_[0], q);
    q = std::clamp(q, 0.0, 1.0);
    std::vector<std::pair<double, std::uint64_t>> items;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      for (const double x : levels_[l]) {
        items.emplace_back(x, std::uint64_t{1} << l);
      }
    }
    std::sort(items.begin(), items.end());
    const double pos = q * static_cast<double>(count_ - 1);
    std::uint64_t cum = 0;
    for (const auto& [x, w] : items) {
      if (static_cast<double>(cum + w) > pos) return x;
      cum += w;
    }
    return items.back().first;
  }

  std::uint64_t rank(double x) const {
    std::uint64_t r = 0;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      for (const double v : levels_[l]) {
        if (v <= x) r += std::uint64_t{1} << l;
      }
    }
    return r;
  }

 private:
  void compact(std::size_t level) {
    std::sort(levels_[level].begin(), levels_[level].end());
    const std::size_t pairs = levels_[level].size() / 2;
    if (pairs == 0) return;
    if (level + 1 >= levels_.size()) {
      levels_.emplace_back();
      parity_.push_back(0);
    }
    auto& buf = levels_[level];
    auto& up = levels_[level + 1];
    const std::size_t offset = parity_[level];
    parity_[level] ^= 1;
    for (std::size_t i = 0; i < pairs; ++i) up.push_back(buf[2 * i + offset]);
    if (buf.size() % 2 != 0) {
      buf[0] = buf.back();
      buf.resize(1);
    } else {
      buf.clear();
    }
    error_bound_ += std::uint64_t{1} << level;
  }

  std::size_t k_;
  std::uint64_t count_ = 0;
  std::uint64_t error_bound_ = 0;
  std::vector<std::vector<double>> levels_;
  std::vector<std::uint8_t> parity_;
};

/// Every observable of the sketch equals the reference's. Values compare
/// with ==, so which of -0.0 and +0.0 a sort put first cannot matter.
void expect_same_as_reference(const QuantileSketch& got,
                              const ReferenceSketch& want,
                              std::vector<double> probes,
                              const std::string& what) {
  ASSERT_EQ(got.count(), want.count()) << what;
  ASSERT_EQ(got.retained(), want.retained()) << what;
  ASSERT_EQ(got.rank_error_bound(), want.rank_error_bound()) << what;
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    ASSERT_EQ(got.quantile(q), want.quantile(q)) << what << " q=" << q;
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  for (const double x : probes) {
    ASSERT_EQ(got.rank(x), want.rank(x)) << what << " x=" << x;
  }
}

/// A weighted sample stream; each element is one add(value, weight).
using WeightedStream = std::vector<std::pair<double, std::uint64_t>>;

std::vector<double> values_of(const WeightedStream& s) {
  std::vector<double> out;
  for (const auto& [x, w] : s) out.push_back(x);
  return out;
}

/// Few distinct values (both zeros among them) in runs of weight 1..16,
/// so single weighted adds straddle every level-0 fill for small k.
WeightedStream duplicate_heavy(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  WeightedStream s;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = rng.uniform_u32(0, 24);
    const double x = v == 0 ? -0.0 : static_cast<double>(v) * 7.5 - 7.5;
    s.emplace_back(x, 1 + rng.index(16));
  }
  return s;
}

WeightedStream unique_stream(const char* order, std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i) * 0.5;
  const std::string o = order;
  if (o == "descending") std::reverse(xs.begin(), xs.end());
  if (o == "sawtooth") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = static_cast<double>(i % 2 == 0 ? i / 2 : n - 1 - i / 2);
    }
  }
  if (o == "shuffled") {
    Rng rng(20170205);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(xs[i], xs[rng.index(i + 1)]);
    }
  }
  WeightedStream s;
  for (const double x : xs) s.emplace_back(x, 1);
  return s;
}

constexpr std::size_t kReferenceKs[] = {8, 10, 64, 256};

// The run-aware compactor must reproduce the one-sample-per-insert
// compactor exactly, including mid-stream, where weighted adds have
// split runs across level-0 fills.
TEST(QuantileSketch, RunAwareCompactorMatchesReferenceOnWeightedStreams) {
  for (const std::size_t k : kReferenceKs) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto stream = duplicate_heavy(seed * 101 + k, 6000);
      QuantileSketch got(k);
      ReferenceSketch want(k);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        got.add(stream[i].first, stream[i].second);
        want.add(stream[i].first, stream[i].second);
        if (i % 499 == 0 || i + 1 == stream.size()) {
          expect_same_as_reference(got, want, values_of(stream),
                                   "k=" + std::to_string(k) +
                                       " seed=" + std::to_string(seed) +
                                       " i=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(QuantileSketch, RunAwareCompactorMatchesReferenceOnUniqueStreams) {
  for (const std::size_t k : kReferenceKs) {
    for (const char* order :
         {"shuffled", "ascending", "descending", "sawtooth"}) {
      const auto stream = unique_stream(order, 20000);
      QuantileSketch got(k);
      ReferenceSketch want(k);
      for (const auto& [x, w] : stream) {
        got.add(x, w);
        want.add(x, w);
      }
      expect_same_as_reference(got, want, values_of(stream),
                               "k=" + std::to_string(k) + " " + order);
    }
  }
}

// Merges leave odd stragglers on any level and unsorted level-0 content;
// adds after a merge must then compact exactly as the reference does.
TEST(QuantileSketch, RunAwareCompactorMatchesReferenceAcrossMerges) {
  for (const std::size_t k : kReferenceKs) {
    QuantileSketch got(k);
    ReferenceSketch want(k);
    std::vector<double> probes;
    Rng rng(k);
    for (std::size_t part = 0; part < 9; ++part) {
      // Odd, part-dependent lengths so levels end at odd sizes.
      const auto stream =
          part % 3 == 2 ? unique_stream("shuffled", 37 * k / 8 + 2 * part + 1)
                        : duplicate_heavy(part * 7 + k, 5 * k + 2 * part + 1);
      QuantileSketch got_part(k);
      ReferenceSketch want_part(k);
      for (const auto& [x, w] : stream) {
        got_part.add(x, w);
        want_part.add(x, w);
      }
      const auto values = values_of(stream);
      probes.insert(probes.end(), values.begin(), values.end());
      got.merge(got_part);
      want.merge(want_part);
      const std::string what =
          "k=" + std::to_string(k) + " part=" + std::to_string(part);
      expect_same_as_reference(got, want, probes, what + " merged");
      // Keep adding into the merged sketch.
      for (int i = 0; i < 5; ++i) {
        const double x = static_cast<double>(rng.uniform_u32(0, 50));
        const std::uint64_t w = 1 + rng.index(16);
        got.add(x, w);
        want.add(x, w);
        probes.push_back(x);
      }
      expect_same_as_reference(got, want, probes, what + " added");
    }
  }
}

TEST(QuantileSketch, RetainedMemoryStaysBounded) {
  constexpr std::size_t kN = 200000;
  constexpr std::size_t kK = 128;
  QuantileSketch sk(kK);
  Rng rng(9);
  for (std::size_t i = 0; i < kN; ++i) sk.add(rng.uniform_u32(0, 1u << 30));
  const double levels = std::log2(static_cast<double>(kN) / kK);
  EXPECT_LE(sk.retained(),
            kK * (static_cast<std::size_t>(std::ceil(levels)) + 2));
}

}  // namespace
}  // namespace spoofscope::util
