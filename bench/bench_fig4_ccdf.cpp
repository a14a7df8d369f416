// Fig 4: CCDF of each member's Bogon / Unrouted / Invalid share of its own
// traffic — bounded shares for Bogon/Unrouted, a near-100% tail for
// Invalid (the false-positive candidates of Sec 4.4).
#include "bench/common.hpp"

#include "analysis/member_stats.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_MemberStatsBuilder(benchmark::State& state) {
  const auto& batch = bench::world_batch();
  const auto opts = bench::report_options();
  for (auto _ : state) {
    analysis::MemberStatsBuilder builder(opts.space_idx, opts.ixp);
    builder.add(batch, world().labels());
    auto counts = builder.finish();
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_MemberStatsBuilder)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 4 (CCDF of per-member class shares)",
      "max Bogon share ~10%, max Unrouted ~9%; a few members near 100% "
      "Invalid");
  const auto counts = bench::world_report().member_counts;

  static const analysis::TrafficClass kClasses[] = {
      analysis::TrafficClass::kBogon, analysis::TrafficClass::kUnrouted,
      analysis::TrafficClass::kInvalid};
  static const char* kNames[] = {"Bogon", "Unrouted", "Invalid"};

  std::cout << util::pad_right("class", 10)
            << util::pad_left("members>0", 11) << util::pad_left("share p50", 11)
            << util::pad_left("share p90", 11) << util::pad_left("max share", 11)
            << "\n";
  for (int c = 0; c < 3; ++c) {
    std::vector<double> shares;
    std::size_t nonzero = 0;
    for (const auto& mc : counts) {
      const double s = mc.packet_share(kClasses[c]);
      shares.push_back(s);
      nonzero += s > 0;
    }
    std::cout << util::pad_right(kNames[c], 10)
              << util::pad_left(std::to_string(nonzero), 11)
              << util::pad_left(util::percent(util::quantile(shares, 0.5)), 11)
              << util::pad_left(util::percent(util::quantile(shares, 0.9)), 11)
              << util::pad_left(util::percent(util::quantile(shares, 1.0)), 11)
              << "\n";
  }

  // The CCDF curves themselves (10 sample points each).
  for (int c = 0; c < 3; ++c) {
    const auto ccdf = analysis::class_share_ccdf(counts, kClasses[c]);
    std::cout << kNames[c] << " CCDF (x=share, y=fraction of members > x):\n  ";
    const std::size_t step = std::max<std::size_t>(1, ccdf.size() / 10);
    for (std::size_t i = 0; i < ccdf.size(); i += step) {
      std::cout << "(" << util::percent(ccdf[i].x) << ", "
                << util::fixed(ccdf[i].y, 3) << ") ";
    }
    std::cout << "\n";
  }
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
