// Fig 5: the Venn diagram of member contributions to the three
// illegitimate classes — the filtering-consistency picture.
#include "bench/common.hpp"

#include <map>

#include "analysis/filtering_strategy.hpp"
#include "analysis/venn.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_VennBuilder(benchmark::State& state) {
  const auto& batch = bench::world_batch();
  const auto opts = bench::report_options();
  for (auto _ : state) {
    analysis::VennBuilder builder(opts.space_idx);
    builder.add(batch, world().labels());
    auto v = builder.finish();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VennBuilder)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 5 (member contribution Venn diagram)",
      "18% clean; 28% contribute to all three; 9.6% Bogon only; 7.6% "
      "Invalid only; 96% of Unrouted members also send Bogon/Invalid");
  const auto report = bench::world_report();
  const auto& counts = report.member_counts;
  std::cout << analysis::format_venn(report.venn);

  // Sec 5.1: strategy deduction and (simulation-only) its precision
  // against the ground-truth egress policies.
  std::map<analysis::FilteringStrategy, std::size_t> by_strategy;
  for (const auto& mc : counts) ++by_strategy[analysis::deduce_strategy(mc)];
  std::cout << "\nDeduced filtering strategies:\n";
  for (const auto& [s, n] : by_strategy) {
    std::cout << "  " << util::pad_right(analysis::strategy_name(s), 18) << n
              << " members ("
              << util::percent(static_cast<double>(n) / counts.size()) << ")\n";
  }
  std::cout << "\n"
            << analysis::format_strategy_accuracy(analysis::strategy_accuracy(
                   counts, world().topology()));
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
