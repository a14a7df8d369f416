// Table 1: traffic contribution per class for the NAIVE / CC / FULL
// inference methods, plus the multi-AS-organization impact (Sec 4.3).
#include "bench/common.hpp"

#include "analysis/table1.hpp"
#include "classify/pipeline.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_ClassifyTrace(benchmark::State& state) {
  const auto& w = world();
  for (auto _ : state) {
    auto labels = classify::classify_trace(w.classifier(), w.trace().flows);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.trace().flows.size()));
}
BENCHMARK(BM_ClassifyTrace)->Unit(benchmark::kMillisecond);

void BM_AggregateClasses(benchmark::State& state) {
  const auto& w = world();
  for (auto _ : state) {
    auto agg = classify::aggregate_classes(w.classifier().space_count(),
                                           w.trace().flows, w.labels());
    benchmark::DoNotOptimize(agg);
  }
}
BENCHMARK(BM_AggregateClasses)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Table 1 (class contributions per inference method)",
      "Bogon 525 members/0.02% pkts; Unrouted 378/0.02%; Invalid FULL "
      "393/0.03%; Invalid NAIVE 611/1.29%; Invalid CC 602/0.3%");
  const auto& w = world();
  const auto agg = classify::aggregate_classes(
      w.classifier().space_count(), w.trace().flows, w.labels());
  std::cout << analysis::format_table1(analysis::table1_columns(
                   agg, w.trace().scale(), w.ixp().member_count()))
            << "\n";

  // Sec 4.3: impact of the multi-AS organization adjustment.
  const auto inv_pkts = [&](inference::Method m) {
    return agg.totals[static_cast<std::size_t>(m)]
                     [static_cast<int>(classify::TrafficClass::kInvalid)]
                         .packets;
  };
  const double full_red =
      1.0 - inv_pkts(inference::Method::kFullConeOrg) /
                std::max(1.0, inv_pkts(inference::Method::kFullCone));
  const double cc_red =
      1.0 - inv_pkts(inference::Method::kCustomerConeOrg) /
                std::max(1.0, inv_pkts(inference::Method::kCustomerCone));
  std::cout << "Multi-AS organization impact (Sec 4.3; paper: FULL -15%, CC -85%):\n"
            << "  Invalid FULL reduced by " << util::percent(full_red) << "\n"
            << "  Invalid CC   reduced by " << util::percent(cc_red) << "\n";
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
