// Fig 7 / Sec 5.2: router interface addresses among Invalid packets —
// many members sit on the diagonal (their Invalid is stray router
// traffic) and are excluded from the spoofing analyses.
#include "bench/common.hpp"

#include "classify/pipeline.hpp"
#include "classify/router_tagger.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_RouterIpStats(benchmark::State& state) {
  const auto& w = world();
  const auto idx = scenario::Scenario::space_index(inference::Method::kFullCone);
  for (auto _ : state) {
    auto stats =
        classify::router_ip_stats(w.trace().flows, w.labels(), idx, w.ark());
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_RouterIpStats)->Unit(benchmark::kMillisecond);

void BM_ArkCampaign(benchmark::State& state) {
  for (auto _ : state) {
    auto ark = data::run_ark_campaign(world().topology(),
                                      world().params().ark, 99);
    benchmark::DoNotOptimize(ark);
  }
}
BENCHMARK(BM_ArkCampaign)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 7 + Sec 5.2 (router IPs among Invalid packets)",
      "many members on the diagonal; exclusion drops Invalid members from "
      "57.68% to 39.59%; router traffic: 83% ICMP, 14.4% UDP (76.3% to "
      "NTP), 2.3% TCP");
  const auto& w = world();
  const auto idx = scenario::Scenario::space_index(inference::Method::kFullCone);
  const auto stats =
      classify::router_ip_stats(w.trace().flows, w.labels(), idx, w.ark());

  std::size_t on_diagonal = 0;
  for (const auto& s : stats) on_diagonal += s.router_fraction() >= 0.5;
  std::cout << "members with Invalid traffic: " << stats.size() << "; >=50% "
            << "router-sourced: " << on_diagonal << "\n";

  const auto excluded = classify::members_to_exclude(stats);
  const std::size_t spaces = w.classifier().space_count();
  const auto before =
      classify::aggregate_classes(spaces, w.trace().flows, w.labels());
  const auto after = classify::aggregate_classes(spaces, w.trace().flows,
                                                 w.labels(), excluded);
  const auto mem = [&](const classify::Aggregate& a) {
    return static_cast<double>(
               a.totals[idx][static_cast<int>(classify::TrafficClass::kInvalid)]
                   .members) /
           w.ixp().member_count();
  };
  std::cout << "Invalid-contributing members before exclusion: "
            << util::percent(mem(before)) << " (paper 57.68%), after: "
            << util::percent(mem(after)) << " (paper 39.59%)\n";

  const auto b = classify::router_protocol_breakdown(w.trace().flows, w.ark());
  std::cout << "router-IP traffic mix: ICMP " << util::percent(b.icmp)
            << " (paper 83%), UDP " << util::percent(b.udp)
            << " (paper 14.4%; to NTP " << util::percent(b.udp_to_ntp)
            << ", paper 76.3%), TCP " << util::percent(b.tcp)
            << " (paper 2.3%)\n";
  std::cout << "Ark dataset: " << w.ark().router_ip_count()
            << " router interface addresses from " << w.ark().traces_run()
            << " traceroutes\n";

  // The scatter itself (top rows).
  std::cout << "\nper-member (Invalid pkts, router-sourced pkts), top 8:\n";
  auto sorted = stats;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.invalid_packets > b.invalid_packets;
            });
  for (std::size_t i = 0; i < std::min<std::size_t>(8, sorted.size()); ++i) {
    std::cout << "  AS" << sorted[i].member << ": "
              << sorted[i].invalid_packets << " invalid, "
              << sorted[i].router_invalid_packets << " router ("
              << util::percent(sorted[i].router_fraction()) << ")\n";
  }
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
