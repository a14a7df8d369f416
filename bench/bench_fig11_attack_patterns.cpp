// Fig 11 + Sec 7: selective vs random spoofing, amplifier strategies of
// the top NTP victims, the amplification effect, and the ZMap-scan
// overlap of contacted amplifiers.
#include "bench/common.hpp"

#include "analysis/attack_patterns.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_AttackPatternsBuilder(benchmark::State& state) {
  const auto& batch = bench::world_batch();
  const auto opts = bench::report_options();
  for (auto _ : state) {
    analysis::AttackPatternsBuilder builder(opts.space_idx, opts.limits);
    builder.add(batch, world().labels());
    auto ratio = builder.ratio(opts.ratio_min_packets, opts.ratio_bins);
    auto ntp = builder.ntp(opts.top_victims);
    benchmark::DoNotOptimize(ratio);
    benchmark::DoNotOptimize(ntp);
  }
}
BENCHMARK(BM_AttackPatternsBuilder)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 11 + Sec 7 (attack patterns)",
      "~90% of Unrouted destinations receive unique-source floods; Invalid "
      "destinations receive few-source amplification triggers; one member "
      "emits 91.94% of Invalid NTP (top-5: 97.86%); amplification ~10x in "
      "bytes at ~equal packets; 3,865 of 24,328 amplifiers in ZMap scans");
  const auto& w = world();
  const auto report = bench::world_report();

  // Fig 11a.
  const auto& hist = report.src_ratio;
  static const char* kNames[] = {"Bogon", "Unrouted", "Invalid"};
  std::cout << "Fig 11a — #srcIPs/#pkts histogram per destination (10 bins, "
               "0=selective, 1=random):\n";
  for (int c = 0; c < 3; ++c) {
    std::cout << "  " << util::pad_right(kNames[c], 9) << "("
              << util::pad_left(std::to_string(hist.destinations[c]), 5)
              << " dsts):";
    for (const double f : hist.fractions[c]) std::cout << " " << util::fixed(f, 2);
    std::cout << "\n";
  }

  // Fig 11b + Sec 7 NTP stats.
  const auto& ntp = report.ntp;
  std::cout << "\nNTP amplification: " << ntp.trigger_packets
            << " trigger pkts, " << ntp.distinct_victims << " victims, "
            << ntp.contributing_members << " members, "
            << ntp.amplifiers_contacted << " amplifiers contacted\n"
            << "  top member " << util::percent(ntp.top_member_share)
            << " (paper 91.94%), top-5 " << util::percent(ntp.top5_member_share)
            << " (paper 97.86%), Invalid-UDP-to-NTP "
            << util::percent(ntp.invalid_udp_ntp_share) << " (paper >90%)\n";
  std::cout << "Fig 11b — top victims (amplifiers ranked by packets):\n";
  for (const auto& v : ntp.top_victims) {
    std::cout << "  " << util::pad_right(v.victim.str(), 16)
              << util::pad_left(std::to_string(v.trigger_packets), 7) << " pkts, "
              << util::pad_left(std::to_string(v.amplifiers), 6)
              << " amplifiers, gini " << util::fixed(v.concentration, 2)
              << (v.concentration < 0.3 ? " (uniform spray)" : " (concentrated)")
              << "\n";
  }

  // Fig 11c.
  const auto& ts = report.amplification;
  std::cout << "\nFig 11c — amplification effect over both-direction pairs:\n"
            << "  byte amplification " << util::fixed(ts.amplification_factor(), 1)
            << "x (paper: order of magnitude), packet ratio "
            << util::fixed(ts.packet_ratio(), 2) << " (paper: ~1)\n";

  // Sec 7: overlap with an independent NTP scan. The synthetic scan sees
  // a fraction of the real amplifier population plus other servers.
  util::Rng rng(4242);
  std::vector<net::Ipv4Addr> scan;
  for (const auto& amp : w.workload().summary.ntp_amplifiers_contacted) {
    if (rng.chance(0.2)) scan.push_back(amp);  // scan coverage
  }
  for (int i = 0; i < 5000; ++i) scan.push_back(net::Ipv4Addr(rng.next_u32()));
  const auto overlap = analysis::amplifier_scan_overlap(
      w.workload().summary.ntp_amplifiers_contacted, scan);
  std::cout << "  ZMap-style scan overlap: " << overlap << " of "
            << w.workload().summary.ntp_amplifiers_contacted.size()
            << " contacted amplifiers (paper: 3,865 of 24,328)\n";
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
