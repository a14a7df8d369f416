// Fig 9: the application mix per class — spoofed TCP destined to
// HTTP/HTTPS (floods), Invalid UDP overwhelmingly to NTP (amplification
// triggers), Unrouted UDP showing the Steam port.
#include "bench/common.hpp"

#include "analysis/portmix.hpp"
#include "net/protocols.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_PortMixBuilder(benchmark::State& state) {
  const auto& batch = bench::world_batch();
  const auto opts = bench::report_options();
  for (auto _ : state) {
    analysis::PortMixBuilder builder(opts.space_idx);
    builder.add(batch, world().labels());
    auto mix = builder.finish();
    benchmark::DoNotOptimize(mix);
  }
}
BENCHMARK(BM_PortMixBuilder)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 9 (port mix per class)",
      ">90% of Invalid UDP packets to DST 123 (NTP); spoofed TCP mostly "
      "DST 80/443; Unrouted UDP shows 27015 (Steam); regular web traffic "
      "symmetric in SRC/DST 80/443");
  const auto mix = bench::world_report().ports;
  std::cout << analysis::format_port_mix(mix);

  using analysis::Direction;
  using analysis::TrafficClass;
  using analysis::Transport;
  std::cout << "\nkey observations:\n"
            << "  Invalid UDP -> DST 123: "
            << util::percent(mix.fraction_of(TrafficClass::kInvalid,
                                             Transport::kUdp, Direction::kDst,
                                             net::ports::kNtp))
            << " (paper >90%)\n"
            << "  Unrouted UDP -> DST 27015: "
            << util::percent(mix.fraction_of(TrafficClass::kUnrouted,
                                             Transport::kUdp, Direction::kDst,
                                             net::ports::kSteam))
            << " (paper: pronounced)\n"
            << "  Unrouted TCP -> DST 80+443: "
            << util::percent(
                   mix.fraction_of(TrafficClass::kUnrouted, Transport::kTcp,
                                   Direction::kDst, net::ports::kHttp) +
                   mix.fraction_of(TrafficClass::kUnrouted, Transport::kTcp,
                                   Direction::kDst, net::ports::kHttps))
            << " (paper: majority)\n"
            << "  Regular TCP SRC 80+443: "
            << util::percent(
                   mix.fraction_of(TrafficClass::kValid, Transport::kTcp,
                                   Direction::kSrc, net::ports::kHttp) +
                   mix.fraction_of(TrafficClass::kValid, Transport::kTcp,
                                   Direction::kSrc, net::ports::kHttps))
            << " (server->client half of the web mix)\n";
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
