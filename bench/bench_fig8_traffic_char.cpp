// Fig 8: packet-size CDFs (8a) and the time series per class (8b) — small
// packets and bursty timing for spoofed traffic, diurnal pattern for
// regular traffic.
#include "bench/common.hpp"

#include "analysis/traffic_char.hpp"
#include "util/format.hpp"

namespace {

using namespace spoofscope;
using bench::world;

void BM_TrafficCharBuilder(benchmark::State& state) {
  const auto& batch = bench::world_batch();
  const auto opts = bench::report_options();
  for (auto _ : state) {
    analysis::TrafficCharBuilder builder(
        opts.space_idx, opts.window_seconds, opts.bin_seconds,
        opts.limits.sketch_k, opts.small_packet_threshold);
    builder.add(batch, world().labels());
    auto summary = builder.finish();
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_TrafficCharBuilder)->Unit(benchmark::kMillisecond);

void print_reproduction() {
  bench::print_header(
      "Fig 8 (packet sizes and time-of-day behaviour)",
      "regular traffic bimodal; >80% of spoofed packets < 60 bytes; "
      "regular diurnal, Unrouted/Invalid spiky, Bogon slightly diurnal");
  const auto traffic = bench::world_report().traffic;

  static const analysis::TrafficClass kAll[] = {
      analysis::TrafficClass::kBogon, analysis::TrafficClass::kUnrouted,
      analysis::TrafficClass::kInvalid, analysis::TrafficClass::kValid};
  static const char* kNames[] = {"Bogon", "Unrouted", "Invalid", "Regular"};

  std::cout << "Fig 8a — fraction of packets with mean size < 100B:\n";
  for (int c = 0; c < 4; ++c) {
    const double f =
        traffic.small_packet_fraction[static_cast<int>(kAll[c])];
    std::cout << "  " << util::pad_right(kNames[c], 9) << util::percent(f)
              << "\n";
  }

  const auto& ts = traffic.series;
  std::cout << "\nFig 8b — time series character (hourly bins):\n"
            << "  " << util::pad_right("class", 10)
            << util::pad_left("diurnality", 12)
            << util::pad_left("burstiness", 12) << "\n";
  for (int c = 0; c < 4; ++c) {
    const auto& series = ts.series[static_cast<int>(kAll[c])];
    std::cout << "  " << util::pad_right(kNames[c], 10)
              << util::pad_left(
                     util::fixed(analysis::diurnality(series, ts.bin_seconds), 3),
                     12)
              << util::pad_left(util::fixed(analysis::burstiness(series), 2), 12)
              << "\n";
  }

  // First week of hourly Unrouted and Regular series, downsampled to 6h.
  std::cout << "\nfirst-week sampled-packet series (6h bins):\n";
  for (const int c : {3, 1}) {
    std::cout << "  " << util::pad_right(kNames[c], 9);
    const auto& series = ts.series[static_cast<int>(kAll[c])];
    for (std::size_t b = 0; b + 6 <= std::min<std::size_t>(series.size(), 168);
         b += 6) {
      double sum = 0;
      for (std::size_t k = 0; k < 6; ++k) sum += series[b + k];
      std::cout << " " << util::human_count(sum);
    }
    std::cout << "\n";
  }
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
