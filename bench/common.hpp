// Shared infrastructure for the reproduction benches: one medium-scale
// scenario reused by every registered benchmark in a binary, plus the
// customary main() that first runs the google-benchmark timers and then
// prints the table/figure the binary reproduces.
#pragma once

#include <benchmark/benchmark.h>

#include <ctime>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/streaming.hpp"
#include "classify/batch_kernels.hpp"
#include "net/flow_batch.hpp"
#include "scenario/scenario.hpp"

namespace spoofscope::bench {

/// How the code under test was compiled. The system libbenchmark.so bakes
/// its own (debug) build type into the JSON context, which is useless —
/// and actively misleading — as provenance for OUR numbers: what matters
/// is whether the spoofscope translation units were optimized.
/// tools/run_benches.sh refuses to record BENCH JSON that does not say
/// "release" here.
inline const char* spoofscope_build_type() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

/// Comma-separated kernels the differentials/benches can run here.
inline std::string simd_kernels_string() {
  std::string out;
  for (const auto k : classify::usable_simd_kernels()) {
    if (!out.empty()) out += ",";
    out += classify::simd_kernel_name(k);
  }
  return out;
}

/// JSON file reporter that emits a truthful context block. The stock
/// JSONReporter's "library_build_type" reports how libbenchmark.so was
/// compiled (the distro ships a debug build), not how this binary was;
/// recording it once mislabelled BENCH_perf_core.json as a debug run.
/// Only ReportContext is overridden — it must end with the opening of
/// the "benchmarks" array exactly as the base class does, because the
/// inherited ReportRuns/Finalize complete that JSON structure.
class ProvenanceJsonReporter : public ::benchmark::JSONReporter {
 public:
  bool ReportContext(const Context& context) override {
    std::ostream& out = GetOutputStream();
    char when[64] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm{}; localtime_r(&now, &tm) != nullptr) {
      std::strftime(when, sizeof when, "%Y-%m-%dT%H:%M:%S%z", &tm);
    }
    out << "{\n";
    out << "  \"context\": {\n";
    out << "    \"date\": \"" << when << "\",\n";
    out << "    \"host_name\": \"" << context.sys_info.name << "\",\n";
    out << "    \"executable\": \"" << Context::executable_name << "\",\n";
    out << "    \"num_cpus\": " << context.cpu_info.num_cpus << ",\n";
    out << "    \"mhz_per_cpu\": "
        << static_cast<long>(context.cpu_info.cycles_per_second / 1e6)
        << ",\n";
    out << "    \"cpu_scaling_enabled\": "
        << (context.cpu_info.scaling == ::benchmark::CPUInfo::ENABLED
                ? "true"
                : "false")
        << ",\n";
    out << "    \"library_build_type\": \"" << spoofscope_build_type()
        << "\",\n";
    out << "    \"spoofscope_build_type\": \"" << spoofscope_build_type()
        << "\",\n";
    out << "    \"spoofscope_simd_kernels\": \"" << simd_kernels_string()
        << "\"\n";
    out << "  },\n";
    out << "  \"benchmarks\": [\n";
    return true;
  }
};

/// True when --benchmark_out is among the args (before Initialize eats
/// them): the file reporter may only be passed to RunSpecifiedBenchmarks
/// when an output file is configured.
inline bool wants_file_report(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      return true;
    }
  }
  return false;
}

/// The bench-scale configuration: large enough for the paper's shapes to
/// be visible, small enough that the whole bench suite runs in minutes.
inline scenario::ScenarioParams bench_params() {
  scenario::ScenarioParams p;
  p.seed = 20170205;  // first day of the paper's measurement window
  p.topology.num_tier1 = 5;
  p.topology.num_transit = 30;
  p.topology.num_isp = 130;
  p.topology.num_hosting = 85;
  p.topology.num_content = 40;
  p.topology.num_other = 130;
  p.ixp.member_count = 250;
  p.num_collectors = 9;
  p.feeders_per_collector = 14;
  p.ark.num_traces = 20000;
  p.workload.regular_flows = 300'000;
  p.workload.nat_leak_flows = 2'000;
  p.workload.background_noise_flows = 2'400;
  p.workload.random_spoof_events = 30;
  p.workload.flood_flows_mean = 150;
  p.workload.flood_flows_cap = 2'000;
  p.workload.ntp_campaigns = 14;
  p.workload.ntp_flows_mean = 350;
  p.workload.ntp_flows_cap = 3'000;
  p.workload.ntp_server_pool = 1'200;
  p.workload.steam_flood_events = 4;
  p.workload.steam_flows_cap = 1'000;
  p.workload.router_stray_flows = 2'600;
  p.workload.uncommon_setup_flows_per_member = 250;
  return p;
}

/// The shared world, built once per binary.
inline const scenario::Scenario& world() {
  static const std::unique_ptr<scenario::Scenario> w =
      scenario::build_scenario(bench_params());
  return *w;
}

/// How the figure benches report: the Full Cone space, hourly bins over
/// the trace's window, Fig 11a's 50-packet destination floor, Fig 8a's
/// 100-byte small-packet threshold and the world's member types.
inline analysis::ReportOptions report_options() {
  analysis::ReportOptions opts;
  opts.space_idx = scenario::Scenario::space_index(inference::Method::kFullCone);
  opts.window_seconds = world().trace().meta.window_seconds;
  opts.ratio_min_packets = 50;
  opts.small_packet_threshold = 100.0;
  opts.ixp = &world().ixp();
  return opts;
}

/// The shared world's full report, the source of every Sec 5-7 figure.
inline analysis::ReportResult world_report() {
  return analysis::report_flows(world().classifier().space_count(),
                                world().trace().flows, world().labels(),
                                report_options());
}

/// The shared world's flows packed into one batch, once per binary: the
/// figure benches time their report builder over it.
inline const net::FlowBatch& world_batch() {
  static const net::FlowBatch batch = [] {
    net::FlowBatch b;
    b.reserve(world().trace().flows.size());
    for (const auto& f : world().trace().flows) b.push_back(f);
    return b;
  }();
  return batch;
}

/// Section header for the reproduction output.
inline void print_header(const char* artifact, const char* paper_summary) {
  std::cout << "\n================================================================\n"
            << "Reproduction of " << artifact << "\n"
            << "Paper reports: " << paper_summary << "\n"
            << "Scenario: " << world().topology().as_count() << " ASes, "
            << world().ixp().member_count() << " members, "
            << world().trace().flows.size() << " sampled flows, seed "
            << world().params().seed << "\n"
            << "================================================================\n";
}

}  // namespace spoofscope::bench

/// Standard bench main: timers first, reproduction output second. When
/// --benchmark_out is given, the JSON goes through ProvenanceJsonReporter
/// so the recorded context describes this binary's build, not the
/// system libbenchmark's.
#define SPOOFSCOPE_BENCH_MAIN(print_fn)                                 \
  int main(int argc, char** argv) {                                     \
    const bool to_file = ::spoofscope::bench::wants_file_report(argc,   \
                                                                argv);  \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))           \
      return 1;                                                         \
    if (to_file) {                                                      \
      ::spoofscope::bench::ProvenanceJsonReporter file_reporter;        \
      ::benchmark::RunSpecifiedBenchmarks(nullptr, &file_reporter);     \
    } else {                                                            \
      ::benchmark::RunSpecifiedBenchmarks();                            \
    }                                                                   \
    print_fn();                                                         \
    return 0;                                                           \
  }
