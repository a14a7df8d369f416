// Attack forensics (Sec 7): isolate the spoofed traffic of a scenario and
// report the dominant attack patterns — random-spoofing floods, the NTP
// amplification campaigns with their amplifier strategies, and the
// measured amplification effect.
//
//   $ ./attack_forensics [seed]
#include <cstdlib>
#include <iostream>

#include "analysis/incidents.hpp"
#include "analysis/streaming.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "scenario/scenario.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace spoofscope;

  scenario::ScenarioParams params = scenario::ScenarioParams::small();
  if (argc > 1) params.seed = std::strtoull(argv[1], nullptr, 10);
  const auto world = scenario::build_scenario(params);
  const auto& flows = world->trace().flows;
  const auto& labels = world->labels();
  const auto full_idx =
      scenario::Scenario::space_index(inference::Method::kFullCone);

  // Every analysis below comes out of one report pass.
  analysis::ReportOptions opts;
  opts.space_idx = full_idx;
  opts.window_seconds = world->trace().meta.window_seconds;
  opts.ratio_min_packets = 20;
  const auto report = analysis::report_flows(
      world->classifier().space_count(), flows, labels, opts);

  // Selective vs random spoofing (Fig 11a).
  const auto& hist = report.src_ratio;
  std::cout << "== Fig 11a: #srcIPs/#pkts per destination ==\n";
  static const char* kClassNames[] = {"Bogon", "Unrouted", "Invalid"};
  for (int c = 0; c < 3; ++c) {
    std::cout << "  " << util::pad_right(kClassNames[c], 9) << " ("
              << hist.destinations[c] << " dsts):";
    for (const double f : hist.fractions[c]) {
      std::cout << " " << util::fixed(f, 2);
    }
    std::cout << "\n";
  }

  // NTP amplification (Fig 11b + Sec 7 stats).
  const auto& ntp = report.ntp;
  std::cout << "\n== NTP amplification ==\n"
            << "  trigger packets: " << ntp.trigger_packets << " from "
            << ntp.distinct_victims << " victim IPs via "
            << ntp.contributing_members << " members towards "
            << ntp.amplifiers_contacted << " amplifiers\n"
            << "  top member share: " << util::percent(ntp.top_member_share)
            << " (paper: 91.94%), top-5: "
            << util::percent(ntp.top5_member_share) << " (paper: 97.86%)\n"
            << "  Invalid UDP to port 123: "
            << util::percent(ntp.invalid_udp_ntp_share) << " (paper: >90%)\n";
  std::cout << "  top victims (amplifiers, concentration):\n";
  for (const auto& v : ntp.top_victims) {
    std::cout << "    " << util::pad_right(v.victim.str(), 16) << " pkts "
              << util::pad_left(std::to_string(v.trigger_packets), 8)
              << "  amplifiers " << util::pad_left(std::to_string(v.amplifiers), 6)
              << "  gini " << util::fixed(v.concentration, 2)
              << (v.concentration < 0.3 ? "  (distributed spray)"
                                        : "  (concentrated)")
              << "\n";
  }

  // Amplification effect (Fig 11c).
  const auto& ts = report.amplification;
  std::cout << "\n== Fig 11c: amplification effect ==\n"
            << "  byte amplification factor: "
            << util::fixed(ts.amplification_factor(), 1)
            << "x (paper: order of magnitude)\n"
            << "  packet ratio (response/trigger): "
            << util::fixed(ts.packet_ratio(), 2) << " (paper: ~similar)\n";

  // Incident extraction: the Sec 7 analysis as an operator-facing report.
  std::cout << "\n== Incident report ==\n"
            << analysis::format_incidents(report.incidents, 8);

  // Online detection: what a live deployment at the fabric would have
  // alerted on, single pass over the same four weeks, on the plane
  // compiled from the scenario's classifier.
  classify::StreamingParams sp;
  sp.min_spoofed_packets = 30;
  sp.min_share = 0.02;
  const auto plane = classify::FlatClassifier::compile(world->classifier());
  classify::StreamingDetector detector(
      plane, scenario::Scenario::space_index(inference::Method::kFullConeOrg),
      sp);
  const auto alerts = detector.run(flows);
  std::cout << "\n== Live detection ==\n  " << alerts.size()
            << " member alerts over the window; first five:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, alerts.size()); ++i) {
    const auto& a = alerts[i];
    std::cout << "  t+" << a.ts / 3600 << "h AS" << a.member << ": "
              << classify::class_name(a.dominant_class) << "-dominated, "
              << util::human_count(a.spoofed_packets_in_window)
              << " spoofed pkts (" << util::percent(a.window_share)
              << " of the member's traffic)\n";
  }
  return 0;
}
