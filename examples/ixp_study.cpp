// The full measurement-study workflow of the paper on one scenario:
// classification (Table 1), filtering consistency (Fig 5), business types
// (Fig 6), false-positive hunting (Sec 4.4), router strays (Sec 5.2) and
// the Spoofer cross-check (Sec 4.5).
//
//   $ ./ixp_study [seed] [--paper] [--csv <dir>]
//     --paper     run the full-size scenario (700 members)
//     --csv DIR   additionally export every figure's data as CSV to DIR
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "analysis/addr_structure.hpp"
#include "analysis/business.hpp"
#include "analysis/export.hpp"
#include "analysis/spoofer_crosscheck.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table1.hpp"
#include "analysis/venn.hpp"
#include "classify/fp_hunter.hpp"
#include "classify/pipeline.hpp"
#include "classify/router_tagger.hpp"
#include "scenario/scenario.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace spoofscope;

  scenario::ScenarioParams params = scenario::ScenarioParams::small();
  std::string csv_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper") == 0) {
      const auto seed = params.seed;
      params = scenario::ScenarioParams::paper();
      params.seed = seed;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_dir = argv[++i];
    } else {
      params.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  auto world = scenario::build_scenario(params);
  const auto& flows = world->trace().flows;
  const auto full_idx =
      scenario::Scenario::space_index(inference::Method::kFullCone);

  // --- Table 1 -------------------------------------------------------------
  const auto agg = classify::aggregate_classes(
      world->classifier().space_count(), flows, world->labels());
  std::cout << "== Table 1: class contributions ==\n"
            << analysis::format_table1(analysis::table1_columns(
                   agg, world->trace().scale(), world->ixp().member_count()))
            << "\n";

  // --- Sec 4.4: hunt false positives ---------------------------------------
  auto labels = world->labels();
  const auto report = classify::hunt_false_positives(
      world->classifier(), full_idx, flows, labels, world->whois(),
      world->topology());
  std::cout << "== Sec 4.4: false positive hunt ==\n"
            << "  members investigated: " << report.members_investigated
            << ", with recovered ranges: "
            << report.members_with_recovered_ranges << "\n"
            << "  Invalid bytes reduced by "
            << util::percent(report.bytes_reduction()) << ", packets by "
            << util::percent(report.packets_reduction())
            << " (paper: 59.9% / 40%)\n\n";

  // --- Sec 5.2: router strays -----------------------------------------------
  const auto rstats =
      classify::router_ip_stats(flows, labels, full_idx, world->ark());
  const auto excluded = classify::members_to_exclude(rstats);
  const auto breakdown = classify::router_protocol_breakdown(flows, world->ark());
  std::cout << "== Sec 5.2: stray router traffic ==\n"
            << "  members whose Invalid is >=50% router IPs: " << excluded.size()
            << "\n  router-IP traffic mix: ICMP " << util::percent(breakdown.icmp)
            << ", UDP " << util::percent(breakdown.udp) << " (to NTP "
            << util::percent(breakdown.udp_to_ntp) << "), TCP "
            << util::percent(breakdown.tcp) << "\n\n";

  // --- Fig 5 / Fig 6 ---------------------------------------------------------
  // Figs 5, 6, 8, 9 and 11 and Sec 4.5 below all come out of one report
  // pass over the hunted labels.
  analysis::ReportOptions opts;
  opts.space_idx = full_idx;
  opts.window_seconds = world->trace().meta.window_seconds;
  opts.ixp = &world->ixp();
  const auto study = analysis::report_flows(world->classifier().space_count(),
                                            flows, labels, opts);
  const auto& counts = study.member_counts;
  std::cout << "== Fig 5 ==\n" << analysis::format_venn(study.venn) << "\n";
  const auto points = analysis::business_scatter(counts);
  std::cout << "== Fig 6 ==\n"
            << analysis::format_business_summary(
                   analysis::business_summary(points))
            << "\n";

  // --- Sec 4.5 ---------------------------------------------------------------
  std::cout << "== Sec 4.5 ==\n"
            << analysis::format_cross_check(
                   analysis::cross_check_spoofer(counts, world->spoofer()));

  // --- optional CSV export of every figure ------------------------------------
  if (!csv_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(csv_dir);
    const auto csv = [&](const std::string& name, const auto& writer) {
      std::ofstream out(fs::path(csv_dir) / name);
      writer(out);
    };
    csv("table1.csv", [&](std::ostream& o) {
      analysis::export_table1_csv(
          o, analysis::table1_columns(agg, world->trace().scale(),
                                      world->ixp().member_count()));
    });
    csv("fig2_full_cone_sizes.csv", [&](std::ostream& o) {
      analysis::export_valid_sizes_csv(
          o, world->factory().valid_sizes(inference::Method::kFullCone));
    });
    csv("fig4_invalid_ccdf.csv", [&](std::ostream& o) {
      analysis::export_distribution_csv(
          o, analysis::class_share_ccdf(counts,
                                        analysis::TrafficClass::kInvalid));
    });
    csv("fig5_venn.csv", [&](std::ostream& o) {
      analysis::export_venn_csv(o, study.venn);
    });
    csv("fig6_business.csv", [&](std::ostream& o) {
      analysis::export_business_csv(o, points);
    });
    csv("fig8b_timeseries.csv", [&](std::ostream& o) {
      analysis::export_time_series_csv(o, study.traffic.series);
    });
    csv("fig9_portmix.csv", [&](std::ostream& o) {
      analysis::export_port_mix_csv(o, study.ports);
    });
    csv("fig10_addr_structure.csv", [&](std::ostream& o) {
      analysis::export_address_structure_csv(
          o, analysis::address_structure(flows, labels, full_idx));
    });
    csv("fig11b_ntp_victims.csv", [&](std::ostream& o) {
      analysis::export_ntp_victims_csv(o, study.ntp.top_victims);
    });
    csv("fig11c_amplification.csv", [&](std::ostream& o) {
      analysis::export_amplification_csv(o, study.amplification);
    });
    std::cout << "\nCSV exports written to " << csv_dir << "\n";
  }
  return 0;
}
