// End-to-end integration: build a full (small) scenario and assert the
// paper's qualitative findings hold — the shape checks that make this a
// reproduction rather than just a library.
#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "analysis/table1.hpp"
#include "classify/fp_hunter.hpp"
#include "classify/pipeline.hpp"
#include "classify/router_tagger.hpp"
#include "scenario/scenario.hpp"

namespace spoofscope::scenario {
namespace {

using classify::TrafficClass;
using inference::Method;

/// One shared scenario for the whole suite (expensive to build).
class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto params = ScenarioParams::small();
    params.seed = 20170301;
    world_ = build_scenario(params).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static const Scenario& world() { return *world_; }
  static classify::Aggregate aggregate() {
    return classify::aggregate_classes(world().classifier().space_count(),
                                       world().trace().flows, world().labels());
  }
  /// The Full Cone report: fixed hourly bins over the window, a 30-packet
  /// Fig 11a destination floor and a 100-byte small-packet threshold.
  static analysis::ReportResult full_cone_report() {
    analysis::ReportOptions opts;
    opts.space_idx = Scenario::space_index(Method::kFullCone);
    opts.window_seconds = world().trace().meta.window_seconds;
    opts.ratio_min_packets = 30;
    opts.small_packet_threshold = 100.0;
    opts.ixp = &world().ixp();
    return analysis::report_flows(world().classifier().space_count(),
                                  world().trace().flows, world().labels(),
                                  opts);
  }

 private:
  static Scenario* world_;
};

Scenario* ScenarioTest::world_ = nullptr;

TEST_F(ScenarioTest, DeterministicLabels) {
  auto params = ScenarioParams::small();
  params.seed = 20170301;
  const auto again = build_scenario(params);
  EXPECT_EQ(again->labels(), world().labels());
  EXPECT_EQ(again->trace().flows.size(), world().trace().flows.size());
}

TEST_F(ScenarioTest, ClassesArePartition) {
  // Mutual exclusivity is structural; verify Bogon/Unrouted agree across
  // every method (the AS-specific step never affects them).
  for (std::size_t i = 0; i < world().labels().size(); i += 7) {
    const auto l = world().labels()[i];
    const auto c0 = classify::Classifier::unpack(l, 0);
    for (int m = 1; m < inference::kNumMethods; ++m) {
      const auto cm = classify::Classifier::unpack(l, m);
      if (c0 == TrafficClass::kBogon || c0 == TrafficClass::kUnrouted) {
        EXPECT_EQ(cm, c0);
      } else {
        EXPECT_TRUE(cm == TrafficClass::kValid || cm == TrafficClass::kInvalid);
      }
    }
  }
}

TEST_F(ScenarioTest, FullConeIsMostConservative) {
  const auto agg = aggregate();
  const auto inv = [&](Method m) {
    return agg.totals[static_cast<std::size_t>(m)]
                     [static_cast<int>(TrafficClass::kInvalid)]
                         .packets;
  };
  // FULL <= CC <= NAIVE in classified Invalid traffic (Sec 3.4 / Table 1),
  // and the org-adjusted variants classify no more than the plain ones.
  EXPECT_LE(inv(Method::kFullCone), inv(Method::kNaive));
  EXPECT_LE(inv(Method::kFullConeOrg), inv(Method::kFullCone));
  EXPECT_LE(inv(Method::kCustomerConeOrg), inv(Method::kCustomerCone));
  EXPECT_GT(inv(Method::kNaive), 0.0);
}

TEST_F(ScenarioTest, OrgAdjustmentShrinksCustomerConeInvalidHard) {
  // Sec 4.3: allowing inter-organization traffic reduces Invalid CC far
  // more than Invalid FULL.
  const auto agg = aggregate();
  const auto inv = [&](Method m) {
    return agg.totals[static_cast<std::size_t>(m)]
                     [static_cast<int>(TrafficClass::kInvalid)]
                         .packets;
  };
  const double cc_reduction = 1.0 - inv(Method::kCustomerConeOrg) /
                                        std::max(1.0, inv(Method::kCustomerCone));
  const double full_reduction = 1.0 - inv(Method::kFullConeOrg) /
                                          std::max(1.0, inv(Method::kFullCone));
  EXPECT_GT(cc_reduction, full_reduction);
}

TEST_F(ScenarioTest, BogonAndUnroutedAreTinyButWidespread) {
  const auto agg = aggregate();
  const auto& bogon = agg.totals[0][static_cast<int>(TrafficClass::kBogon)];
  const auto& unrouted = agg.totals[0][static_cast<int>(TrafficClass::kUnrouted)];
  // Tiny in volume...
  EXPECT_LT(bogon.packets / agg.total_packets, 0.02);
  EXPECT_LT(unrouted.packets / agg.total_packets, 0.02);
  // ...but the majority of members contribute Bogon (paper: 72%).
  const double bogon_members =
      static_cast<double>(bogon.members) / world().ixp().member_count();
  EXPECT_GT(bogon_members, 0.5);
  // More members leak bogons than emit unrouted sources.
  EXPECT_GE(bogon.members, unrouted.members);
}

TEST_F(ScenarioTest, Fig2ConeOrderingHolds) {
  // Per-AS valid space: NAIVE and CC are contained in FULL; org variants
  // only grow the space (Sec 3.4).
  const auto& factory = world().factory();
  const auto members = world().ixp().member_asns();
  const auto naive = factory.build(Method::kNaive, members);
  const auto cc = factory.build(Method::kCustomerCone, members);
  const auto full = factory.build(Method::kFullCone, members);
  const auto full_org = factory.build(Method::kFullConeOrg, members);
  std::size_t cc_escapes = 0;
  for (const auto asn : members) {
    const auto* sn = naive.space_of(asn);
    const auto* sf = full.space_of(asn);
    ASSERT_NE(sn, nullptr);
    ASSERT_NE(sf, nullptr);
    EXPECT_TRUE(sn->subtract(*sf).empty()) << "NAIVE > FULL at AS" << asn;
    EXPECT_LE(full.slash24_of(asn), full_org.slash24_of(asn) + 1e-9);
    // The Customer Cone may escape the Full Cone when the relationship
    // inference misdirects a link; it must stay a rare exception.
    cc_escapes += !cc.space_of(asn)->subtract(*sf).empty();
  }
  EXPECT_LT(static_cast<double>(cc_escapes), 0.15 * members.size());
}

TEST_F(ScenarioTest, SpoofedTrafficIsSmallPackets) {
  // Fig 8a: > 80% of spoofed-class packets are small.
  const auto small = full_cone_report().traffic.small_packet_fraction;
  for (const auto cls :
       {TrafficClass::kBogon, TrafficClass::kUnrouted}) {
    const double frac = small[static_cast<int>(cls)];
    EXPECT_GT(frac, 0.8) << classify::class_name(cls);
  }
  // Regular traffic is not.
  EXPECT_LT(small[static_cast<int>(TrafficClass::kValid)], 0.7);
}

TEST_F(ScenarioTest, RegularTrafficIsDiurnalSpoofedIsNot) {
  const auto ts = full_cone_report().traffic.series;
  const auto& regular = ts.series[static_cast<int>(TrafficClass::kValid)];
  const auto& unrouted = ts.series[static_cast<int>(TrafficClass::kUnrouted)];
  const double regular_diurnality = analysis::diurnality(regular, ts.bin_seconds);
  const double unrouted_diurnality = analysis::diurnality(unrouted, ts.bin_seconds);
  EXPECT_GT(regular_diurnality, 0.25);
  EXPECT_LT(unrouted_diurnality, 0.25);
  EXPECT_GT(regular_diurnality, unrouted_diurnality);
  EXPECT_GT(analysis::burstiness(unrouted), analysis::burstiness(regular));
}

TEST_F(ScenarioTest, UnroutedDestinationsSeeRandomSpoofing) {
  const auto hist = full_cone_report().src_ratio;
  const auto& unrouted =
      hist.fractions[static_cast<int>(TrafficClass::kUnrouted)];
  const auto& invalid = hist.fractions[static_cast<int>(TrafficClass::kInvalid)];
  ASSERT_FALSE(unrouted.empty());
  // Fig 11a: Unrouted destinations are dominated by unique-source floods
  // (right bins); Invalid destinations by few-source amplification (left).
  const double unrouted_right = unrouted[unrouted.size() - 1] +
                                unrouted[unrouted.size() - 2];
  EXPECT_GT(unrouted_right, 0.5);
  EXPECT_GT(invalid[0] + invalid[1], 0.4);
}

TEST_F(ScenarioTest, NtpDominatedByOneMember) {
  const auto ntp = full_cone_report().ntp;
  ASSERT_GT(ntp.trigger_packets, 0u);
  EXPECT_GT(ntp.top_member_share, 0.5);   // paper: 91.94%
  EXPECT_GT(ntp.top5_member_share, 0.9);  // paper: 97.86%
  EXPECT_GT(ntp.invalid_udp_ntp_share, 0.5);
}

TEST_F(ScenarioTest, AmplificationWorksAtTheVantagePoint) {
  const auto ts = full_cone_report().amplification;
  // Fig 11c: responses exceed triggers by roughly an order of magnitude in
  // bytes at similar packet counts.
  EXPECT_GT(ts.amplification_factor(), 5.0);
  EXPECT_LT(ts.amplification_factor(), 20.0);
  EXPECT_NEAR(ts.packet_ratio(), 1.0, 0.2);
}

TEST_F(ScenarioTest, FpHuntReducesInvalid) {
  auto params = ScenarioParams::small();
  params.seed = 20170301;
  auto fresh = build_scenario(params);
  auto labels = fresh->labels();
  const auto full_idx = Scenario::space_index(Method::kFullCone);
  const auto report = classify::hunt_false_positives(
      fresh->classifier(), full_idx, fresh->trace().flows, labels,
      fresh->whois(), fresh->topology());
  EXPECT_GT(report.members_investigated, 0u);
  EXPECT_GT(report.bytes_reduction(), 0.2);
  EXPECT_GT(report.packets_reduction(), 0.1);
  EXPECT_LT(report.invalid_packets_after, report.invalid_packets_before);
}

TEST_F(ScenarioTest, RouterStrayProtocolMixMatchesPaper) {
  const auto breakdown = classify::router_protocol_breakdown(
      world().trace().flows, world().ark());
  EXPECT_NEAR(breakdown.icmp, 0.83, 0.12);
  EXPECT_GT(breakdown.udp_to_ntp, 0.5);
}

TEST_F(ScenarioTest, RouterDominatedMembersExist) {
  const auto full_idx = Scenario::space_index(Method::kFullCone);
  const auto stats = classify::router_ip_stats(
      world().trace().flows, world().labels(), full_idx, world().ark());
  const auto excluded = classify::members_to_exclude(stats);
  EXPECT_FALSE(excluded.empty());
  // Excluding them reduces the number of Invalid-contributing members but
  // not drastically the Invalid volume (Sec 5.2).
  const auto before = aggregate();
  const auto after = classify::aggregate_classes(
      world().classifier().space_count(), world().trace().flows,
      world().labels(), excluded);
  const auto inv_before =
      before.totals[full_idx][static_cast<int>(TrafficClass::kInvalid)];
  const auto inv_after =
      after.totals[full_idx][static_cast<int>(TrafficClass::kInvalid)];
  EXPECT_LT(inv_after.members, inv_before.members);
}

TEST_F(ScenarioTest, VennShowsInconsistentFiltering) {
  const auto v = full_cone_report().venn;
  // The majority of members are not clean (paper: only 18% are).
  EXPECT_LT(v.clean, 0.5);
  // Members emitting Unrouted almost always emit Bogon/Invalid too (96%).
  EXPECT_GT(v.unrouted_also_other, 0.7);
}

TEST_F(ScenarioTest, Table1ColumnsWellFormed) {
  const auto agg = aggregate();
  const auto cols = analysis::table1_columns(agg, world().trace().scale(),
                                             world().ixp().member_count());
  ASSERT_EQ(cols.size(), 5u);
  for (const auto& c : cols) {
    EXPECT_GE(c.member_fraction, 0.0);
    EXPECT_LE(c.member_fraction, 1.0);
    EXPECT_GE(c.packets_fraction, 0.0);
    EXPECT_LE(c.packets_fraction, 1.0);
  }
  // Bogon/Unrouted are tiny; Invalid NAIVE is the largest Invalid column.
  EXPECT_LT(cols[0].packets_fraction, 0.02);
  EXPECT_GE(cols[3].packets_fraction, cols[2].packets_fraction);
}

TEST(ScenarioBuild, ClampsFeederCountToPopulation) {
  // More feeders per collector than ASes exist: the builder must clamp
  // (every AS feeds every collector) instead of rejection-sampling
  // forever.
  auto params = ScenarioParams::small();
  params.feeders_per_collector = 100000;
  params.num_collectors = 2;
  const auto world = build_scenario(params);
  EXPECT_EQ(world->topology().as_count(), params.topology.total_ases());
  EXPECT_FALSE(world->table().prefixes().empty());
}

}  // namespace
}  // namespace spoofscope::scenario
