// The paper-shape invariants must hold across seeds, not just for the
// calibrated one — otherwise the reproduction is a coincidence of one
// random world.
#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "classify/pipeline.hpp"
#include "scenario/scenario.hpp"

namespace spoofscope::scenario {
namespace {

using classify::TrafficClass;
using inference::Method;

class MultiSeedTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static ScenarioParams params_for(std::uint64_t seed) {
    auto p = ScenarioParams::small();
    p.seed = seed;
    return p;
  }
};

TEST_P(MultiSeedTest, HeadlineShapesHold) {
  const auto world = build_scenario(params_for(GetParam()));
  const auto agg = classify::aggregate_classes(
      world->classifier().space_count(), world->trace().flows,
      world->labels());

  const auto cell = [&](Method m, TrafficClass c) {
    return agg.totals[static_cast<std::size_t>(m)][static_cast<int>(c)];
  };

  // Bogon/Unrouted: tiny volume, broad membership.
  const auto bogon = cell(Method::kFullCone, TrafficClass::kBogon);
  const auto unrouted = cell(Method::kFullCone, TrafficClass::kUnrouted);
  EXPECT_LT(bogon.packets / agg.total_packets, 0.02);
  EXPECT_LT(unrouted.packets / agg.total_packets, 0.02);
  EXPECT_GT(static_cast<double>(bogon.members) / world->ixp().member_count(),
            0.45);
  EXPECT_GE(bogon.members, unrouted.members);

  // Method ordering on Invalid traffic.
  const auto inv = [&](Method m) {
    return cell(m, TrafficClass::kInvalid).packets;
  };
  EXPECT_LE(inv(Method::kFullCone), inv(Method::kNaive));
  EXPECT_LE(inv(Method::kFullConeOrg), inv(Method::kFullCone));
  EXPECT_LE(inv(Method::kCustomerConeOrg), inv(Method::kCustomerCone));

  // Spoofed classes are small-packet dominated.
  analysis::ReportOptions opts;
  opts.space_idx = Scenario::space_index(Method::kFullCone);
  opts.small_packet_threshold = 100.0;
  const auto small =
      analysis::report_flows(world->classifier().space_count(),
                             world->trace().flows, world->labels(), opts)
          .traffic.small_packet_fraction;
  EXPECT_GT(small[static_cast<int>(TrafficClass::kUnrouted)], 0.7);
  EXPECT_LT(small[static_cast<int>(TrafficClass::kValid)], 0.7);
}

TEST_P(MultiSeedTest, ComponentsAlignWithClasses) {
  const auto world = build_scenario(params_for(GetParam() ^ 0xfeed));
  const auto& comps = world->workload().components;
  const auto& flows = world->trace().flows;
  ASSERT_EQ(comps.size(), flows.size());
  const auto full_idx = Scenario::space_index(Method::kFullCone);

  double regular_valid = 0, regular_total = 0;
  double ntp_invalid = 0, ntp_total = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto cls = classify::Classifier::unpack(world->labels()[i], full_idx);
    if (comps[i] == traffic::Component::kRegular) {
      regular_total += flows[i].packets;
      regular_valid += (cls == TrafficClass::kValid) * flows[i].packets;
    } else if (comps[i] == traffic::Component::kNtpTrigger) {
      ntp_total += flows[i].packets;
      ntp_invalid += (cls != TrafficClass::kValid) * flows[i].packets;
    }
  }
  // Regular traffic is overwhelmingly Valid; NTP triggers overwhelmingly
  // flagged.
  EXPECT_GT(regular_valid / regular_total, 0.9);
  if (ntp_total > 0) {
    EXPECT_GT(ntp_invalid / ntp_total, 0.8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSeedTest,
                         ::testing::Values(11, 1203, 777777));

}  // namespace
}  // namespace spoofscope::scenario
