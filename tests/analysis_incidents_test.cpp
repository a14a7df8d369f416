#include "analysis/incidents.hpp"

#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "net/protocols.hpp"
#include "scenario/scenario.hpp"

namespace spoofscope::analysis {
namespace {

using net::Ipv4Addr;

Label label_of(TrafficClass c) { return static_cast<Label>(c); }

/// Incidents of `flows` under default thresholds; labels carry one space.
std::vector<Incident> incidents_of(std::span<const net::FlowRecord> flows,
                                   std::span<const Label> labels) {
  return report_flows(1, flows, labels).incidents;
}

net::FlowRecord flow(Ipv4Addr src, Ipv4Addr dst, std::uint32_t ts,
                     net::Proto proto = net::Proto::kTcp,
                     std::uint16_t dport = 80, Asn member = 1) {
  net::FlowRecord f;
  f.src = src;
  f.dst = dst;
  f.ts = ts;
  f.proto = proto;
  f.dport = dport;
  f.packets = 1;
  f.bytes = 50;
  f.member_in = member;
  return f;
}

TEST(Incidents, DetectsRandomSpoofFlood) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  const Ipv4Addr victim = Ipv4Addr::from_octets(50, 0, 0, 1);
  for (int i = 0; i < 100; ++i) {
    flows.push_back(flow(Ipv4Addr(10000 + i), victim, 1000 + i));
    labels.push_back(label_of(TrafficClass::kUnrouted));
  }
  const auto incidents = incidents_of(flows, labels);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, IncidentKind::kRandomSpoofFlood);
  EXPECT_EQ(incidents[0].victim, victim);
  EXPECT_EQ(incidents[0].packets, 100u);
  EXPECT_EQ(incidents[0].distinct_sources, 100u);
  EXPECT_EQ(incidents[0].start_ts, 1000u);
  EXPECT_EQ(incidents[0].end_ts, 1099u);
  EXPECT_EQ(incidents[0].members, std::vector<Asn>{1});
}

TEST(Incidents, DetectsAmplificationByTriggerShape) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  const Ipv4Addr victim = Ipv4Addr::from_octets(60, 0, 0, 1);
  for (int amp = 0; amp < 40; ++amp) {
    for (int k = 0; k < 2; ++k) {
      flows.push_back(flow(victim, Ipv4Addr(7000 + amp), 2000 + amp,
                           net::Proto::kUdp, net::ports::kNtp, 2));
      labels.push_back(label_of(TrafficClass::kInvalid));
    }
  }
  const auto incidents = incidents_of(flows, labels);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, IncidentKind::kAmplification);
  EXPECT_EQ(incidents[0].victim, victim);  // the spoofed source
  EXPECT_EQ(incidents[0].distinct_destinations, 40u);
}

TEST(Incidents, IgnoresSmallClustersAndValidTraffic) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  // 10 flagged packets: below min_packets.
  for (int i = 0; i < 10; ++i) {
    flows.push_back(flow(Ipv4Addr(1 + i), Ipv4Addr::from_octets(50, 0, 0, 2),
                         100 + i));
    labels.push_back(label_of(TrafficClass::kBogon));
  }
  // Lots of valid traffic to one destination: never an incident.
  for (int i = 0; i < 500; ++i) {
    flows.push_back(flow(Ipv4Addr(5000 + i), Ipv4Addr::from_octets(50, 0, 0, 3),
                         200 + i));
    labels.push_back(label_of(TrafficClass::kValid));
  }
  EXPECT_TRUE(incidents_of(flows, labels).empty());
}

TEST(Incidents, FewSourceNonTriggerClusterIsOther) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  // 100 packets from only 2 sources to one dst, not NTP-shaped.
  for (int i = 0; i < 100; ++i) {
    flows.push_back(flow(Ipv4Addr(1 + (i % 2)),
                         Ipv4Addr::from_octets(50, 0, 0, 9), 100 + i));
    labels.push_back(label_of(TrafficClass::kInvalid));
  }
  const auto incidents = incidents_of(flows, labels);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, IncidentKind::kOther);
}

TEST(Incidents, SortedByPacketsDescending) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  for (int i = 0; i < 50; ++i) {
    flows.push_back(flow(Ipv4Addr(100 + i), Ipv4Addr::from_octets(50, 1, 0, 1),
                         10 + i));
    labels.push_back(label_of(TrafficClass::kUnrouted));
  }
  for (int i = 0; i < 200; ++i) {
    flows.push_back(flow(Ipv4Addr(9000 + i), Ipv4Addr::from_octets(50, 2, 0, 1),
                         10 + i));
    labels.push_back(label_of(TrafficClass::kUnrouted));
  }
  const auto incidents = incidents_of(flows, labels);
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_GE(incidents[0].packets, incidents[1].packets);
  EXPECT_EQ(incidents[0].victim, Ipv4Addr::from_octets(50, 2, 0, 1));
}

TEST(Incidents, EndToEndOnScenario) {
  auto params = scenario::ScenarioParams::small();
  params.seed = 99;
  const auto world = scenario::build_scenario(params);
  const auto full_idx =
      scenario::Scenario::space_index(inference::Method::kFullCone);
  ReportOptions opts;
  opts.space_idx = full_idx;
  const auto incidents =
      report_flows(world->classifier().space_count(), world->trace().flows,
                   world->labels(), opts)
          .incidents;
  ASSERT_FALSE(incidents.empty());
  // Both attack kinds appear in the generated workload.
  bool flood = false, amp = false;
  for (const auto& i : incidents) {
    flood |= i.kind == IncidentKind::kRandomSpoofFlood;
    amp |= i.kind == IncidentKind::kAmplification;
  }
  EXPECT_TRUE(flood);
  EXPECT_TRUE(amp);
  const auto text = format_incidents(incidents);
  EXPECT_NE(text.find("incidents"), std::string::npos);
  EXPECT_NE(text.find("amplification"), std::string::npos);
}

}  // namespace
}  // namespace spoofscope::analysis
