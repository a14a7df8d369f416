#include "classify/streaming.hpp"

#include <gtest/gtest.h>

#include "detector_fixture.hpp"
#include "scenario/scenario.hpp"

namespace spoofscope::classify {
namespace {

using net::Ipv4Addr;
using Fixture = testing::DetectorFixture;

net::FlowRecord flow(Ipv4Addr src, std::uint32_t ts, std::uint32_t pkts = 1) {
  net::FlowRecord f;
  f.src = src;
  f.dst = Ipv4Addr::from_octets(60, 0, 0, 1);
  f.ts = ts;
  f.packets = pkts;
  f.bytes = 40ull * pkts;
  f.member_in = 1;
  return f;
}

TEST(Streaming, NoAlertOnCleanTraffic) {
  Fixture fx;
  StreamingDetector detector(fx.plane, 0);
  std::vector<SpoofingAlert> alerts;
  for (int i = 0; i < 1000; ++i) {
    detector.ingest(flow(Ipv4Addr::from_octets(50, 0, 1, 1), i * 10, 10),
                    [&](const SpoofingAlert& a) { alerts.push_back(a); });
  }
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(detector.processed(), 1000u);
}

TEST(Streaming, AlertsOnSpoofedBurst) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 20;
  params.min_share = 0.1;
  StreamingDetector detector(fx.plane, 0, params);

  std::vector<net::FlowRecord> flows;
  // Background valid traffic...
  for (int i = 0; i < 100; ++i) {
    flows.push_back(flow(Ipv4Addr::from_octets(50, 0, 1, 1), i * 30, 1));
  }
  // ...then an unrouted-source burst within one hour.
  for (int i = 0; i < 50; ++i) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 3000 + i, 1));
  }
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  const auto alerts = detector.run(flows);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].member, 1u);
  EXPECT_EQ(alerts[0].dominant_class, TrafficClass::kUnrouted);
  EXPECT_GE(alerts[0].spoofed_packets_in_window, 20.0);
  EXPECT_GE(alerts[0].window_share, 0.1);
}

TEST(Streaming, CooldownSuppressesRepeatAlerts) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 5;
  params.min_share = 0.01;
  params.cooldown_seconds = 100000;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<net::FlowRecord> flows;
  for (int i = 0; i < 500; ++i) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), i * 10, 1));
  }
  const auto alerts = detector.run(flows);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(Streaming, WindowEvictionForgetsOldSpoofing) {
  Fixture fx;
  StreamingParams params;
  params.window_seconds = 100;
  params.min_spoofed_packets = 30;
  params.min_share = 0.5;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<net::FlowRecord> flows;
  // 20 spoofed packets early, 20 late — never 30 within one window.
  for (int i = 0; i < 20; ++i) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), i, 1));
  }
  for (int i = 0; i < 20; ++i) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 10000 + i, 1));
  }
  EXPECT_TRUE(detector.run(flows).empty());
}

TEST(Streaming, SampleExactlyAtWindowBoundaryStillCounts) {
  // Eviction drops samples with ts < (now - window): a sample exactly
  // window seconds old is still inside the (inclusive) window.
  Fixture fx;
  StreamingParams params;
  params.window_seconds = 100;
  params.min_spoofed_packets = 30;
  params.min_share = 0.01;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };
  // 20 spoofed packets at ts=0: below threshold on their own.
  detector.ingest(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 0, 20), sink);
  EXPECT_TRUE(alerts.empty());
  // 10 more exactly at the window boundary: the ts=0 sample has not been
  // evicted, 30 packets are in the window -> alert.
  detector.ingest(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 100, 10), sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].ts, 100u);
  EXPECT_EQ(alerts[0].spoofed_packets_in_window, 30.0);
}

TEST(Streaming, SampleOneSecondPastWindowIsEvicted) {
  // Same traffic shifted by one second: the early burst falls out.
  Fixture fx;
  StreamingParams params;
  params.window_seconds = 100;
  params.min_spoofed_packets = 30;
  params.min_share = 0.01;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };
  detector.ingest(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 0, 20), sink);
  detector.ingest(flow(Ipv4Addr::from_octets(99, 0, 0, 1), 101, 10), sink);
  EXPECT_TRUE(alerts.empty());
}

TEST(Streaming, ReAlertsAfterCooldownExpires) {
  Fixture fx;
  StreamingParams params;
  params.window_seconds = 3600;
  params.min_spoofed_packets = 5;
  params.min_share = 0.01;
  params.cooldown_seconds = 1000;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<net::FlowRecord> flows;
  for (std::uint32_t ts = 0; ts < 2100; ts += 10) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), ts, 1));
  }
  const auto alerts = detector.run(flows);
  // Threshold crossed at ts=40 (5th packet); the steady spoofed stream
  // re-alerts the moment each cooldown expires.
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].ts, 40u);
  EXPECT_EQ(alerts[1].ts, 1040u);
  EXPECT_EQ(alerts[2].ts, 2040u);
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_GE(alerts[i].ts - alerts[i - 1].ts, params.cooldown_seconds);
  }
}

TEST(Streaming, FullySpoofedMemberAlertsAtThreshold) {
  // A member whose traffic is 100% spoofed from its very first flow:
  // the alert fires as soon as the packet threshold is met, at share 1.
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 5;
  params.min_share = 0.05;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<net::FlowRecord> flows;
  for (std::uint32_t ts = 0; ts < 10; ++ts) {
    flows.push_back(flow(Ipv4Addr::from_octets(99, 0, 0, 1), ts, 1));
  }
  const auto alerts = detector.run(flows);
  ASSERT_EQ(alerts.size(), 1u);  // default cooldown suppresses repeats
  EXPECT_EQ(alerts[0].ts, 4u);
  EXPECT_EQ(alerts[0].spoofed_packets_in_window, 5.0);
  EXPECT_EQ(alerts[0].window_share, 1.0);
  EXPECT_EQ(alerts[0].dominant_class, TrafficClass::kUnrouted);
}

TEST(Streaming, DetectsAttacksInScenario) {
  auto params = scenario::ScenarioParams::small();
  params.seed = 4711;
  const auto world = scenario::build_scenario(params);
  StreamingParams sp;
  sp.min_spoofed_packets = 30;
  sp.min_share = 0.02;
  const auto plane = FlatClassifier::compile(world->classifier());
  StreamingDetector detector(
      plane, scenario::Scenario::space_index(inference::Method::kFullConeOrg),
      sp);
  const auto alerts = detector.run(world->trace().flows);
  // The workload contains flood/amplification bursts; some members must
  // trip the detector, but not the majority (it is not a false-alarm
  // machine).
  EXPECT_GT(alerts.size(), 0u);
  EXPECT_LT(alerts.size(), world->ixp().member_count());
  for (const auto& a : alerts) {
    EXPECT_TRUE(world->ixp().is_member(a.member));
    EXPECT_GE(a.window_share, sp.min_share);
  }
}

}  // namespace
}  // namespace spoofscope::classify
