// Degraded-mode StreamingDetector: bounded reorder buffer, explicit
// timestamp-order contract, and hard memory caps with deterministic
// eviction. Every expectation here is exact — the detector is a pure
// function of the ingested flow sequence.
#include "classify/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "detector_fixture.hpp"
#include "util/rng.hpp"

namespace spoofscope::classify {
namespace {

using net::Ipv4Addr;
using Fixture = testing::DetectorFixture;

net::FlowRecord flow(Ipv4Addr src, std::uint32_t ts, std::uint32_t pkts = 1,
                     Asn member = 1) {
  net::FlowRecord f;
  f.src = src;
  f.dst = Ipv4Addr::from_octets(60, 0, 0, 1);
  f.ts = ts;
  f.packets = pkts;
  f.bytes = 40ull * pkts;
  f.member_in = member;
  return f;
}

Ipv4Addr spoofed_src() { return Ipv4Addr::from_octets(99, 0, 0, 1); }
Ipv4Addr valid_src() { return Ipv4Addr::from_octets(50, 0, 1, 1); }

TEST(StreamingDegraded, ReorderWithinSkewMatchesSortedRun) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 20;
  params.min_share = 0.1;
  params.reorder_skew_seconds = 30;

  // A mixed valid/spoofed stream, then locally shuffled within blocks of
  // 10 seconds — strictly less than the skew, so the buffer must restore
  // the exact sorted outcome.
  std::vector<net::FlowRecord> sorted;
  util::Rng rng(99);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const bool spoof = rng.chance(0.3);
    sorted.push_back(flow(spoof ? spoofed_src() : valid_src(), i, 2));
  }
  std::vector<net::FlowRecord> shuffled = sorted;
  for (std::size_t base = 0; base + 10 <= shuffled.size(); base += 10) {
    for (std::size_t i = base + 9; i > base; --i) {
      std::swap(shuffled[i], shuffled[base + rng.index(i - base + 1)]);
    }
  }
  ASSERT_NE(shuffled, sorted);

  StreamingDetector on_sorted(fx.plane, 0, params);
  StreamingDetector on_shuffled(fx.plane, 0, params);
  const auto a = on_sorted.run(sorted);
  const auto b = on_shuffled.run(shuffled);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  const auto h = on_shuffled.health();
  EXPECT_EQ(h.late_drops, 0u);
  EXPECT_EQ(h.regressions, 0u);
  EXPECT_EQ(h.reorder_depth, 0u);  // flush drained everything
  EXPECT_GT(h.max_reorder_depth, 0u);
}

TEST(StreamingDegraded, FlowLaterThanSkewIsDroppedAndCounted) {
  Fixture fx;
  StreamingParams params;
  params.reorder_skew_seconds = 10;
  StreamingDetector detector(fx.plane, 0, params);
  const auto sink = [](const SpoofingAlert&) {};
  for (std::uint32_t ts = 0; ts <= 100; ++ts) {
    detector.ingest(flow(valid_src(), ts), sink);
  }
  detector.ingest(flow(valid_src(), 50), sink);  // 50 < 100 - 10
  detector.ingest(flow(valid_src(), 95), sink);  // within skew: buffered
  detector.flush(sink);
  const auto h = detector.health();
  EXPECT_EQ(h.late_drops, 1u);
  EXPECT_EQ(h.regressions, 0u);
  EXPECT_EQ(detector.processed(), 103u);
}

TEST(StreamingDegraded, RegressionIsCountedNotFoldedIntoWindow) {
  // The timestamp-order contract, buffer disabled (skew 0): a regressed
  // flow is dropped and counted in health().regressions — its packets
  // must not leak into any window.
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 30;
  params.min_share = 0.01;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };

  detector.ingest(flow(spoofed_src(), 500, 20), sink);
  // Regression carrying enough spoofed packets to alert if (wrongly)
  // accounted.
  detector.ingest(flow(spoofed_src(), 100, 1000), sink);
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(detector.health().regressions, 1u);

  // Window accounting is intact: exactly 10 more spoofed packets reach
  // the 30-packet threshold, and the alert reports 30 — not 1030.
  detector.ingest(flow(spoofed_src(), 510, 10), sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].spoofed_packets_in_window, 30.0);
  EXPECT_EQ(alerts[0].ts, 510u);
}

TEST(StreamingDegraded, ReorderBufferCapForcesEarlyRelease) {
  Fixture fx;
  StreamingParams params;
  params.reorder_skew_seconds = 1000000;  // nothing matures naturally
  params.max_reorder_records = 16;
  StreamingDetector detector(fx.plane, 0, params);
  const auto sink = [](const SpoofingAlert&) {};
  for (std::uint32_t ts = 0; ts < 100; ++ts) {
    detector.ingest(flow(valid_src(), ts), sink);
  }
  const auto h = detector.health();
  EXPECT_EQ(h.forced_releases, 84u);  // every ingest past the cap
  EXPECT_EQ(h.reorder_depth, 16u);
  EXPECT_EQ(h.max_reorder_depth, 17u);  // transiently cap+1 before release
}

TEST(StreamingDegraded, MemberCapEvictsLeastRecentlyActive) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 30;
  params.min_share = 0.01;
  params.max_members = 2;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };

  // Member 2 accumulates 25 spoofed packets, member 1 is active later.
  detector.ingest(flow(spoofed_src(), 10, 25, 2), sink);
  detector.ingest(flow(valid_src(), 20, 1, 1), sink);
  // Member 3 arrives at the cap: member 2 (idle since ts 10) is evicted.
  detector.ingest(flow(valid_src(), 30, 1, 3), sink);
  EXPECT_EQ(detector.health().member_evictions, 1u);
  EXPECT_EQ(detector.health().tracked_members, 2u);
  // Member 2 returns with 6 more spoofed packets: had its history
  // survived, 31 > 30 would alert; eviction reset it, so no alert.
  detector.ingest(flow(spoofed_src(), 40, 6, 2), sink);
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(detector.health().member_evictions, 2u);  // 1 went idle-out
}

TEST(StreamingDegraded, MemberEvictionTieBreaksToSmallestAsn) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 30;
  params.min_share = 0.01;
  params.max_members = 2;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };

  // Members 5 and 9 are equally idle (both last seen at ts 0).
  detector.ingest(flow(spoofed_src(), 0, 25, 5), sink);
  detector.ingest(flow(spoofed_src(), 0, 25, 9), sink);
  detector.ingest(flow(valid_src(), 5, 1, 7), sink);  // evicts 5, not 9
  // Member 9 kept its history: 6 more spoofed packets cross 30.
  detector.ingest(flow(spoofed_src(), 6, 6, 9), sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].member, 9u);
  // Member 5 lost its history: same top-up stays silent.
  detector.ingest(flow(spoofed_src(), 7, 6, 5), sink);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(StreamingDegraded, SampleCapBoundsWindowDepth) {
  Fixture fx;
  StreamingParams params;
  params.window_seconds = 1000000;  // nothing ages out naturally
  params.max_window_samples = 64;
  StreamingDetector detector(fx.plane, 0, params);
  const auto sink = [](const SpoofingAlert&) {};
  for (std::uint32_t ts = 0; ts < 10000; ++ts) {
    detector.ingest(flow(spoofed_src(), ts), sink);
  }
  const auto h = detector.health();
  EXPECT_LE(h.max_window_depth, 64u);
  EXPECT_EQ(h.sample_evictions, 10000u - 64u);
}

TEST(StreamingDegraded, PathologicalMemberScanStaysBounded) {
  // A million distinct members, each seen once: tracked state must stay
  // at the cap, deterministically.
  Fixture fx;
  StreamingParams params;
  params.max_members = 1000;
  params.max_window_samples = 8;
  const auto run_once = [&] {
    StreamingDetector detector(fx.plane, 0, params);
    const auto sink = [](const SpoofingAlert&) {};
    for (std::uint32_t i = 0; i < 1000000; ++i) {
      detector.ingest(flow(spoofed_src(), i / 10, 1, 10 + i), sink);
    }
    return detector.health();
  };
  const auto h = run_once();
  EXPECT_EQ(h.tracked_members, 1000u);
  EXPECT_EQ(h.member_evictions, 1000000u - 1000u);
  EXPECT_LE(h.max_window_depth, 8u);
  EXPECT_EQ(h, run_once());  // bit-identical across runs
}

TEST(StreamingDegraded, FlushDrainsBufferedAlerts) {
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 5;
  params.min_share = 0.01;
  params.reorder_skew_seconds = 100;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&](const SpoofingAlert& a) { alerts.push_back(a); };
  for (std::uint32_t ts = 0; ts < 10; ++ts) {
    detector.ingest(flow(spoofed_src(), ts), sink);
  }
  // Everything is younger than the skew: still buffered, no alerts yet.
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(detector.health().reorder_depth, 10u);
  detector.flush(sink);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].ts, 4u);
  EXPECT_EQ(detector.health().reorder_depth, 0u);
}

TEST(StreamingDegraded, DefaultParamsPreserveHistoricalBehaviour) {
  // skew 0 and unbounded caps: a sorted stream must see zero degradation
  // events of any kind.
  Fixture fx;
  StreamingParams params;
  params.min_spoofed_packets = 20;
  params.min_share = 0.1;
  StreamingDetector detector(fx.plane, 0, params);
  std::vector<net::FlowRecord> flows;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    flows.push_back(flow(i % 3 == 0 ? spoofed_src() : valid_src(), i, 2));
  }
  const auto alerts = detector.run(flows);
  EXPECT_FALSE(alerts.empty());
  const auto h = detector.health();
  EXPECT_EQ(h.regressions, 0u);
  EXPECT_EQ(h.late_drops, 0u);
  EXPECT_EQ(h.forced_releases, 0u);
  EXPECT_EQ(h.member_evictions, 0u);
  EXPECT_EQ(h.sample_evictions, 0u);
  EXPECT_EQ(h.max_reorder_depth, 0u);
}

}  // namespace
}  // namespace spoofscope::classify
