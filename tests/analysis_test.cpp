#include <gtest/gtest.h>

#include "analysis/addr_structure.hpp"
#include "analysis/attack_patterns.hpp"
#include "analysis/business.hpp"
#include "analysis/member_stats.hpp"
#include "analysis/portmix.hpp"
#include "analysis/spoofer_crosscheck.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table1.hpp"
#include "analysis/traffic_char.hpp"
#include "analysis/venn.hpp"
#include "net/protocols.hpp"

namespace spoofscope::analysis {
namespace {

using net::Ipv4Addr;

/// Builds a label directly (class in the low space slot).
Label label_of(TrafficClass c) { return static_cast<Label>(c); }

net::FlowRecord flow(Ipv4Addr src, Ipv4Addr dst, net::Asn member,
                     std::uint32_t pkts, std::uint64_t bytes,
                     net::Proto proto = net::Proto::kTcp,
                     std::uint16_t sport = 40000, std::uint16_t dport = 80,
                     std::uint32_t ts = 0) {
  net::FlowRecord f;
  f.src = src;
  f.dst = dst;
  f.member_in = member;
  f.packets = pkts;
  f.bytes = bytes;
  f.proto = proto;
  f.sport = sport;
  f.dport = dport;
  f.ts = ts;
  return f;
}

/// The streaming report of `flows`, whose labels carry one space.
ReportResult report_of(std::span<const net::FlowRecord> flows,
                       std::span<const Label> labels,
                       const ReportOptions& opts = {}) {
  return report_flows(1, flows, labels, opts);
}

ixp::Ixp empty_ixp() {
  // Build an Ixp with no members via an empty selection: cheat by using a
  // 1-AS topology and asking for 0 members.
  topo::AsInfo a;
  a.asn = 1;
  a.org = 1;
  static const topo::Topology topo({a}, {});
  ixp::IxpParams p;
  p.member_count = 0;
  return ixp::Ixp::build(topo, p, 1);
}

TEST(MemberStats, AggregatesPerMemberAndClass) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr(1), Ipv4Addr(2), 100, 10, 1000),
      flow(Ipv4Addr(3), Ipv4Addr(4), 100, 2, 100),
      flow(Ipv4Addr(5), Ipv4Addr(6), 200, 8, 800),
  };
  std::vector<Label> labels{label_of(TrafficClass::kValid),
                            label_of(TrafficClass::kBogon),
                            label_of(TrafficClass::kInvalid)};
  const auto ixp = empty_ixp();
  ReportOptions opts;
  opts.ixp = &ixp;
  const auto counts = report_of(flows, labels, opts).member_counts;
  ASSERT_EQ(counts.size(), 2u);
  const auto& m100 = counts[0].member == 100 ? counts[0] : counts[1];
  EXPECT_DOUBLE_EQ(m100.total_packets(), 12.0);
  EXPECT_DOUBLE_EQ(m100.packet_share(TrafficClass::kBogon), 2.0 / 12.0);
  EXPECT_TRUE(m100.contributes(TrafficClass::kBogon));
  EXPECT_FALSE(m100.contributes(TrafficClass::kUnrouted));
}

TEST(MemberStats, CcdfIsMonotoneNonIncreasing) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  for (int m = 0; m < 20; ++m) {
    flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(2), 100 + m, 10, 100));
    labels.push_back(label_of(m % 3 == 0 ? TrafficClass::kBogon
                                         : TrafficClass::kValid));
  }
  const auto ixp = empty_ixp();
  ReportOptions opts;
  opts.ixp = &ixp;
  const auto counts = report_of(flows, labels, opts).member_counts;
  const auto ccdf = class_share_ccdf(counts, TrafficClass::kBogon);
  for (std::size_t i = 1; i < ccdf.size(); ++i) {
    EXPECT_LE(ccdf[i].y, ccdf[i - 1].y);
    EXPECT_GT(ccdf[i].x, ccdf[i - 1].x);
  }
}

TEST(Venn, RegionsSumToOne) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  const auto add = [&](net::Asn member, std::uint32_t pkts, TrafficClass c) {
    flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(2), member, pkts, 40 * pkts));
    labels.push_back(label_of(c));
  };
  add(100, 10, TrafficClass::kValid);     // clean
  add(200, 1, TrafficClass::kBogon);      // bogon only
  add(300, 1, TrafficClass::kBogon);      // all three
  add(300, 1, TrafficClass::kUnrouted);
  add(300, 1, TrafficClass::kInvalid);
  add(400, 1, TrafficClass::kUnrouted);   // U+I
  add(400, 1, TrafficClass::kInvalid);
  const auto v = report_of(flows, labels).venn;
  EXPECT_EQ(v.member_count, 4u);
  EXPECT_DOUBLE_EQ(v.clean + v.only_bogon + v.only_unrouted + v.only_invalid +
                       v.bogon_unrouted + v.bogon_invalid + v.unrouted_invalid +
                       v.all_three,
                   1.0);
  EXPECT_DOUBLE_EQ(v.clean, 0.25);
  EXPECT_DOUBLE_EQ(v.only_bogon, 0.25);
  EXPECT_DOUBLE_EQ(v.all_three, 0.25);
  EXPECT_DOUBLE_EQ(v.unrouted_invalid, 0.25);
  EXPECT_DOUBLE_EQ(v.unrouted_also_other, 1.0);
}

TEST(Venn, EmptyInput) {
  const auto v = report_of({}, {}).venn;
  EXPECT_EQ(v.member_count, 0u);
  EXPECT_DOUBLE_EQ(v.clean, 0.0);
}

TEST(Business, ScatterAndSummary) {
  std::vector<MemberClassCounts> counts(2);
  counts[0].member = 1;
  counts[0].type = topo::BusinessType::kHosting;
  counts[0].packets[static_cast<int>(TrafficClass::kValid)] = 90;
  counts[0].packets[static_cast<int>(TrafficClass::kInvalid)] = 10;
  counts[1].member = 2;
  counts[1].type = topo::BusinessType::kContent;
  counts[1].packets[static_cast<int>(TrafficClass::kValid)] = 100;

  const auto points = business_scatter(counts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].share_invalid, 0.1);
  EXPECT_DOUBLE_EQ(points[1].share_invalid, 0.0);

  const auto rows = business_summary(points);
  const auto& hosting = rows[static_cast<int>(topo::BusinessType::kHosting)];
  const auto& content = rows[static_cast<int>(topo::BusinessType::kContent)];
  EXPECT_EQ(hosting.members, 1u);
  EXPECT_DOUBLE_EQ(hosting.significant_invalid, 1.0);
  EXPECT_DOUBLE_EQ(content.significant_invalid, 0.0);
}

TEST(TrafficChar, PacketSizeCdfSeparatesClasses) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr(1), Ipv4Addr(2), 100, 4, 4 * 1400),  // valid, big pkts
      flow(Ipv4Addr(3), Ipv4Addr(4), 100, 4, 4 * 45),    // bogon, small pkts
  };
  std::vector<Label> labels{label_of(TrafficClass::kValid),
                            label_of(TrafficClass::kBogon)};
  const auto traffic = report_of(flows, labels).traffic;
  const auto& valid = traffic.size_sketch[static_cast<int>(TrafficClass::kValid)];
  const auto& bogon = traffic.size_sketch[static_cast<int>(TrafficClass::kBogon)];
  ASSERT_GT(valid.count(), 0u);
  ASSERT_GT(bogon.count(), 0u);
  EXPECT_GT(valid.quantile(0.0), 1000.0);
  EXPECT_LT(bogon.quantile(0.0), 60.0);
}

TEST(TrafficChar, SmallPacketFraction) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr(1), Ipv4Addr(2), 100, 8, 8 * 45),
      flow(Ipv4Addr(3), Ipv4Addr(4), 100, 2, 2 * 1000),
  };
  std::vector<Label> labels{label_of(TrafficClass::kUnrouted),
                            label_of(TrafficClass::kUnrouted)};
  EXPECT_DOUBLE_EQ(report_of(flows, labels)
                       .traffic.small_packet_fraction[static_cast<int>(
                           TrafficClass::kUnrouted)],
                   0.8);
}

TEST(TrafficChar, TimeSeriesBinning) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 5, 100, net::Proto::kTcp, 1, 2, 0),
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 3, 100, net::Proto::kTcp, 1, 2, 3599),
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 7, 100, net::Proto::kTcp, 1, 2, 3600),
  };
  std::vector<Label> labels(3, label_of(TrafficClass::kValid));
  ReportOptions opts;
  opts.window_seconds = 7200;
  opts.bin_seconds = 3600;
  const auto ts = report_of(flows, labels, opts).traffic.series;
  const auto& s = ts.series[static_cast<int>(TrafficClass::kValid)];
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 8.0);
  EXPECT_DOUBLE_EQ(s[1], 7.0);
}

TEST(TrafficChar, BurstinessOrdering) {
  const std::vector<double> steady{10, 11, 10, 9, 10, 11};
  const std::vector<double> bursty{0, 0, 100, 0, 0, 2};
  EXPECT_LT(burstiness(steady), burstiness(bursty));
}

TEST(PortMix, FractionsPerClassAndDirection) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 10, 100, net::Proto::kTcp, 50000, 80),
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 10, 100, net::Proto::kTcp, 443, 51000),
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 10, 100, net::Proto::kUdp, 50000, 123),
      flow(Ipv4Addr(1), Ipv4Addr(2), 1, 10, 100, net::Proto::kIcmp, 0, 0),
  };
  std::vector<Label> labels(4, label_of(TrafficClass::kInvalid));
  const auto mix = report_of(flows, labels).ports;
  EXPECT_DOUBLE_EQ(mix.fraction_of(TrafficClass::kInvalid, Transport::kTcp,
                                   Direction::kDst, 80),
                   0.5);
  EXPECT_DOUBLE_EQ(mix.fraction_of(TrafficClass::kInvalid, Transport::kTcp,
                                   Direction::kSrc, 443),
                   0.5);
  EXPECT_DOUBLE_EQ(mix.fraction_of(TrafficClass::kInvalid, Transport::kUdp,
                                   Direction::kDst, 123),
                   1.0);
  // ICMP flows are outside Fig 9 and must not appear anywhere.
  EXPECT_DOUBLE_EQ(mix.fraction_of(TrafficClass::kInvalid, Transport::kTcp,
                                   Direction::kDst, 0),
                   0.5);  // the 443-src flow's DST port is untracked
}

TEST(AddrStructure, BinsBySlash8) {
  std::vector<net::FlowRecord> flows{
      flow(Ipv4Addr::from_octets(10, 1, 1, 1), Ipv4Addr::from_octets(80, 0, 0, 1),
           1, 5, 100),
      flow(Ipv4Addr::from_octets(10, 9, 9, 9), Ipv4Addr::from_octets(80, 1, 1, 1),
           1, 3, 100),
      flow(Ipv4Addr::from_octets(192, 168, 0, 1),
           Ipv4Addr::from_octets(81, 0, 0, 1), 1, 2, 100),
  };
  std::vector<Label> labels(3, label_of(TrafficClass::kBogon));
  const auto a = address_structure(flows, labels, 0);
  EXPECT_DOUBLE_EQ(a.src[static_cast<int>(TrafficClass::kBogon)][10], 8.0);
  EXPECT_DOUBLE_EQ(a.src[static_cast<int>(TrafficClass::kBogon)][192], 2.0);
  EXPECT_DOUBLE_EQ(a.dst[static_cast<int>(TrafficClass::kBogon)][80], 8.0);
  EXPECT_DOUBLE_EQ(a.src_fraction(TrafficClass::kBogon, 10), 0.8);
}

TEST(AddrStructure, ConcentrationExtremes) {
  AddressStructure a{};
  // Uniform: equal mass in all 256 bins.
  for (int i = 0; i < 256; ++i) a.src[0][i] = 1.0;
  EXPECT_NEAR(a.src_concentration(TrafficClass::kBogon), 1.0 / 256, 1e-9);
  // Single bin: concentration 1.
  AddressStructure b{};
  b.src[0][42] = 99.0;
  EXPECT_DOUBLE_EQ(b.src_concentration(TrafficClass::kBogon), 1.0);
}

TEST(AttackPatterns, SrcRatioSeparatesRandomFromSelective) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  // Random spoofing victim: 100 packets, 100 distinct sources.
  for (int i = 0; i < 100; ++i) {
    flows.push_back(flow(Ipv4Addr(1000 + i), Ipv4Addr(1), 1, 1, 40));
    labels.push_back(label_of(TrafficClass::kUnrouted));
  }
  // Amplification victim: 100 packets from one source.
  for (int i = 0; i < 100; ++i) {
    flows.push_back(flow(Ipv4Addr(7), Ipv4Addr(2), 1, 1, 40));
    labels.push_back(label_of(TrafficClass::kInvalid));
  }
  ReportOptions opts;
  opts.ratio_min_packets = 50;
  opts.ratio_bins = 10;
  const auto hist = report_of(flows, labels, opts).src_ratio;
  EXPECT_EQ(hist.destinations[static_cast<int>(TrafficClass::kUnrouted)], 1u);
  EXPECT_EQ(hist.destinations[static_cast<int>(TrafficClass::kInvalid)], 1u);
  // Random spoofing lands in the rightmost bin, selective in the leftmost.
  EXPECT_DOUBLE_EQ(
      hist.fractions[static_cast<int>(TrafficClass::kUnrouted)].back(), 1.0);
  EXPECT_DOUBLE_EQ(
      hist.fractions[static_cast<int>(TrafficClass::kInvalid)].front(), 1.0);
}

TEST(AttackPatterns, SrcRatioIgnoresSmallDestinations) {
  std::vector<net::FlowRecord> flows{flow(Ipv4Addr(5), Ipv4Addr(6), 1, 3, 40)};
  std::vector<Label> labels{label_of(TrafficClass::kUnrouted)};
  ReportOptions opts;
  opts.ratio_min_packets = 50;
  opts.ratio_bins = 10;
  const auto hist = report_of(flows, labels, opts).src_ratio;
  EXPECT_EQ(hist.destinations[static_cast<int>(TrafficClass::kUnrouted)], 0u);
}

TEST(AttackPatterns, NtpAnalysisBasics) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  // Victim A: selective spoofing towards 3 amplifiers via member 100.
  for (int amp = 0; amp < 3; ++amp) {
    for (int i = 0; i < 10; ++i) {
      flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(500 + amp), 100, 1, 40,
                           net::Proto::kUdp, 55555, 123));
      labels.push_back(label_of(TrafficClass::kInvalid));
    }
  }
  // Some invalid UDP noise on other ports via member 200.
  flows.push_back(flow(Ipv4Addr(2), Ipv4Addr(9), 200, 3, 40, net::Proto::kUdp,
                       55555, 9999));
  labels.push_back(label_of(TrafficClass::kInvalid));

  ReportOptions opts;
  opts.top_victims = 5;
  const auto ntp = report_of(flows, labels, opts).ntp;
  EXPECT_EQ(ntp.trigger_packets, 30u);
  EXPECT_EQ(ntp.distinct_victims, 1u);
  EXPECT_EQ(ntp.amplifiers_contacted, 3u);
  EXPECT_EQ(ntp.contributing_members, 1u);
  EXPECT_DOUBLE_EQ(ntp.top_member_share, 1.0);
  EXPECT_NEAR(ntp.invalid_udp_ntp_share, 30.0 / 33.0, 1e-9);
  ASSERT_EQ(ntp.top_victims.size(), 1u);
  EXPECT_EQ(ntp.top_victims[0].amplifiers, 3u);
  EXPECT_NEAR(ntp.top_victims[0].concentration, 0.0, 1e-9);  // uniform
}

TEST(AttackPatterns, AmplificationEffectPairsBothDirections) {
  std::vector<net::FlowRecord> flows;
  std::vector<Label> labels;
  // Trigger: victim 1 -> amplifier 2 (Invalid), 10 pkts, 400 bytes.
  flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(2), 100, 10, 400,
                       net::Proto::kUdp, 50000, 123, 100));
  labels.push_back(label_of(TrafficClass::kInvalid));
  // Response: amplifier 2 -> victim 1, 10 pkts, 4000 bytes.
  flows.push_back(flow(Ipv4Addr(2), Ipv4Addr(1), 300, 10, 4000,
                       net::Proto::kUdp, 123, 50000, 101));
  labels.push_back(label_of(TrafficClass::kValid));
  // A trigger without any response: pair must be excluded.
  flows.push_back(flow(Ipv4Addr(5), Ipv4Addr(6), 100, 99, 9900,
                       net::Proto::kUdp, 50000, 123, 100));
  labels.push_back(label_of(TrafficClass::kInvalid));

  ReportOptions opts;
  opts.window_seconds = 7200;
  opts.bin_seconds = 3600;
  const auto ts = report_of(flows, labels, opts).amplification;
  EXPECT_DOUBLE_EQ(ts.packets_to_amplifier[0], 10.0);
  EXPECT_DOUBLE_EQ(ts.packets_from_amplifier[0], 10.0);
  EXPECT_DOUBLE_EQ(ts.amplification_factor(), 10.0);
  EXPECT_DOUBLE_EQ(ts.packet_ratio(), 1.0);

  // Two more triggers of the pair, out of time order, with bins grown
  // from the timestamps (window 0): each lands in its own bin and the
  // series reaches the latest one.
  flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(2), 100, 5, 200,
                       net::Proto::kUdp, 50000, 123, 5 * 3600));
  labels.push_back(label_of(TrafficClass::kInvalid));
  flows.push_back(flow(Ipv4Addr(1), Ipv4Addr(2), 100, 3, 120,
                       net::Proto::kUdp, 50000, 123, 2 * 3600));
  labels.push_back(label_of(TrafficClass::kInvalid));
  const auto grown = report_of(flows, labels).amplification;
  ASSERT_EQ(grown.packets_to_amplifier.size(), 6u);
  EXPECT_DOUBLE_EQ(grown.packets_to_amplifier[0], 10.0);
  EXPECT_DOUBLE_EQ(grown.packets_to_amplifier[2], 3.0);
  EXPECT_DOUBLE_EQ(grown.packets_to_amplifier[5], 5.0);
  EXPECT_DOUBLE_EQ(grown.packets_from_amplifier[0], 10.0);
}

TEST(AttackPatterns, ScanOverlap) {
  const std::vector<Ipv4Addr> contacted{Ipv4Addr(1), Ipv4Addr(2), Ipv4Addr(3)};
  const std::vector<Ipv4Addr> scan{Ipv4Addr(2), Ipv4Addr(3), Ipv4Addr(4)};
  EXPECT_EQ(amplifier_scan_overlap(contacted, scan), 2u);
  EXPECT_EQ(amplifier_scan_overlap(contacted, {}), 0u);
}

TEST(SpooferCrossCheck, ContingencyNumbers) {
  std::vector<MemberClassCounts> counts(3);
  counts[0].member = 1;  // we detect (invalid)
  counts[0].packets[static_cast<int>(TrafficClass::kInvalid)] = 5;
  counts[1].member = 2;  // we detect (unrouted)
  counts[1].packets[static_cast<int>(TrafficClass::kUnrouted)] = 5;
  counts[2].member = 3;  // clean
  counts[2].packets[static_cast<int>(TrafficClass::kValid)] = 5;

  std::vector<data::SpooferRecord> recs{
      {1, true}, {2, false}, {3, false}, {99, true} /* not a member */};
  const auto c = cross_check_spoofer(counts, recs);
  EXPECT_EQ(c.overlapping_ases, 3u);
  EXPECT_NEAR(c.passive_detection_rate, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(c.spoofer_positive_rate, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(c.spoofer_agrees_with_passive, 0.5, 1e-9);
  EXPECT_NEAR(c.passive_detects_spoofer_positives, 1.0, 1e-9);
}

TEST(Table1, ColumnsAndFormatting) {
  classify::Aggregate agg;
  agg.totals.resize(inference::kNumMethods);
  agg.total_packets = 1000;
  agg.total_bytes = 1e6;
  auto& bogon = agg.totals[static_cast<int>(inference::Method::kFullConeOrg)]
                          [static_cast<int>(TrafficClass::kBogon)];
  bogon.members = 5;
  bogon.packets = 10;
  bogon.bytes = 400;
  const auto cols = table1_columns(agg, 10000.0, 50);
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_EQ(cols[0].name, "Bogon");
  EXPECT_EQ(cols[0].members, 5u);
  EXPECT_DOUBLE_EQ(cols[0].member_fraction, 0.1);
  EXPECT_DOUBLE_EQ(cols[0].packets, 100000.0);
  EXPECT_DOUBLE_EQ(cols[0].packets_fraction, 0.01);

  const auto text = format_table1(cols);
  EXPECT_NE(text.find("Bogon"), std::string::npos);
  EXPECT_NE(text.find("Invalid NAIVE"), std::string::npos);
  EXPECT_NE(text.find("members"), std::string::npos);
}

}  // namespace
}  // namespace spoofscope::analysis
