#include <gtest/gtest.h>

#include <span>
#include <string>

#include "classify/classifier.hpp"
#include "classify/fp_hunter.hpp"
#include "classify/pipeline.hpp"
#include "classify/router_tagger.hpp"
#include "net/flow_batch.hpp"
#include "net/prefix.hpp"
#include "util/rng.hpp"

namespace spoofscope::classify {
namespace {

using net::Ipv4Addr;
using net::pfx;

/// Routing view: 50.0/16 by AS1, 20.0/16 by AS2, path "1 2" visible so
/// AS1's full-cone-like behavior isn't needed — spaces are hand-made.
bgp::RoutingTable small_table() {
  bgp::RoutingTableBuilder b;
  b.ingest_route(pfx("50.0.0.0/16"), bgp::AsPath{1});
  b.ingest_route(pfx("20.0.0.0/16"), bgp::AsPath{1, 2});
  return b.build();
}

inference::ValidSpace space_for(Asn member, const net::Prefix& p,
                                inference::Method m = inference::Method::kFullCone) {
  trie::IntervalSet s;
  s.add(p);
  std::unordered_map<Asn, trie::IntervalSet> spaces;
  spaces.emplace(member, std::move(s));
  return inference::ValidSpace(m, std::move(spaces));
}

Classifier make_classifier(const bgp::RoutingTable& table) {
  std::vector<inference::ValidSpace> spaces;
  spaces.push_back(space_for(1, pfx("50.0.0.0/16")));  // AS1 may source 50.0/16
  return Classifier(table, std::move(spaces));
}

TEST(ClassName, Names) {
  EXPECT_EQ(class_name(TrafficClass::kBogon), "Bogon");
  EXPECT_EQ(class_name(TrafficClass::kUnrouted), "Unrouted");
  EXPECT_EQ(class_name(TrafficClass::kInvalid), "Invalid");
  EXPECT_EQ(class_name(TrafficClass::kValid), "Valid");
}

TEST(Classifier, SequentialClassification) {
  const auto table = small_table();
  const auto c = make_classifier(table);
  // Bogon beats everything.
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(192, 168, 1, 1), 1, 0),
            TrafficClass::kBogon);
  // Routable but unannounced.
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(99, 0, 0, 1), 1, 0),
            TrafficClass::kUnrouted);
  // Routed, valid for AS1.
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(50, 0, 5, 5), 1, 0),
            TrafficClass::kValid);
  // Routed, but AS1 is not a valid source of 20.0/16.
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(20, 0, 5, 5), 1, 0),
            TrafficClass::kInvalid);
  // Unknown member: all routed sources invalid.
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(50, 0, 5, 5), 9, 0),
            TrafficClass::kInvalid);
}

TEST(Classifier, BogonWinsOverRouted) {
  // Even if a bogon range were somehow announced, the bogon check fires
  // first (strictly sequential, Fig 3).
  bgp::RoutingTableBuilder b;
  b.ingest_route(pfx("10.0.0.0/16"), bgp::AsPath{1});   // 10/8 is bogon space
  const auto table = b.build();
  std::vector<inference::ValidSpace> spaces;
  spaces.push_back(space_for(1, pfx("10.0.0.0/16")));
  const Classifier c(table, std::move(spaces));
  EXPECT_EQ(c.classify(Ipv4Addr::from_octets(10, 0, 0, 1), 1, 0),
            TrafficClass::kBogon);
}

TEST(Classifier, PackedLabelsAgreeWithSingle) {
  const auto table = small_table();
  std::vector<inference::ValidSpace> spaces;
  spaces.push_back(space_for(1, pfx("50.0.0.0/16")));
  spaces.push_back(space_for(1, pfx("20.0.0.0/16"), inference::Method::kNaive));
  const Classifier c(table, std::move(spaces));

  for (const auto addr :
       {Ipv4Addr::from_octets(50, 0, 0, 1), Ipv4Addr::from_octets(20, 0, 0, 1),
        Ipv4Addr::from_octets(99, 0, 0, 1), Ipv4Addr::from_octets(224, 1, 1, 1)}) {
    const Label label = c.classify_all(addr, 1);
    for (std::size_t s = 0; s < c.space_count(); ++s) {
      EXPECT_EQ(Classifier::unpack(label, s), c.classify(addr, 1, s));
    }
  }
}

TEST(Classifier, PackedLabelsAgreeWithSingleOnRandomAddresses) {
  // classify_all shares the bogon/routed checks across spaces while
  // classify re-evaluates them per call; a random sweep over the full
  // address space pins the two code paths together (the parallel
  // differential harness relies on classify_all alone).
  const auto table = small_table();
  std::vector<inference::ValidSpace> spaces;
  spaces.push_back(space_for(1, pfx("50.0.0.0/16")));
  spaces.push_back(space_for(1, pfx("20.0.0.0/16"), inference::Method::kNaive));
  spaces.push_back(space_for(2, pfx("50.0.0.0/16"),
                             inference::Method::kCustomerCone));
  const Classifier c(table, std::move(spaces));

  util::Rng rng(20170205);
  for (int i = 0; i < 20'000; ++i) {
    const Ipv4Addr addr(rng.next_u32());
    const Asn member = 1 + static_cast<Asn>(rng.next_u32() % 3);  // 1,2,3
    const Label label = c.classify_all(addr, member);
    for (std::size_t s = 0; s < c.space_count(); ++s) {
      ASSERT_EQ(Classifier::unpack(label, s), c.classify(addr, member, s))
          << addr.str() << " member " << member << " space " << s;
    }
  }
}

TEST(Classifier, RejectsEmptyOrTooManySpaces) {
  const auto table = small_table();
  EXPECT_THROW(Classifier(table, std::vector<inference::ValidSpace>{}),
               std::invalid_argument);
  std::vector<inference::ValidSpace> nine(9);
  EXPECT_THROW(Classifier(table, std::move(nine)), std::invalid_argument);
}

TEST(ClassifyTrace, LabelsParallelToFlows) {
  const auto table = small_table();
  const auto c = make_classifier(table);
  std::vector<net::FlowRecord> flows(3);
  flows[0].src = Ipv4Addr::from_octets(50, 0, 0, 1);
  flows[0].member_in = 1;
  flows[1].src = Ipv4Addr::from_octets(20, 0, 0, 1);
  flows[1].member_in = 1;
  flows[2].src = Ipv4Addr::from_octets(10, 99, 99, 99);  // RFC1918 -> Bogon
  flows[2].member_in = 1;
  const auto labels = classify_trace(c, flows);
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(Classifier::unpack(labels[0], 0), TrafficClass::kValid);
  EXPECT_EQ(Classifier::unpack(labels[1], 0), TrafficClass::kInvalid);
  EXPECT_EQ(Classifier::unpack(labels[2], 0), TrafficClass::kBogon);
}

TEST(Aggregate, CountsPerClassAndMembers) {
  const auto table = small_table();
  const auto c = make_classifier(table);
  std::vector<net::FlowRecord> flows;
  const auto add = [&](Ipv4Addr src, Asn member, std::uint32_t pkts) {
    net::FlowRecord f;
    f.src = src;
    f.member_in = member;
    f.packets = pkts;
    f.bytes = pkts * 100ull;
    flows.push_back(f);
  };
  add(Ipv4Addr::from_octets(50, 0, 0, 1), 1, 10);   // valid
  add(Ipv4Addr::from_octets(20, 0, 0, 1), 1, 5);    // invalid
  add(Ipv4Addr::from_octets(20, 0, 0, 2), 2, 5);    // invalid (AS2 unknown)
  add(Ipv4Addr::from_octets(192, 168, 0, 1), 2, 2); // bogon
  {
    const auto labels = classify_trace(c, flows);
    const auto agg = aggregate_classes(c.space_count(), flows, labels);
    EXPECT_DOUBLE_EQ(agg.total_packets, 22.0);
    const auto& inv = agg.totals[0][static_cast<int>(TrafficClass::kInvalid)];
    EXPECT_DOUBLE_EQ(inv.packets, 10.0);
    EXPECT_EQ(inv.members, 2u);
    const auto& bog = agg.totals[0][static_cast<int>(TrafficClass::kBogon)];
    EXPECT_EQ(bog.members, 1u);
    EXPECT_DOUBLE_EQ(bog.bytes, 200.0);
  }

  // Members on both sides of the dense-id limit (2^16): the last dense
  // id, the first id past it and one near the top of the u32 range,
  // repeating within cells so distinct counting matters on both sides.
  add(Ipv4Addr::from_octets(20, 0, 0, 3), 65535, 3);       // invalid
  add(Ipv4Addr::from_octets(20, 0, 0, 4), 65536, 4);       // invalid
  add(Ipv4Addr::from_octets(20, 0, 0, 5), 4200000000, 6);  // invalid
  add(Ipv4Addr::from_octets(192, 168, 0, 2), 65536, 1);    // bogon
  add(Ipv4Addr::from_octets(20, 0, 0, 6), 65536, 2);       // invalid
  add(Ipv4Addr::from_octets(99, 0, 0, 1), 65535, 7);       // unrouted
  add(Ipv4Addr::from_octets(20, 0, 0, 7), 65535, 1);       // invalid
  const auto labels = classify_trace(c, flows);
  struct Want {
    TrafficClass cls;
    double flows, packets;
    std::size_t members;
  };
  // Hand-computed; bytes are 100 per packet throughout.
  const Want want[] = {
      {TrafficClass::kValid, 1, 10, 1},     // AS1
      {TrafficClass::kInvalid, 7, 26, 5},   // 1, 2, 65535, 65536, 4200000000
      {TrafficClass::kBogon, 2, 3, 2},      // 2, 65536
      {TrafficClass::kUnrouted, 1, 7, 1},   // 65535
  };
  const auto expect_hand_computed = [&](const Aggregate& agg,
                                        const std::string& what) {
    EXPECT_DOUBLE_EQ(agg.total_flows, 11.0) << what;
    EXPECT_DOUBLE_EQ(agg.total_packets, 46.0) << what;
    EXPECT_DOUBLE_EQ(agg.total_bytes, 4600.0) << what;
    for (const Want& w : want) {
      const auto& cell = agg.totals[0][static_cast<int>(w.cls)];
      EXPECT_DOUBLE_EQ(cell.flows, w.flows) << what << " " << class_name(w.cls);
      EXPECT_DOUBLE_EQ(cell.packets, w.packets)
          << what << " " << class_name(w.cls);
      EXPECT_DOUBLE_EQ(cell.bytes, 100 * w.packets)
          << what << " " << class_name(w.cls);
      EXPECT_EQ(cell.members, w.members) << what << " " << class_name(w.cls);
    }
  };
  expect_hand_computed(aggregate_classes(c.space_count(), flows, labels),
                       "one builder");

  // One builder fed two batches whose member sets overlap on both sides
  // of the limit (65535 and 65536 are invalid in each): the member
  // counts must union across add() calls, not add up.
  AggregateBuilder builder(c.space_count());
  const auto add_half = [&](std::size_t lo, std::size_t hi) {
    net::FlowBatch batch;
    for (std::size_t i = lo; i < hi; ++i) batch.push_back(flows[i]);
    builder.add(batch, std::span<const Label>(labels).subspan(lo, hi - lo));
  };
  add_half(0, 7);
  add_half(7, flows.size());
  expect_hand_computed(builder.build(), "two batches");
}

TEST(Aggregate, ExclusionDropsMembers) {
  const auto table = small_table();
  const auto c = make_classifier(table);
  std::vector<net::FlowRecord> flows(2);
  flows[0].src = Ipv4Addr::from_octets(20, 0, 0, 1);
  flows[0].member_in = 1;
  flows[0].packets = 5;
  flows[1].src = Ipv4Addr::from_octets(20, 0, 0, 1);
  flows[1].member_in = 2;
  flows[1].packets = 7;
  {
    const auto labels = classify_trace(c, flows);
    const auto agg = aggregate_classes(c.space_count(), flows, labels, {2});
    EXPECT_DOUBLE_EQ(agg.total_packets, 5.0);
    EXPECT_EQ(agg.totals[0][static_cast<int>(TrafficClass::kInvalid)].members,
              1u);
  }

  // Excluding one member past the dense-id limit drops its flows and
  // leaves its neighbours on both sides of the limit counted.
  for (const Asn member : {Asn{65535}, Asn{65536}, Asn{4200000000}}) {
    net::FlowRecord f = flows[0];
    f.member_in = member;
    f.packets = member == 65535 ? 3 : member == 65536 ? 4 : 6;
    f.bytes = 10ull * f.packets;
    flows.push_back(f);
  }
  const auto labels = classify_trace(c, flows);
  const auto agg =
      aggregate_classes(c.space_count(), flows, labels, {2, 4200000000});
  EXPECT_DOUBLE_EQ(agg.total_flows, 3.0);
  EXPECT_DOUBLE_EQ(agg.total_packets, 12.0);  // 5 + 3 + 4
  EXPECT_DOUBLE_EQ(agg.total_bytes, 70.0);    // 0 + 30 + 40
  const auto& inv = agg.totals[0][static_cast<int>(TrafficClass::kInvalid)];
  EXPECT_DOUBLE_EQ(inv.flows, 3.0);
  EXPECT_DOUBLE_EQ(inv.packets, 12.0);
  EXPECT_DOUBLE_EQ(inv.bytes, 70.0);
  EXPECT_EQ(inv.members, 3u);  // 1, 65535, 65536
}

TEST(RouterTagger, StatsAndExclusion) {
  const auto table = small_table();
  const auto c = make_classifier(table);
  // Router IP: 20.0.7.1 (inside routed space, invalid for member 1).
  const data::ArkDataset ark({Ipv4Addr::from_octets(20, 0, 7, 1).value()}, 10);

  std::vector<net::FlowRecord> flows(3);
  flows[0].src = Ipv4Addr::from_octets(20, 0, 7, 1);  // invalid + router
  flows[0].member_in = 1;
  flows[0].packets = 8;
  flows[1].src = Ipv4Addr::from_octets(20, 0, 9, 9);  // invalid, not router
  flows[1].member_in = 1;
  flows[1].packets = 2;
  flows[2].src = Ipv4Addr::from_octets(20, 0, 9, 9);  // invalid via member 2
  flows[2].member_in = 2;
  flows[2].packets = 4;
  const auto labels = classify_trace(c, flows);

  const auto stats = router_ip_stats(flows, labels, 0, ark);
  ASSERT_EQ(stats.size(), 2u);
  const auto& m1 = stats[0].member == 1 ? stats[0] : stats[1];
  EXPECT_EQ(m1.invalid_packets, 10u);
  EXPECT_EQ(m1.router_invalid_packets, 8u);
  EXPECT_NEAR(m1.router_fraction(), 0.8, 1e-12);

  const auto excluded = members_to_exclude(stats, 0.5);
  EXPECT_EQ(excluded.size(), 1u);
  EXPECT_TRUE(excluded.count(1));
}

TEST(RouterTagger, ProtocolBreakdown) {
  const data::ArkDataset ark({Ipv4Addr::from_octets(20, 0, 7, 1).value()}, 1);
  std::vector<net::FlowRecord> flows(4);
  for (auto& f : flows) {
    f.src = Ipv4Addr::from_octets(20, 0, 7, 1);
    f.packets = 1;
  }
  flows[0].proto = net::Proto::kIcmp;
  flows[1].proto = net::Proto::kIcmp;
  flows[2].proto = net::Proto::kUdp;
  flows[2].dport = 123;
  flows[3].proto = net::Proto::kTcp;
  const auto b = router_protocol_breakdown(flows, ark);
  EXPECT_DOUBLE_EQ(b.icmp, 0.5);
  EXPECT_DOUBLE_EQ(b.udp, 0.25);
  EXPECT_DOUBLE_EQ(b.tcp, 0.25);
  EXPECT_DOUBLE_EQ(b.udp_to_ntp, 1.0);
}

TEST(FpHunter, RecoversWhitelistedRanges) {
  const auto table = small_table();
  auto c = make_classifier(table);

  // Member 1 sends lots of traffic from 20.0.50.0/24 — provider-assigned
  // space registered in WHOIS.
  std::vector<net::FlowRecord> flows;
  for (int i = 0; i < 10; ++i) {
    net::FlowRecord f;
    f.src = Ipv4Addr::from_octets(20, 0, 50, static_cast<std::uint8_t>(i + 1));
    f.member_in = 1;
    f.packets = 10;
    f.bytes = 5000;
    flows.push_back(f);
  }
  auto labels = classify_trace(c, flows);
  for (const auto l : labels) {
    ASSERT_EQ(Classifier::unpack(l, 0), TrafficClass::kInvalid);
  }

  // Whois knows the range belongs to member 1.
  data::WhoisRegistry whois({{1, 2, pfx("20.0.50.0/24")}}, {});
  // Minimal topology for the lookup API (no partners involved).
  const topo::Topology topo({[] {
                               topo::AsInfo a;
                               a.asn = 1;
                               a.org = 1;
                               return a;
                             }()},
                            {});
  const auto report = hunt_false_positives(c, 0, flows, labels, whois, topo, 5);
  EXPECT_EQ(report.members_investigated, 1u);
  EXPECT_EQ(report.members_with_recovered_ranges, 1u);
  EXPECT_GT(report.invalid_packets_before, 0.0);
  EXPECT_DOUBLE_EQ(report.invalid_packets_after, 0.0);
  EXPECT_DOUBLE_EQ(report.packets_reduction(), 1.0);
  for (const auto l : labels) {
    EXPECT_EQ(Classifier::unpack(l, 0), TrafficClass::kValid);
  }
}

TEST(FpHunter, NoRecoveryLeavesLabelsAlone) {
  const auto table = small_table();
  auto c = make_classifier(table);
  std::vector<net::FlowRecord> flows(1);
  flows[0].src = Ipv4Addr::from_octets(20, 0, 50, 1);
  flows[0].member_in = 1;
  flows[0].packets = 3;
  flows[0].bytes = 100;
  auto labels = classify_trace(c, flows);
  data::WhoisRegistry empty_whois;
  const topo::Topology topo({[] {
                               topo::AsInfo a;
                               a.asn = 1;
                               a.org = 1;
                               return a;
                             }()},
                            {});
  const auto report =
      hunt_false_positives(c, 0, flows, labels, empty_whois, topo, 5);
  EXPECT_EQ(report.members_with_recovered_ranges, 0u);
  EXPECT_DOUBLE_EQ(report.packets_reduction(), 0.0);
  EXPECT_EQ(Classifier::unpack(labels[0], 0), TrafficClass::kInvalid);
}

}  // namespace
}  // namespace spoofscope::classify
