// Differential harness for the compiled flat classification plane: for
// several scenario seeds and thread counts, the FlatClassifier must
// reproduce its trie oracle bit-identically — per-flow labels, aggregate
// cells, extracted incidents and the per-flow classes the streaming
// detector consumes. Also
// exercises the two escape hatches the flat plane keeps for correctness:
// the interval-set fallback lane (ValidSpace::extend with ranges that
// don't align to routed prefixes) and the overflow lane (prefixes longer
// than /24 when the Sec 3.3 ingest invariant is relaxed).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "analysis/streaming.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
#include "net/flow_batch.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::classify {
namespace {

/// Thread counts under test; 0 resolves to the hardware concurrency.
constexpr std::size_t kThreadCounts[] = {1, 2, 0};

void expect_same_aggregate(const Aggregate& a, const Aggregate& b,
                           const char* what) {
  EXPECT_EQ(a.total_flows, b.total_flows) << what;
  EXPECT_EQ(a.total_packets, b.total_packets) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  ASSERT_EQ(a.totals.size(), b.totals.size()) << what;
  for (std::size_t s = 0; s < a.totals.size(); ++s) {
    for (int c = 0; c < kNumClasses; ++c) {
      EXPECT_EQ(a.totals[s][c].flows, b.totals[s][c].flows)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].packets, b.totals[s][c].packets)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].bytes, b.totals[s][c].bytes)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].members, b.totals[s][c].members)
          << what << " space=" << s << " class=" << c;
    }
  }
}

class FlatOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatOracleTest, LabelsIdenticalToTrieEngineAcrossThreadCounts) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;

  const auto oracle = classify_trace(w->classifier(), flows);
  EXPECT_EQ(w->labels(), oracle);  // scenario pool path == sequential

  for (const std::size_t compile_threads : kThreadCounts) {
    util::ThreadPool compile_pool(compile_threads);
    const auto flat = FlatClassifier::compile(w->classifier(), compile_pool);

    const auto seq = classify_trace(flat, flows);
    ASSERT_EQ(seq.size(), oracle.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ASSERT_EQ(seq[i], oracle[i])
          << "first mismatch at flow " << i << " (" << flows[i].str()
          << ") compile_threads=" << compile_threads;
    }

    net::FlowBatch batch;
    for (const auto& f : flows) batch.push_back(f);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      std::vector<Label> par(batch.size());
      flat.classify_batch(batch, par, pool);
      ASSERT_EQ(par, oracle) << "threads=" << threads;
    }
  }
}

TEST_P(FlatOracleTest, SingleMethodAndRandomProbesAgree) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0x11a7;
  const auto w = scenario::build_scenario(params);
  const auto flat = FlatClassifier::compile(w->classifier());

  util::Rng rng(GetParam());
  const auto members = w->ixp().member_asns();
  for (int i = 0; i < 20000; ++i) {
    const net::Ipv4Addr src(rng.next_u32());
    // Known members, plus an AS that is certainly not a member.
    const Asn member = (i % 7 == 0) ? Asn{0xdeadbeef}
                                    : members[i % members.size()];
    ASSERT_EQ(flat.classify_all(src, member),
              w->classifier().classify_all(src, member))
        << src.str() << " member " << member;
    const std::size_t s = i % w->classifier().space_count();
    ASSERT_EQ(flat.classify(src, member, s),
              w->classifier().classify(src, member, s))
        << src.str() << " member " << member << " space " << s;
  }
}

TEST_P(FlatOracleTest, AggregatesIncidentsAndStreamingAlertsIdentical) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xa66;
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto flat = FlatClassifier::compile(w->classifier());

  const auto trie_labels = classify_trace(w->classifier(), flows);
  const auto flat_labels = classify_trace(flat, flows);
  ASSERT_EQ(flat_labels, trie_labels);

  const std::size_t spaces = flat.space_count();
  ASSERT_EQ(spaces, w->classifier().space_count());
  std::unordered_set<Asn> exclude{w->ixp().members().front().asn};
  expect_same_aggregate(aggregate_classes(spaces, flows, trie_labels),
                        aggregate_classes(spaces, flows, flat_labels),
                        "flat aggregate");
  expect_same_aggregate(aggregate_classes(spaces, flows, trie_labels, exclude),
                        aggregate_classes(spaces, flows, flat_labels, exclude),
                        "flat aggregate with exclusion");

  for (std::size_t s = 0; s < w->classifier().space_count(); ++s) {
    analysis::ReportOptions opts;
    opts.space_idx = s;
    const auto trie_inc =
        analysis::report_flows(spaces, flows, trie_labels, opts).incidents;
    const auto flat_inc =
        analysis::report_flows(spaces, flows, flat_labels, opts).incidents;
    ASSERT_EQ(trie_inc.size(), flat_inc.size()) << "space " << s;
    for (std::size_t i = 0; i < trie_inc.size(); ++i) {
      EXPECT_EQ(trie_inc[i].kind, flat_inc[i].kind);
      EXPECT_EQ(trie_inc[i].victim, flat_inc[i].victim);
      EXPECT_EQ(trie_inc[i].packets, flat_inc[i].packets);
      EXPECT_EQ(trie_inc[i].members, flat_inc[i].members);
    }
  }

  // The detector is a pure function of the flows and their classes
  // under one method, so its alerts match a trie-driven run's exactly
  // when the single-method classes agree flow by flow.
  for (const auto& f : flows) {
    ASSERT_EQ(flat.classify(f.src, f.member_in, 4),
              w->classifier().classify(f.src, f.member_in, 4))
        << f.str();
  }
  StreamingParams sp;
  sp.min_spoofed_packets = 20;  // alert often enough to be a real check
  StreamingDetector detector(flat, 4, sp);
  EXPECT_FALSE(detector.run(flows).empty());
}

TEST_P(FlatOracleTest, ExtendWithUnalignedRangesUsesFallbackLane) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xfa11;
  const auto w = scenario::build_scenario(params);
  auto& classifier = w->classifier();
  const auto& prefixes = w->table().prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto members = w->ixp().member_asns();

  // Extend several members with ranges that deliberately do NOT align to
  // routed prefixes: a strict sub-range of a routed prefix (partial
  // coverage -> fallback lane) and an off-by-3 straddle of another.
  for (std::size_t m = 0; m < 5 && m < members.size(); ++m) {
    const auto& p = prefixes[(m * 13) % prefixes.size()];
    trie::IntervalSet extra;
    if (p.last() - p.first() >= 8) {
      extra.add(p.first() + 1, p.first() + (p.last() - p.first()) / 2);
    }
    const auto& q = prefixes[(m * 29 + 7) % prefixes.size()];
    extra.add(q.first() + 3 > q.last() ? q.first() : q.first() + 3,
              q.last() + (q.last() < 0xFFFFFFFFu - 700 ? 700 : 0));
    classifier.mutable_space(4).extend(members[m], extra);
  }

  const auto flat = FlatClassifier::compile(classifier);
  EXPECT_GT(flat.stats().partial_rows, 0u)
      << "unaligned extend must engage the interval-set fallback lane";

  // Sweep the trace plus targeted probes inside the extended ranges.
  const auto& flows = w->trace().flows;
  ASSERT_EQ(classify_trace(flat, flows), classify_trace(classifier, flows));
  util::Rng rng(GetParam() ^ 0xfa11);
  for (int i = 0; i < 20000; ++i) {
    const auto& p = prefixes[rng.next_u32() % prefixes.size()];
    const net::Ipv4Addr src(p.first() +
                            rng.next_u32() % (p.last() - p.first() + 1));
    const Asn member = members[rng.next_u32() % members.size()];
    ASSERT_EQ(flat.classify_all(src, member),
              classifier.classify_all(src, member))
        << src.str() << " member " << member;
  }
}

TEST_P(FlatOracleTest, CompiledPlaneIsImmuneToLaterCopyOnWriteExtends) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xc0;
  const auto w = scenario::build_scenario(params);
  auto& classifier = w->classifier();
  const auto flat = FlatClassifier::compile(classifier);

  // Find a routed address that is Invalid for a member, then whitelist
  // it. The live classifier flips to Valid; the compiled snapshot keeps
  // the pre-extend answer (copy-on-write protects its shared spaces).
  const auto members = w->ixp().member_asns();
  const auto& prefixes = w->table().prefixes();
  for (const Asn member : members) {
    for (const auto& p : prefixes) {
      const net::Ipv4Addr src(p.first());
      if (classifier.classify(src, member, 4) != TrafficClass::kInvalid) {
        continue;
      }
      trie::IntervalSet extra;
      extra.add(p.first(), p.last());
      classifier.mutable_space(4).extend(member, extra);
      EXPECT_EQ(classifier.classify(src, member, 4), TrafficClass::kValid);
      EXPECT_EQ(flat.classify(src, member, 4), TrafficClass::kInvalid)
          << "compiled snapshot must not see post-compile mutations";
      // Recompiling picks the extension up.
      const auto recompiled = FlatClassifier::compile(classifier);
      EXPECT_EQ(recompiled.classify(src, member, 4), TrafficClass::kValid);
      return;
    }
  }
  FAIL() << "no Invalid (member, prefix) pair found to exercise CoW";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatOracleTest,
                         ::testing::Values(1, 7, 20170205));

// --- overflow lane: prefixes longer than /24 --------------------------------

TEST(FlatOverflow, LongerThanSlash24PrefixesStayCorrectViaOverflowLane) {
  // Relax the Sec 3.3 ingest bounds so /26 and /30 announcements enter
  // the table, breaking /24 homogeneity for their blocks.
  bgp::RoutingTableBuilder builder({.min_length = 8, .max_length = 32});
  const Asn origin = 65001, other = 65002;
  builder.ingest_route(net::pfx("10.0.0.0/8"), bgp::AsPath({65010, origin}));
  builder.ingest_route(net::pfx("20.1.2.0/24"), bgp::AsPath({65010, origin}));
  builder.ingest_route(net::pfx("20.1.2.64/26"), bgp::AsPath({65010, other}));
  builder.ingest_route(net::pfx("30.7.7.128/30"), bgp::AsPath({65010, other}));
  const auto table = builder.build();

  // `origin` may source the /8 and the /24; `other` only its longer-
  // than-/24 carve-outs.
  std::unordered_map<Asn, trie::IntervalSet> spaces;
  spaces[origin].add(net::pfx("10.0.0.0/8"));
  spaces[origin].add(net::pfx("20.1.2.0/24"));
  spaces[other].add(net::pfx("20.1.2.64/26"));
  spaces[other].add(net::pfx("30.7.7.128/30"));
  std::vector<inference::ValidSpace> vs;
  vs.emplace_back(inference::Method::kFullCone, std::move(spaces));
  const Classifier trie_engine(table, std::move(vs));
  const auto flat = FlatClassifier::compile(trie_engine);

  EXPECT_EQ(flat.stats().overflow_prefixes, 2u);
  EXPECT_EQ(flat.stats().overflow_slots, 2u);  // 20.1.2.0/24 and 30.7.7.128/24

  // Exhaustive sweep over every address of the affected /24 blocks plus
  // probes elsewhere: overflow lane must equal the trie engine exactly.
  const auto check = [&](net::Ipv4Addr src) {
    for (const Asn member : {origin, other, Asn{65099}}) {
      ASSERT_EQ(flat.classify_all(src, member),
                trie_engine.classify_all(src, member))
          << src.str() << " member " << member;
    }
  };
  for (std::uint32_t a = net::pfx("20.1.2.0/24").first();
       a <= net::pfx("20.1.2.0/24").last(); ++a) {
    check(net::Ipv4Addr(a));
  }
  for (std::uint32_t a = net::pfx("30.7.7.0/24").first();
       a <= net::pfx("30.7.7.0/24").last(); ++a) {
    check(net::Ipv4Addr(a));
  }
  check(net::Ipv4Addr::from_octets(10, 1, 2, 3));     // routed /8
  check(net::Ipv4Addr::from_octets(99, 9, 9, 9));     // unrouted
  check(net::Ipv4Addr::from_octets(192, 168, 1, 1));  // bogon
}

TEST(FlatEngine, StatsReportPlausibleFootprint) {
  auto params = scenario::ScenarioParams::small();
  const auto w = scenario::build_scenario(params);
  const auto flat = FlatClassifier::compile(w->classifier());
  const auto& st = flat.stats();
  EXPECT_EQ(st.table_bytes, (std::size_t{1} << 24) * sizeof(std::uint32_t));
  EXPECT_EQ(st.prefixes, w->table().prefix_count());
  EXPECT_GT(st.members, 0u);
  EXPECT_GT(st.bitset_bytes, 0u);
  EXPECT_EQ(st.overflow_prefixes, 0u);  // /8–/24 invariant holds here
  EXPECT_EQ(st.overflow_slots, 0u);
}

}  // namespace
}  // namespace spoofscope::classify
