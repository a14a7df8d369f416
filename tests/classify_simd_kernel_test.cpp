// The SIMD kernel layer: dispatch semantics (name/parse round-trips,
// kAuto resolution, the SPOOFSCOPE_SIMD override, loud failure on
// unusable kernels) and kernel-vs-scalar differentials over exactly the
// inputs the vector fast path must hand to the slow lane — the overflow
// lane (>/24 prefixes), the interval-set fallback lane (unaligned
// ValidSpace::extend), and skip-mode corrupted traces whose surviving
// batches are ragged.
#include "classify/batch_kernels.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "corruption.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace.hpp"
#include "net/trace_format.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::classify {
namespace {

using net::pfx;

TEST(SimdKernel, NamesAndParseRoundTrip) {
  for (const SimdKernel k : {SimdKernel::kAuto, SimdKernel::kScalar,
                             SimdKernel::kAvx2, SimdKernel::kNeon}) {
    EXPECT_EQ(parse_simd_kernel(simd_kernel_name(k)), k);
  }
  EXPECT_EQ(parse_simd_kernel("sse2"), std::nullopt);
  EXPECT_EQ(parse_simd_kernel(""), std::nullopt);
  EXPECT_EQ(parse_simd_kernel("AVX2"), std::nullopt);  // case-sensitive
}

TEST(SimdKernel, UsabilityAndResolutionAreConsistent) {
  EXPECT_TRUE(simd_kernel_compiled(SimdKernel::kScalar));
  EXPECT_TRUE(simd_kernel_usable(SimdKernel::kScalar));
  EXPECT_EQ(resolve_simd_kernel(SimdKernel::kScalar), SimdKernel::kScalar);

  const auto usable = usable_simd_kernels();
  ASSERT_FALSE(usable.empty());
  EXPECT_EQ(usable.front(), SimdKernel::kScalar);
  for (const SimdKernel k : usable) {
    EXPECT_TRUE(simd_kernel_compiled(k)) << simd_kernel_name(k);
    EXPECT_TRUE(simd_kernel_usable(k)) << simd_kernel_name(k);
    EXPECT_EQ(resolve_simd_kernel(k), k) << simd_kernel_name(k);
  }

  // kAuto resolves to a concrete usable kernel (whatever SPOOFSCOPE_SIMD
  // or the CPU picks), never back to kAuto.
  const SimdKernel resolved = resolve_simd_kernel(SimdKernel::kAuto);
  EXPECT_NE(resolved, SimdKernel::kAuto);
  EXPECT_TRUE(simd_kernel_usable(resolved));

  // An explicit request for an unusable kernel throws instead of
  // silently falling back — a pinned differential must not lie.
  for (const SimdKernel k : {SimdKernel::kAvx2, SimdKernel::kNeon}) {
    if (!simd_kernel_usable(k)) {
      EXPECT_THROW(resolve_simd_kernel(k), std::runtime_error)
          << simd_kernel_name(k);
    }
  }
}

/// Saves/restores SPOOFSCOPE_SIMD around the override tests so they
/// compose with tools/check.sh pinning the variable for the whole
/// binary.
class ScopedSimdEnv {
 public:
  ScopedSimdEnv() {
    if (const char* v = std::getenv("SPOOFSCOPE_SIMD")) saved_ = v;
  }
  ~ScopedSimdEnv() {
    if (saved_) {
      ::setenv("SPOOFSCOPE_SIMD", saved_->c_str(), 1);
    } else {
      ::unsetenv("SPOOFSCOPE_SIMD");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(SimdKernel, EnvVarOverridesAutoButNotExplicitRequests) {
  ScopedSimdEnv guard;

  ::setenv("SPOOFSCOPE_SIMD", "scalar", 1);
  EXPECT_EQ(resolve_simd_kernel(SimdKernel::kAuto), SimdKernel::kScalar);

  // "auto" and empty defer to CPU detection.
  ::setenv("SPOOFSCOPE_SIMD", "auto", 1);
  EXPECT_NE(resolve_simd_kernel(SimdKernel::kAuto), SimdKernel::kAuto);
  ::setenv("SPOOFSCOPE_SIMD", "", 1);
  EXPECT_NE(resolve_simd_kernel(SimdKernel::kAuto), SimdKernel::kAuto);

  // Garbage is a loud error, not a silent scalar run.
  ::setenv("SPOOFSCOPE_SIMD", "avx512", 1);
  EXPECT_THROW(resolve_simd_kernel(SimdKernel::kAuto), std::runtime_error);

  // The override only affects kAuto: explicit kernels ignore it.
  ::setenv("SPOOFSCOPE_SIMD", "scalar", 1);
  for (const SimdKernel k : usable_simd_kernels()) {
    EXPECT_EQ(resolve_simd_kernel(k), k) << simd_kernel_name(k);
  }
}

/// Small but structurally complete source covering both escape hatches:
/// the /26 and /30 break /24 homogeneity (overflow lane) and member 2's
/// space covers only half of its routed /16 (interval-set fallback).
struct EdgeLaneFixture {
  EdgeLaneFixture() {
    bgp::RoutingTableBuilder b({.min_length = 8, .max_length = 32});
    b.ingest_route(pfx("50.0.0.0/16"), bgp::AsPath{1});
    b.ingest_route(pfx("60.0.0.0/16"), bgp::AsPath{2});
    b.ingest_route(pfx("70.0.0.64/26"), bgp::AsPath{2, 1});
    b.ingest_route(pfx("70.0.0.0/24"), bgp::AsPath{1});
    b.ingest_route(pfx("80.0.0.128/30"), bgp::AsPath{2});
    table = b.build();

    trie::IntervalSet s1;
    s1.add(pfx("50.0.0.0/16"));
    s1.add(pfx("70.0.0.0/24"));
    trie::IntervalSet s2;
    s2.add(pfx("60.0.0.0/17"));  // half of routed 60/16: fallback lane
    s2.add(pfx("70.0.0.64/26"));
    s2.add(pfx("80.0.0.128/30"));
    std::unordered_map<net::Asn, trie::IntervalSet> spaces;
    spaces.emplace(1, std::move(s1));
    spaces.emplace(2, std::move(s2));
    classifier = std::make_unique<Classifier>(
        table, std::vector<inference::ValidSpace>{
                   inference::ValidSpace(inference::Method::kFullCone,
                                         std::move(spaces))});
  }

  /// Every address of the affected /24 blocks plus routed, unrouted and
  /// bogon probes, cycled over members {1, 2, non-member} — sized so the
  /// vector kernels run full tiles with ragged tails.
  net::FlowBatch probe_batch() const {
    net::FlowBatch batch;
    const net::Asn members[] = {1, 2, 99};
    std::size_t i = 0;
    const auto add = [&](std::uint32_t addr) {
      net::FlowRecord f;
      f.src = net::Ipv4Addr(addr);
      f.member_in = members[i++ % 3];
      f.packets = 1;
      f.bytes = 40;
      batch.push_back(f);
    };
    for (std::uint32_t a = pfx("70.0.0.0/24").first();
         a <= pfx("70.0.0.0/24").last(); ++a) {
      add(a);
    }
    for (std::uint32_t a = pfx("80.0.0.0/24").first();
         a <= pfx("80.0.0.0/24").last(); ++a) {
      add(a);
    }
    for (std::uint32_t a = pfx("60.0.0.0/17").first() - 300;
         a < pfx("60.0.0.0/17").first() + 300; ++a) {
      add(a);  // straddles the fallback boundary inside routed 60/16
    }
    add(pfx("50.0.0.0/16").first() + 17);            // plain routed
    add(net::Ipv4Addr::from_octets(99, 9, 9, 9).value());   // unrouted
    add(net::Ipv4Addr::from_octets(192, 168, 1, 1).value());  // bogon
    return batch;
  }

  bgp::RoutingTable table;
  std::unique_ptr<Classifier> classifier;
};

TEST(SimdKernel, OverflowAndFallbackLanesIdenticalAcrossKernels) {
  const EdgeLaneFixture fx;
  const auto flat = FlatClassifier::compile(*fx.classifier);
  ASSERT_GT(flat.stats().overflow_slots, 0u);
  ASSERT_GT(flat.stats().partial_rows, 0u);

  const auto batch = fx.probe_batch();
  std::vector<Label> oracle(batch.size());
  flat.classify_batch(batch, oracle, SimdKernel::kScalar);
  // Scalar kernel == trie engine, element by element.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto f = batch.record(i);
    ASSERT_EQ(oracle[i], fx.classifier->classify_all(f.src, f.member_in))
        << f.src.str() << " member " << f.member_in;
  }

  for (const SimdKernel kernel : usable_simd_kernels()) {
    std::vector<Label> got(batch.size());
    flat.classify_batch(batch, got, kernel);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto f = batch.record(i);
      ASSERT_EQ(got[i], oracle[i])
          << simd_kernel_name(kernel) << " " << f.src.str() << " member "
          << f.member_in;
    }
  }
}

TEST(SimdKernel, UnalignedExtendFallbackIdenticalAcrossKernels) {
  auto params = scenario::ScenarioParams::small();
  params.seed = 20170205;
  const auto w = scenario::build_scenario(params);
  auto& classifier = w->classifier();
  const auto& prefixes = w->table().prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto members = w->ixp().member_asns();

  // Unaligned extends: strict sub-ranges and straddles of routed
  // prefixes, so the compile produces partial rows.
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
  ASSERT_GT(flat.stats().partial_rows, 0u);

  // Probes concentrated in the extended members and ranges.
  util::Rng rng(0xfa11);
  net::FlowBatch batch;
  for (int i = 0; i < 30000; ++i) {
    const auto& p = prefixes[rng.next_u32() % prefixes.size()];
    net::FlowRecord f;
    f.src = net::Ipv4Addr(p.first() +
                          rng.next_u32() % (p.last() - p.first() + 1));
    f.member_in = members[rng.next_u32() % (i % 2 == 0 ? 5 : members.size())];
    f.packets = 1;
    f.bytes = 40;
    batch.push_back(f);
  }

  std::vector<Label> oracle(batch.size());
  flat.classify_batch(batch, oracle, SimdKernel::kScalar);
  for (const SimdKernel kernel : usable_simd_kernels()) {
    std::vector<Label> got(batch.size());
    flat.classify_batch(batch, got, kernel);
    ASSERT_EQ(got, oracle) << simd_kernel_name(kernel);
  }
}

TEST(SimdKernel, SkipModeCorruptedTraceIdenticalAcrossKernels) {
  auto params = scenario::ScenarioParams::small();
  params.seed = 7;
  const auto w = scenario::build_scenario(params);
  const auto flat = FlatClassifier::compile(w->classifier());

  std::stringstream ss;
  net::write_trace(ss, w->trace());
  util::Rng rng(0xc0ff);
  const std::string corrupted = testing::flip_bits(
      ss.str(), rng, 5, net::format::kHeaderSizeV2);
  const net::MappedTrace trace = net::MappedTrace::from_buffer(
      std::vector<std::uint8_t>(corrupted.begin(), corrupted.end()));

  // Survivor batches under skip are ragged in both size and content;
  // every kernel must label them exactly like the forced-scalar pass.
  const auto labels_with = [&](SimdKernel kernel) {
    net::MappedTraceReader reader(trace, util::ErrorPolicy::kSkip);
    net::FlowBatch batch;
    std::vector<Label> out;
    std::vector<Label> all;
    while (reader.next_batch(batch, 4096) > 0) {
      out.resize(batch.size());
      flat.classify_batch(batch, out, kernel);
      all.insert(all.end(), out.begin(), out.end());
      batch.clear();
      reader.drop_consumed();
    }
    return all;
  };
  const auto oracle = labels_with(SimdKernel::kScalar);
  ASSERT_FALSE(oracle.empty());
  for (const SimdKernel kernel : usable_simd_kernels()) {
    EXPECT_EQ(labels_with(kernel), oracle) << simd_kernel_name(kernel);
  }
}

}  // namespace
}  // namespace spoofscope::classify
