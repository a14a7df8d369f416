// Differential harness for the batched classification plane: for the
// differential seeds, the SoA batch kernels must reproduce the
// per-record path bit-identically — labels from the trie oracle and the
// flat plane across thread counts, aggregates built lane-wise over
// uneven batch cuts, streaming alerts through ingest_batch, and the
// chunked file-to-aggregate pipeline through MappedTrace (clean and
// corrupted) against a whole-trace read classified by the trie oracle.
// Also pins the striped parallel flat-plane compile to the sequential
// compile via plane_digest().
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
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

/// Thread counts under test; 0 resolves to the hardware concurrency.
constexpr std::size_t kThreadCounts[] = {1, 2, 0};

net::FlowBatch to_batch(std::span<const net::FlowRecord> flows) {
  net::FlowBatch batch;
  batch.reserve(flows.size());
  for (const auto& f : flows) batch.push_back(f);
  return batch;
}

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

class BatchOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchOracleTest, BatchLabelsIdenticalToPerRecordOnBothEngines) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto batch = to_batch(flows);

  const auto oracle = classify_trace(w->classifier(), flows);
  const auto flat = FlatClassifier::compile(w->classifier());

  EXPECT_EQ(w->classifier().classify_batch(batch), oracle);
  EXPECT_EQ(flat.classify_batch(batch), oracle);

  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    std::vector<Label> out(batch.size());
    flat.classify_batch(batch, out, pool);
    ASSERT_EQ(out, oracle) << "flat threads=" << threads;
  }
}

TEST_P(BatchOracleTest, EveryUsableKernelMatchesForcedScalarOracle) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto full = to_batch(flows);
  const auto flat = FlatClassifier::compile(w->classifier());

  // The oracle: the portable scalar kernel, forced explicitly (so this
  // stays a kernel-vs-kernel differential even when SPOOFSCOPE_SIMD pins
  // what kAuto resolves to). It must itself equal the trie engine.
  std::vector<Label> oracle(full.size());
  flat.classify_batch(full, oracle, SimdKernel::kScalar);
  ASSERT_EQ(oracle, w->classifier().classify_batch(full));

  // Batch sizes below/at/above the vector widths: ragged tails (1, 7,
  // 31), a mid-size chunk (4095) and the whole trace in one batch.
  const std::size_t sizes[] = {1, 7, 31, 4095, flows.size()};
  for (const SimdKernel kernel : usable_simd_kernels()) {
    for (const std::size_t chunk : sizes) {
      std::vector<Label> got;
      got.reserve(flows.size());
      net::FlowBatch batch;
      std::vector<Label> out;
      for (std::size_t i = 0; i < flows.size(); i += chunk) {
        const std::size_t n = std::min(chunk, flows.size() - i);
        batch.clear();
        for (std::size_t k = 0; k < n; ++k) batch.push_back(flows[i + k]);
        out.resize(n);
        flat.classify_batch(batch, out, kernel);
        got.insert(got.end(), out.begin(), out.end());
      }
      ASSERT_EQ(got, oracle)
          << simd_kernel_name(kernel) << " chunk=" << chunk;
    }
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      std::vector<Label> out(full.size());
      flat.classify_batch(full, out, pool, kernel);
      ASSERT_EQ(out, oracle)
          << simd_kernel_name(kernel) << " threads=" << threads;
    }
  }
}

TEST_P(BatchOracleTest, StreamingAlertsAndHealthIdenticalAcrossKernels) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto flat = FlatClassifier::compile(w->classifier());

  StreamingParams sp;
  sp.window_seconds = 1800;
  sp.min_spoofed_packets = 20;
  sp.min_share = 0.01;
  sp.reorder_skew_seconds = 60;  // skew > 0: pending heap carries classes

  const auto run_with = [&](SimdKernel kernel) {
    StreamingParams p = sp;
    p.simd = kernel;
    StreamingDetector det(flat, 0, p);
    std::vector<SpoofingAlert> alerts;
    const auto sink = [&alerts](const SpoofingAlert& a) {
      alerts.push_back(a);
    };
    // Uneven batch sizes so alert boundaries land mid-batch.
    net::FlowBatch batch;
    std::size_t i = 0;
    util::Rng rng(GetParam() ^ 0x513d);
    while (i < flows.size()) {
      const std::size_t n =
          std::min(flows.size() - i, std::size_t{1} + rng.index(997));
      batch.clear();
      for (std::size_t k = 0; k < n; ++k) batch.push_back(flows[i + k]);
      det.ingest_batch(batch, sink);
      i += n;
    }
    det.flush(sink);
    return std::tuple(std::move(alerts), det.processed(), det.health());
  };

  const auto expected = run_with(SimdKernel::kScalar);
  EXPECT_FALSE(std::get<0>(expected).empty());  // thresholds actually fire
  for (const SimdKernel kernel : usable_simd_kernels()) {
    EXPECT_EQ(run_with(kernel), expected) << simd_kernel_name(kernel);
  }
}

TEST_P(BatchOracleTest, MemberMemoizationHandlesUnknownAndRepeatedAsns) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xba7c4u;
  const auto w = scenario::build_scenario(params);
  const auto flat = FlatClassifier::compile(w->classifier());
  const auto members = w->ixp().member_asns();

  // Synthetic batch with adversarial member patterns: long runs of one
  // ASN (exercises the last-member fast path), interleavings, and
  // non-member ASNs (null member view).
  util::Rng rng(GetParam());
  std::vector<net::FlowRecord> flows;
  for (int i = 0; i < 5000; ++i) {
    net::FlowRecord f;
    f.src = net::Ipv4Addr(rng.next_u32());
    f.member_in = (i % 11 == 0) ? net::Asn{0xdeadbeef}
                  : (i % 3 == 0) ? members[0]
                                 : members[rng.index(members.size())];
    f.packets = 1;
    f.bytes = 40;
    flows.push_back(f);
  }
  const auto batch = to_batch(flows);

  std::vector<Label> expected;
  expected.reserve(flows.size());
  for (const auto& f : flows) {
    expected.push_back(w->classifier().classify_all(f.src, f.member_in));
  }
  EXPECT_EQ(w->classifier().classify_batch(batch), expected);
  EXPECT_EQ(flat.classify_batch(batch), expected);
}

TEST_P(BatchOracleTest, AggregateFromBatchIdenticalToAoS) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const std::span<const net::FlowRecord> flows = w->trace().flows;
  const auto labels = classify_trace(w->classifier(), flows);
  const std::size_t spaces = w->classifier().space_count();

  // Lane-wise adds over uneven batch cuts against the one-call AoS form,
  // so accumulation across batch boundaries is pinned too.
  const auto batched = [&](const std::unordered_set<Asn>& exclude) {
    AggregateBuilder builder(spaces);
    util::Rng rng(GetParam() ^ 0xa66);
    for (std::size_t i = 0; i < flows.size();) {
      const std::size_t n =
          std::min(flows.size() - i, std::size_t{1} + rng.index(997));
      builder.add(to_batch(flows.subspan(i, n)),
                  std::span<const Label>(labels).subspan(i, n), exclude);
      i += n;
    }
    return builder.build();
  };
  expect_same_aggregate(batched({}), aggregate_classes(spaces, flows, labels),
                        "no exclusions");
  // Exclusions must drop the same flows from both forms.
  const std::unordered_set<Asn> exclude = {flows[0].member_in,
                                           flows[flows.size() / 2].member_in};
  expect_same_aggregate(batched(exclude),
                        aggregate_classes(spaces, flows, labels, exclude),
                        "with exclusions");
}

TEST_P(BatchOracleTest, IngestBatchAlertsAndHealthIdenticalToRun) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto flat = FlatClassifier::compile(w->classifier());

  StreamingParams sp;
  sp.window_seconds = 1800;
  sp.min_spoofed_packets = 20;
  sp.min_share = 0.01;
  sp.reorder_skew_seconds = 60;

  StreamingDetector per_record(flat, 0, sp);
  StreamingDetector batched(flat, 0, sp);
  const auto expected = per_record.run(flows);
  EXPECT_FALSE(expected.empty());  // thresholds actually fire

  std::vector<SpoofingAlert> got;
  const auto sink = [&got](const SpoofingAlert& a) { got.push_back(a); };
  // Uneven batch sizes so alert boundaries land mid-batch.
  net::FlowBatch batch;
  std::size_t i = 0;
  util::Rng rng(GetParam() ^ 0xa1e7);
  while (i < flows.size()) {
    const std::size_t n =
        std::min(flows.size() - i, std::size_t{1} + rng.index(997));
    batch.clear();
    for (std::size_t k = 0; k < n; ++k) batch.push_back(flows[i + k]);
    batched.ingest_batch(batch, sink);
    i += n;
  }
  batched.flush(sink);

  EXPECT_EQ(got, expected);
  EXPECT_EQ(batched.processed(), per_record.processed());
  EXPECT_EQ(batched.health(), per_record.health());
}

TEST_P(BatchOracleTest, FileToAggregatePipelineMatchesPerRecordPath) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto flat = FlatClassifier::compile(w->classifier());

  std::stringstream ss;
  net::write_trace(ss, w->trace());
  std::string clean = ss.str();
  util::Rng rng(GetParam() ^ 0xc0ff);
  const std::string corrupted =
      testing::flip_bits(clean, rng, 3, net::format::kHeaderSizeV2);

  struct Case {
    const char* name;
    const std::string* bytes;
    util::ErrorPolicy policy;
  };
  const Case cases[] = {
      {"clean/strict", &clean, util::ErrorPolicy::kStrict},
      {"clean/skip", &clean, util::ErrorPolicy::kSkip},
      {"corrupted/skip", &corrupted, util::ErrorPolicy::kSkip},
  };
  for (const auto& c : cases) {
    // Reference: whole-stream decode, the trie oracle per record, and
    // one aggregate over all survivors.
    std::istringstream in(*c.bytes, std::ios::binary);
    util::IngestStats ref_stats;
    const auto ref_flows = net::read_trace(in, c.policy, &ref_stats).flows;
    const auto ref_agg =
        aggregate_classes(w->classifier().space_count(), ref_flows,
                          classify_trace(w->classifier(), ref_flows));

    // Batch path: mmap-style source, batched decode, batched classify on
    // a pool, lane-wise aggregation.
    const net::MappedTrace trace = net::MappedTrace::from_buffer(
        std::vector<std::uint8_t>(c.bytes->begin(), c.bytes->end()));
    util::IngestStats batch_stats;
    net::MappedTraceReader mapped(trace, c.policy, &batch_stats);
    util::ThreadPool pool(2);
    AggregateBuilder builder(w->classifier().space_count());
    net::FlowBatch batch;
    std::vector<Label> labels;
    std::size_t total = 0;
    while (mapped.next_batch(batch, 4096) > 0) {
      labels.resize(batch.size());
      flat.classify_batch(batch, labels, pool);
      builder.add(batch, labels);
      total += batch.size();
    }

    EXPECT_EQ(total, ref_flows.size()) << c.name;
    EXPECT_EQ(batch_stats, ref_stats) << c.name;
    expect_same_aggregate(builder.build(), ref_agg, c.name);
  }
}

TEST_P(BatchOracleTest, StripedParallelCompileIsBitIdenticalToSequential) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);

  const auto sequential = FlatClassifier::compile(w->classifier());
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    const auto parallel = FlatClassifier::compile(w->classifier(), pool);
    EXPECT_EQ(parallel.plane_digest(), sequential.plane_digest())
        << "threads=" << threads;
    EXPECT_EQ(parallel.stats().overflow_slots, sequential.stats().overflow_slots)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchOracleTest,
                         ::testing::Values(1, 7, 20170205));

}  // namespace
}  // namespace spoofscope::classify
