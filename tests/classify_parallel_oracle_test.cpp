// Differential harness for the parallel execution layer: for several
// scenario seeds and thread counts, the parallel classify_trace must
// produce element-wise identical labels, per-chunk AggregateBuilders
// merged in chunk order must reproduce every (space, class) cell
// exactly, and the parallel valid-space build must equal the sequential
// factory output. The sequential single-thread code path is the oracle
// (cf. the Eumann et al. reproducibility study: classification results
// are sensitive to implementation details, so parallelism must be
// proven bit-identical).
#include <gtest/gtest.h>

#include <unordered_set>

#include "classify/pipeline.hpp"
#include "net/flow_batch.hpp"
#include "scenario/scenario.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::classify {
namespace {

/// Thread counts under test; 0 resolves to the hardware concurrency.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 7, 0};

void expect_same_cells(const Aggregate& seq, const Aggregate& par,
                       std::size_t threads) {
  EXPECT_EQ(seq.total_flows, par.total_flows) << "threads=" << threads;
  EXPECT_EQ(seq.total_packets, par.total_packets) << "threads=" << threads;
  EXPECT_EQ(seq.total_bytes, par.total_bytes) << "threads=" << threads;
  ASSERT_EQ(seq.totals.size(), par.totals.size());
  for (std::size_t s = 0; s < seq.totals.size(); ++s) {
    for (int c = 0; c < kNumClasses; ++c) {
      const auto& a = seq.totals[s][c];
      const auto& b = par.totals[s][c];
      EXPECT_EQ(a.flows, b.flows) << "threads=" << threads << " space=" << s
                                  << " class=" << c;
      EXPECT_EQ(a.packets, b.packets) << "threads=" << threads << " space=" << s
                                      << " class=" << c;
      EXPECT_EQ(a.bytes, b.bytes) << "threads=" << threads << " space=" << s
                                  << " class=" << c;
      EXPECT_EQ(a.members, b.members) << "threads=" << threads << " space=" << s
                                      << " class=" << c;
    }
  }
}

class ParallelOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelOracleTest, LabelsIdenticalToSequentialOracle) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam();
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;

  const auto oracle = classify_trace(w->classifier(), flows);
  // The scenario itself classifies through its pool (threads=1 here), so
  // its stored labels must equal the oracle too.
  EXPECT_EQ(w->labels(), oracle);

  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    const auto labels = classify_trace(w->classifier(), flows, pool);
    ASSERT_EQ(labels.size(), oracle.size()) << "threads=" << threads;
    // Element-wise comparison with a pinpointed first mismatch.
    for (std::size_t i = 0; i < labels.size(); ++i) {
      ASSERT_EQ(labels[i], oracle[i])
          << "first mismatch at flow " << i << " of " << labels.size()
          << " with threads=" << threads << " (" << flows[i].str() << ")";
    }
  }
}

TEST_P(ParallelOracleTest, AggregateTotalsMatchSequentialExactly) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xa99;
  const auto w = scenario::build_scenario(params);
  const auto& flows = w->trace().flows;
  const auto& labels = w->labels();

  const std::size_t spaces = w->classifier().space_count();
  const auto seq = aggregate_classes(spaces, flows, labels);
  // Exercise the Sec 5.2 exclusion path as well: drop two members.
  std::unordered_set<Asn> exclude{w->ixp().members().front().asn,
                                  w->ixp().members().back().asn};
  const auto seq_excl =
      aggregate_classes(spaces, flows, labels, exclude);

  // The parallel reduction over AggregateBuilder: one builder per pool
  // chunk, each fed its chunk as a FlowBatch, merged in chunk order.
  const auto parallel = [&](util::ThreadPool& pool,
                            const std::unordered_set<Asn>& excl) {
    const auto chunks =
        util::ThreadPool::partition(0, flows.size(), pool.thread_count());
    std::vector<AggregateBuilder> partials(chunks.size(),
                                           AggregateBuilder(spaces));
    pool.parallel_for(0, chunks.size(), [&](std::size_t cb, std::size_t ce) {
      for (std::size_t c = cb; c < ce; ++c) {
        const auto [begin, end] = chunks[c];
        net::FlowBatch batch;
        for (std::size_t i = begin; i < end; ++i) batch.push_back(flows[i]);
        partials[c].add(batch,
                        std::span<const Label>(labels).subspan(begin,
                                                               end - begin),
                        excl);
      }
    });
    for (std::size_t c = 1; c < partials.size(); ++c) {
      partials[0].merge(partials[c]);
    }
    return partials[0].build();
  };
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    expect_same_cells(seq, parallel(pool, {}), threads);
    expect_same_cells(seq_excl, parallel(pool, exclude), threads);
  }
}

TEST_P(ParallelOracleTest, ParallelValidSpaceBuildMatchesSequential) {
  auto params = scenario::ScenarioParams::small();
  params.seed = GetParam() ^ 0xf00;
  const auto w = scenario::build_scenario(params);
  const auto members = w->ixp().member_asns();

  for (int m = 0; m < inference::kNumMethods; ++m) {
    const auto method = static_cast<inference::Method>(m);
    const auto seq = w->factory().build(method, members);
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      const auto par = w->factory().build(method, members, pool);
      ASSERT_EQ(par.size(), seq.size());
      for (const Asn asn : members) {
        const auto* a = seq.space_of(asn);
        const auto* b = par.space_of(asn);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(*a, *b) << "method=" << inference::method_name(method)
                          << " member=" << asn << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelOracleTest,
                         ::testing::Values(1, 7, 42, 4711, 20170205));

}  // namespace
}  // namespace spoofscope::classify
