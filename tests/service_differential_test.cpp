// Shard-routing determinism differential (ISSUE satellite): the sharded
// resident server must produce BIT-IDENTICAL verdicts to the one-shot
// StreamingDetector over the same trace — across shard counts {1, 2, 7},
// seeds, both SIMD kernel choices, and segmented vs whole-trace
// submission.
//
// Why this holds (the decomposition argument DESIGN.md §16 spells out):
// window accounting is per-member, routing partitions members across
// shards, and with the reorder buffer disabled (skew 0, the default) on
// an in-order trace no detector-global coupling is active — so the
// shard-local computations compose exactly. With skew > 0 a single
// shard is still literally the one-shot computation, and on an in-order
// trace multi-shard stays alert-identical with only the reorder-depth
// high-water mark (a global-buffer property) diverging; both regimes
// are pinned here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgp/routing_table.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "net/flow_batch.hpp"
#include "net/prefix.hpp"
#include "net/trace.hpp"
#include "service/merge.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace spoofscope::service {
namespace {

namespace fs = std::filesystem;
using classify::Classifier;
using classify::DetectorHealth;
using classify::FlatClassifier;
using classify::SimdKernel;
using classify::SpoofingAlert;
using classify::StreamingDetector;
using classify::StreamingParams;
using net::Asn;
using net::Ipv4Addr;
using net::pfx;

constexpr std::size_t kMembers = 10;

/// Ten-member routing view so shard counts {1, 2, 7} all see traffic on
/// every shard: member N announces 10.N.0.0/16; members 1..8 own their
/// announced block as valid space, members 9 and 10 have routed space
/// but no valid space (their own-source traffic classifies Invalid).
struct Fixture {
  Fixture() {
    bgp::RoutingTableBuilder b;
    std::unordered_map<Asn, trie::IntervalSet> spaces;
    for (std::uint32_t m = 1; m <= kMembers; ++m) {
      const net::Prefix p = pfx(("10." + std::to_string(m) + ".0.0/16").c_str());
      b.ingest_route(p, bgp::AsPath{m});
      if (m <= 8) {
        trie::IntervalSet s;
        s.add(p);
        spaces.emplace(m, std::move(s));
      }
    }
    table = b.build();
    classifier = std::make_unique<Classifier>(
        table, std::vector<inference::ValidSpace>{
                   inference::ValidSpace(inference::Method::kFullCone,
                                         std::move(spaces))});
  }
  bgp::RoutingTable table;
  std::unique_ptr<Classifier> classifier;
};

/// Detection knobs scaled to the synthetic stream (the one-shot oracle
/// and the server always get the same instance).
StreamingParams detect_params(std::uint32_t skew, SimdKernel simd) {
  StreamingParams p;
  p.window_seconds = 300;
  p.min_spoofed_packets = 20;
  p.min_share = 0.1;
  p.cooldown_seconds = 120;
  p.reorder_skew_seconds = skew;
  p.simd = simd;
  return p;
}

/// Mixed ten-member stream. jitter == 0 keeps timestamps nondecreasing
/// (the in-order regime where sharding is exact); jitter > 0 wanders
/// them within the given bound for the reorder-buffer cases.
std::vector<net::FlowRecord> make_stream(std::uint64_t seed, std::size_t n,
                                         std::uint32_t jitter) {
  util::Rng rng(seed);
  std::vector<net::FlowRecord> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FlowRecord f;
    const std::uint8_t member = static_cast<std::uint8_t>(1 + rng.index(kMembers));
    const std::uint8_t other =
        static_cast<std::uint8_t>(1 + (member % kMembers));
    const std::uint8_t host = static_cast<std::uint8_t>(1 + rng.index(250));
    if (rng.chance(0.5)) {
      f.src = Ipv4Addr::from_octets(10, member, 0, host);        // own space
    } else if (rng.chance(0.4)) {
      f.src = Ipv4Addr::from_octets(10, other, 0, host);         // Invalid
    } else if (rng.chance(0.5)) {
      f.src = Ipv4Addr::from_octets(99, 0, 0, host);             // Unrouted
    } else {
      f.src = Ipv4Addr::from_octets(192, 168, 0, host);          // Bogon
    }
    f.dst = Ipv4Addr::from_octets(10, other, 0, 1);
    const std::uint32_t base = static_cast<std::uint32_t>(i / 4);
    f.ts = jitter == 0 ? base : base + jitter - rng.uniform_u32(0, jitter);
    f.packets = 1 + rng.uniform_u32(0, 3);
    f.bytes = 40ull * f.packets;
    f.member_in = member;
    f.member_out = other;
    flows.push_back(f);
  }
  return flows;
}

struct RunResult {
  std::vector<SpoofingAlert> alerts;  ///< canonical (ts, member) order
  DetectorHealth health;
  std::uint64_t processed = 0;
};

/// One-shot oracle: exactly what `spoofscope detect` computes.
template <typename MakeDetector>
RunResult oracle(MakeDetector make, std::span<const net::FlowRecord> flows) {
  RunResult r;
  StreamingDetector d = make();
  r.alerts = d.run(flows);
  r.health = d.health();
  r.processed = d.processed();
  sort_alerts(r.alerts);
  return r;
}

class ScratchDir {
 public:
  explicit ScratchDir(const char* name)
      : path_(fs::temp_directory_path() /
              (std::string(name) + "." + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

std::string write_segment(const ScratchDir& dir, const std::string& name,
                          std::span<const net::FlowRecord> flows) {
  net::Trace t;
  t.meta.seed = 1;
  t.flows.assign(flows.begin(), flows.end());
  const std::string path = dir.file(name);
  std::ofstream out(path, std::ios::binary);
  net::write_trace(out, t);
  return path;
}

/// Spins up an in-process server on a plane compiled from the fixture,
/// submits the segment files, drains and collapses the merged view into
/// the oracle's shape.
RunResult run_server(const Fixture& fx, std::size_t shards,
                     const StreamingParams& params,
                     const std::vector<std::string>& segments) {
  ServerConfig cfg;
  cfg.shards = shards;
  cfg.params = params;
  Server server(
      std::make_shared<FlatClassifier>(FlatClassifier::compile(*fx.classifier)),
      cfg);
  server.start();
  for (const std::string& path : segments) server.submit(path);
  server.drain();
  const ServiceStats stats = server.stats();
  RunResult r;
  r.alerts = server.merged_alerts();
  r.health = stats.merged;
  r.processed = stats.processed;
  server.stop();
  return r;
}

TEST(ServiceDifferential, ShardedServeIsBitIdenticalToOneShotDetect) {
  Fixture fx;
  ScratchDir dir("spoofscope_serve_diff");
  const FlatClassifier flat = FlatClassifier::compile(*fx.classifier);
  const struct {
    SimdKernel simd;
    const char* tag;
  } variants[] = {
      {SimdKernel::kAuto, "auto"},
      {SimdKernel::kScalar, "scalar"},
  };
  for (const std::uint64_t seed : {5u, 6u}) {
    const auto flows = make_stream(seed, 4000, 0);
    // The plane every server and oracle classifies through must agree
    // with the trie oracle it was compiled from, flow by flow.
    ASSERT_EQ(classify::classify_trace(flat, flows),
              classify::classify_trace(*fx.classifier, flows))
        << "seed " << seed;
    const std::string trace =
        write_segment(dir, "whole-" + std::to_string(seed) + ".trace", flows);
    for (const auto& v : variants) {
      const auto params = detect_params(0, v.simd);
      const RunResult expect =
          oracle([&] { return StreamingDetector(flat, 0, params); }, flows);
      ASSERT_FALSE(expect.alerts.empty())
          << "seed " << seed << " raised no alerts — differential is vacuous";
      for (const std::size_t shards : {1u, 2u, 7u}) {
        const RunResult got = run_server(fx, shards, params, {trace});
        EXPECT_EQ(got.alerts, expect.alerts)
            << v.tag << " shards=" << shards << " seed=" << seed;
        EXPECT_EQ(got.health, expect.health)
            << v.tag << " shards=" << shards << " seed=" << seed;
        EXPECT_EQ(got.processed, expect.processed);
      }
    }
  }
}

TEST(ServiceDifferential, SegmentedSubmitEqualsWholeTrace) {
  Fixture fx;
  ScratchDir dir("spoofscope_serve_seg");
  const auto flows = make_stream(5, 4000, 0);
  const auto params = detect_params(0, SimdKernel::kAuto);
  const std::string whole = write_segment(dir, "whole.trace", flows);
  std::vector<std::string> segments;
  const std::size_t cut1 = flows.size() / 3;
  const std::size_t cut2 = 2 * flows.size() / 3;
  segments.push_back(write_segment(
      dir, "seg1.trace", std::span(flows).subspan(0, cut1)));
  segments.push_back(write_segment(
      dir, "seg2.trace", std::span(flows).subspan(cut1, cut2 - cut1)));
  segments.push_back(write_segment(
      dir, "seg3.trace", std::span(flows).subspan(cut2)));
  for (const std::size_t shards : {2u, 7u}) {
    const RunResult one = run_server(fx, shards, params, {whole});
    const RunResult split = run_server(fx, shards, params, segments);
    EXPECT_EQ(split.alerts, one.alerts) << "shards=" << shards;
    EXPECT_EQ(split.health, one.health) << "shards=" << shards;
    EXPECT_EQ(split.processed, one.processed);
  }
}

TEST(ServiceDifferential, SingleShardMatchesOneShotUnderReorderSkew) {
  // One shard is literally the one-shot computation, so equality must
  // hold even with the reorder buffer engaged and late drops occurring.
  Fixture fx;
  ScratchDir dir("spoofscope_serve_skew1");
  const auto flows = make_stream(7, 4000, 40);  // jitter can exceed skew
  const auto params = detect_params(30, SimdKernel::kAuto);
  const FlatClassifier flat = FlatClassifier::compile(*fx.classifier);
  const RunResult expect =
      oracle([&] { return StreamingDetector(flat, 0, params); }, flows);
  ASSERT_FALSE(expect.alerts.empty());
  EXPECT_GT(expect.health.late_drops, 0u) << "stream never exercised the skew";
  const std::string trace = write_segment(dir, "jitter.trace", flows);
  const RunResult got = run_server(fx, 1, params, {trace});
  EXPECT_EQ(got.alerts, expect.alerts);
  EXPECT_EQ(got.health, expect.health);
}

TEST(ServiceDifferential, ShardingUnderSkewOnInOrderTraceKeepsAlerts) {
  // With skew > 0 on an in-order trace nothing is ever late or forced,
  // so per-member release sequences — hence alerts and every health
  // counter except the global reorder-buffer high-water mark — still
  // compose exactly across shards.
  Fixture fx;
  ScratchDir dir("spoofscope_serve_skewN");
  const auto flows = make_stream(8, 4000, 0);
  const auto params = detect_params(30, SimdKernel::kAuto);
  const FlatClassifier flat = FlatClassifier::compile(*fx.classifier);
  RunResult expect =
      oracle([&] { return StreamingDetector(flat, 0, params); }, flows);
  ASSERT_FALSE(expect.alerts.empty());
  const std::string trace = write_segment(dir, "sorted.trace", flows);
  for (const std::size_t shards : {2u, 7u}) {
    RunResult got = run_server(fx, shards, params, {trace});
    EXPECT_EQ(got.alerts, expect.alerts) << "shards=" << shards;
    got.health.max_reorder_depth = 0;
    DetectorHealth want = expect.health;
    want.max_reorder_depth = 0;
    EXPECT_EQ(got.health, want) << "shards=" << shards;
  }
}

TEST(ServiceDifferential, InProcessBatchSubmitEqualsFileSubmit) {
  // submit_batch() + barrier() is the path the throughput bench drives;
  // it must see the same verdicts as the socket's file-based submit.
  Fixture fx;
  ScratchDir dir("spoofscope_serve_batch");
  const auto flows = make_stream(5, 4000, 0);
  const auto params = detect_params(0, SimdKernel::kAuto);
  const std::string trace = write_segment(dir, "whole.trace", flows);
  const RunResult via_file = run_server(fx, 4, params, {trace});

  ServerConfig cfg;
  cfg.shards = 4;
  cfg.params = params;
  Server server(
      std::make_shared<FlatClassifier>(FlatClassifier::compile(*fx.classifier)),
      cfg);
  server.start();
  constexpr std::size_t kChunk = 512;
  for (std::size_t off = 0; off < flows.size(); off += kChunk) {
    net::FlowBatch batch;
    for (std::size_t i = off; i < std::min(off + kChunk, flows.size()); ++i) {
      batch.push_back(flows[i]);
    }
    server.submit_batch(batch);
  }
  server.barrier();
  server.drain();
  EXPECT_EQ(server.merged_alerts(), via_file.alerts);
  EXPECT_EQ(server.stats().merged, via_file.health);
  EXPECT_EQ(server.stats().processed, via_file.processed);
  server.stop();
}

}  // namespace
}  // namespace spoofscope::service
