// Checkpoint/resume differential: a detector killed at ANY record k and
// restored from its checkpoint must finish the stream with exactly the
// alerts and health counters of the uninterrupted run — across seeds,
// plane compile thread counts, and degraded-mode pressure (reorder
// buffer, member and sample caps), so
// the checkpoint has to carry every piece of state that can influence a
// future decision. Corrupted checkpoints must be rejected (strict) or
// degraded around into a clean fresh start (skip), never half-loaded.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <span>
#include <fstream>
#include <string>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "corruption.hpp"
#include "detector_fixture.hpp"
#include "state/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::classify {
namespace {

namespace fs = std::filesystem;
using Fixture = testing::DetectorFixture;
using testing::make_stream;
using testing::pressured_params;

struct RunResult {
  std::vector<SpoofingAlert> alerts;
  DetectorHealth health;
};

template <typename MakeDetector>
RunResult uninterrupted(MakeDetector make, std::span<const net::FlowRecord> flows) {
  RunResult r;
  StreamingDetector d = make();
  r.alerts = d.run(flows);
  r.health = d.health();
  return r;
}

/// Kill-at-k: ingest k flows, checkpoint, drop the detector (the
/// "crash"), restore into a fresh one, finish. Alerts accumulate across
/// the boundary exactly as a monitoring pipeline would see them.
template <typename MakeDetector>
RunResult interrupted_at(MakeDetector make, std::span<const net::FlowRecord> flows,
                         std::size_t k, const std::string& ckpt) {
  RunResult r;
  const auto sink = [&r](const SpoofingAlert& a) { r.alerts.push_back(a); };
  {
    StreamingDetector before = make();
    for (std::size_t i = 0; i < k; ++i) before.ingest(flows[i], sink);
    before.save(ckpt);
  }
  StreamingDetector after = make();
  EXPECT_TRUE(after.restore(ckpt));
  EXPECT_EQ(after.processed(), k);
  for (std::size_t i = k; i < flows.size(); ++i) after.ingest(flows[i], sink);
  after.flush(sink);
  r.health = after.health();
  return r;
}

std::vector<std::size_t> cut_points(std::size_t n) {
  return {0, 1, n / 3, n / 2, n - 1, n};
}

class ScratchDir {
 public:
  // The pid suffix keeps concurrent runs from different build trees
  // (sanitizer sweeps, parallel ctest) from truncating each other's
  // mapped snapshots.
  explicit ScratchDir(const char* name)
      : path_(fs::temp_directory_path() /
              (std::string(name) + "." + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

TEST(StateResume, FlatEngineResumesAcrossCompileThreadCounts) {
  Fixture fx;
  ScratchDir dir("spoofscope_resume_flat");
  const auto params = pressured_params();
  const std::size_t hw = std::max<std::size_t>(2, util::ThreadPool(0).thread_count());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    util::ThreadPool pool(threads);
    const FlatClassifier flat = FlatClassifier::compile(fx.classifier, pool);
    const auto make = [&] { return StreamingDetector(flat, 0, params); };
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      const auto flows = make_stream(seed, 1200);
      const RunResult straight = uninterrupted(make, flows);
      ASSERT_FALSE(straight.alerts.empty())
          << "seed " << seed << " raised no alerts";
      EXPECT_GT(straight.health.member_evictions, 0u) << "seed " << seed;
      for (const std::size_t k : cut_points(flows.size())) {
        const RunResult resumed =
            interrupted_at(make, flows, k, dir.file("det.ckpt"));
        EXPECT_EQ(resumed.alerts, straight.alerts)
            << "threads=" << threads << " seed " << seed << " k=" << k;
        EXPECT_EQ(resumed.health, straight.health)
            << "threads=" << threads << " seed " << seed << " k=" << k;
      }
    }
  }
}

TEST(StateResume, ConfigMismatchRefusesTheCheckpoint) {
  Fixture fx;
  ScratchDir dir("spoofscope_resume_cfg");
  const auto flows = make_stream(11, 400);
  const std::string ckpt = dir.file("det.ckpt");
  {
    StreamingDetector d(fx.plane, 0, pressured_params());
    for (const auto& f : flows) d.ingest(f, [](const SpoofingAlert&) {});
    d.save(ckpt);
  }
  StreamingParams other = pressured_params();
  other.min_share = 0.2;  // different detection semantics
  StreamingDetector d(fx.plane, 0, other);
  try {
    d.restore(ckpt);
    FAIL() << "config mismatch did not throw in strict mode";
  } catch (const state::SnapshotError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kParse);
  }
  util::IngestStats st;
  EXPECT_FALSE(d.restore(ckpt, util::ErrorPolicy::kSkip, &st));
  EXPECT_EQ(st.errors[static_cast<std::size_t>(util::ErrorKind::kParse)], 1u);
  EXPECT_EQ(d.processed(), 0u);  // fresh state, not half-loaded
}

TEST(StateResume, MissingCheckpointThrowsStrictSkipsClean) {
  Fixture fx;
  StreamingDetector d(fx.plane, 0, pressured_params());
  EXPECT_THROW(d.restore("/nonexistent/dir/none.ckpt"), std::runtime_error);
  util::IngestStats st;
  EXPECT_FALSE(d.restore("/nonexistent/dir/none.ckpt",
                         util::ErrorPolicy::kSkip, &st));
  EXPECT_EQ(st.errors[static_cast<std::size_t>(util::ErrorKind::kTruncated)], 1u);
}

TEST(StateResume, HostileEntryCountIsAParseErrorNotAnAllocation) {
  Fixture fx;
  ScratchDir dir("spoofscope_resume_count");
  const auto flows = make_stream(11, 400);
  const std::string ckpt = dir.file("det.ckpt");
  const auto ignore = [](const SpoofingAlert&) {};
  // Sections 3 and 4 of a full checkpoint count the windows and the
  // pending flows. A checksum-valid file may still carry a count no
  // section can hold; the decoder must refuse it before sizing anything
  // from it.
  for (const std::uint32_t section : {3u, 4u}) {
    {
      StreamingDetector d(fx.plane, 0, pressured_params());
      for (const auto& f : flows) d.ingest(f, ignore);
      d.save(ckpt);
    }
    testing::plant_entry_count(ckpt, state::PayloadKind::kDetector, section,
                               std::uint64_t{1} << 60);

    StreamingDetector strict(fx.plane, 0, pressured_params());
    try {
      strict.restore(ckpt);
      FAIL() << "absurd count in section " << section << " did not throw";
    } catch (const state::SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_EQ(e.kind(), util::ErrorKind::kParse) << msg;
      EXPECT_NE(msg.find("section " + std::to_string(section)),
                std::string::npos)
          << msg;
    }

    // Skip: one accounted skip, and a detector that had already ingested
    // flows is left fresh, not half-loaded.
    StreamingDetector skip(fx.plane, 0, pressured_params());
    for (std::size_t i = 0; i < 50; ++i) skip.ingest(flows[i], ignore);
    util::IngestStats st;
    EXPECT_FALSE(skip.restore(ckpt, util::ErrorPolicy::kSkip, &st));
    EXPECT_EQ(st.records_skipped, 1u);
    EXPECT_EQ(st.errors[static_cast<std::size_t>(util::ErrorKind::kParse)], 1u);
    EXPECT_EQ(skip.processed(), 0u);
    EXPECT_EQ(skip.health(), DetectorHealth{});
  }
}

TEST(StateResume, CorruptedCheckpointsAreNeverSilentlyWrong) {
  Fixture fx;
  ScratchDir dir("spoofscope_resume_fuzz");
  const auto params = pressured_params();
  const auto make = [&] { return StreamingDetector(fx.plane, 0, params); };
  const auto flows = make_stream(22, 800);
  const RunResult straight = uninterrupted(make, flows);

  const std::string ckpt = dir.file("det.ckpt");
  {
    StreamingDetector d = make();
    for (std::size_t i = 0; i < flows.size() / 2; ++i) {
      d.ingest(flows[i], [](const SpoofingAlert&) {});
    }
    d.save(ckpt);
  }
  std::string image;
  {
    std::ifstream in(ckpt, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(image.empty());

  util::Rng rng(4242);
  const std::string damaged_path = dir.file("damaged.ckpt");
  for (int trial = 0; trial < 60; ++trial) {
    const std::string damaged = trial % 2 == 0
                                    ? testing::truncate_bytes(image, rng)
                                    : testing::flip_bits(image, rng, 1);
    ASSERT_NE(damaged, image);
    {
      std::ofstream out(damaged_path, std::ios::binary);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    // Strict: loud, typed rejection.
    StreamingDetector strict_det = make();
    EXPECT_THROW(strict_det.restore(damaged_path), state::SnapshotError);

    // Skip: accounted fallback to fresh state — and the fresh detector
    // then reproduces the uninterrupted run exactly.
    StreamingDetector skip_det = make();
    util::IngestStats st;
    EXPECT_FALSE(skip_det.restore(damaged_path, util::ErrorPolicy::kSkip, &st));
    EXPECT_EQ(st.records_skipped, 1u);
    EXPECT_EQ(skip_det.processed(), 0u);
    if (trial < 4) {  // full differential is pricey; spot-check it
      RunResult fresh;
      fresh.alerts = skip_det.run(flows);
      fresh.health = skip_det.health();
      EXPECT_EQ(fresh.alerts, straight.alerts);
      EXPECT_EQ(fresh.health, straight.health);
    }
  }
}

}  // namespace
}  // namespace spoofscope::classify
