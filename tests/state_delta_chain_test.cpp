// Delta-checkpoint chains: a base full checkpoint plus small delta
// links must resume a detector bit-identically to the uninterrupted
// run, and every way a chain can rot — a damaged middle link, orphaned
// links with no base, reordered links, stale links from an earlier
// chain — must either refuse loudly (strict) or truncate to the newest
// provably-consistent cut (skip), never half-apply. Error messages must
// name the offending file and section so an operator can find the
// damage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "classify/streaming.hpp"
#include "corruption.hpp"
#include "detector_fixture.hpp"
#include "state/delta_chain.hpp"
#include "state/snapshot.hpp"
#include "util/rng.hpp"

namespace spoofscope::state {
namespace {

namespace fs = std::filesystem;
using classify::DetectorCheckpointExtra;
using classify::SpoofingAlert;
using classify::StreamingDetector;
using classify::StreamingParams;
using Fixture = testing::DetectorFixture;
using testing::make_stream;
using testing::pressured_params;

class ScratchDir {
 public:
  explicit ScratchDir(const char* name)
      : path_(fs::temp_directory_path() /
              (std::string(name) + "." + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct RunResult {
  std::vector<SpoofingAlert> alerts;
  classify::DetectorHealth health;
  std::string final_save;  ///< bytes of a full checkpoint taken at the end
};

/// Builds a chain by checkpointing at each cut, "crashing" (dropping
/// detector and chain) after the last cut, resuming into fresh ones and
/// finishing. Captures a final full save so the differential asserts
/// bit-identity, not just logical equality.
struct ChainRun {
  Fixture* fx;
  StreamingParams params;
  std::string base;
  std::string final_ckpt;

  RunResult uninterrupted(std::span<const net::FlowRecord> flows) const {
    RunResult r;
    StreamingDetector d(fx->plane, 0, params);
    r.alerts = d.run(flows);
    r.health = d.health();
    d.save(final_ckpt);
    r.final_save = slurp(final_ckpt);
    return r;
  }

  RunResult crash_and_resume(std::span<const net::FlowRecord> flows,
                             std::span<const std::size_t> cuts,
                             std::size_t* deltas_applied = nullptr) const {
    RunResult r;
    const auto sink = [&r](const SpoofingAlert& a) { r.alerts.push_back(a); };
    std::size_t crash_at = 0;
    {
      DeltaChain chain(base);
      StreamingDetector before(fx->plane, 0, params);
      std::size_t next = 0;
      for (std::size_t cut : cuts) {
        for (; next < cut; ++next) before.ingest(flows[next], sink);
        chain.append(before, DetectorCheckpointExtra{});
      }
      crash_at = next;
    }  // crash: both detector and chain driver state evaporate
    DeltaChain chain(base);
    StreamingDetector after(fx->plane, 0, params);
    const DeltaResume res = chain.resume(after);
    EXPECT_TRUE(res.restored);
    EXPECT_EQ(res.deltas_dropped, 0u);
    if (deltas_applied != nullptr) *deltas_applied = res.deltas_applied;
    EXPECT_EQ(after.processed(), crash_at);
    for (std::size_t i = crash_at; i < flows.size(); ++i) {
      after.ingest(flows[i], sink);
    }
    after.flush(sink);
    r.health = after.health();
    after.save(final_ckpt);
    r.final_save = slurp(final_ckpt);
    return r;
  }
};

TEST(DeltaChainTest, FullDeltaDeltaResumesBitIdentically) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_chain");
  const ChainRun run{&fx, pressured_params(), dir.file("det.ckpt"),
                     dir.file("final.ckpt")};
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    const auto flows = make_stream(seed, 1200);
    const RunResult straight = run.uninterrupted(flows);
    ASSERT_FALSE(straight.alerts.empty());

    // First append writes the base, the rest chain deltas off it.
    const std::vector<std::size_t> cuts = {100, 400, 900};
    std::size_t applied = 0;
    const RunResult resumed = run.crash_and_resume(flows, cuts, &applied);
    EXPECT_EQ(applied, cuts.size() - 1) << "seed " << seed;
    EXPECT_EQ(resumed.alerts, straight.alerts) << "seed " << seed;
    EXPECT_EQ(resumed.health, straight.health) << "seed " << seed;
    EXPECT_EQ(resumed.final_save, straight.final_save)
        << "seed " << seed << ": resumed state must serialize bit-identically";
  }
}

TEST(DeltaChainTest, ResumeAtEveryCutDepth) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_cuts");
  const ChainRun run{&fx, pressured_params(), dir.file("det.ckpt"),
                     dir.file("final.ckpt")};
  const auto flows = make_stream(77, 1200);
  const RunResult straight = run.uninterrupted(flows);
  // Deeper and deeper chains, including a cut with a hot reorder buffer
  // (k=1) and a checkpoint right at the end (k=n).
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{1}, {1, 2}, {300, 600, 900, 1100},
        {200, 400, 600, 800, 1000, 1200}}) {
    const RunResult resumed = run.crash_and_resume(flows, cuts);
    EXPECT_EQ(resumed.alerts, straight.alerts) << "chain depth " << cuts.size();
    EXPECT_EQ(resumed.health, straight.health) << "chain depth " << cuts.size();
    EXPECT_EQ(resumed.final_save, straight.final_save);
  }
}

/// Ingests flows while appending checkpoints at `cuts`, leaving a
/// base + deltas chain on disk.
std::size_t build_chain(const Fixture& fx, const StreamingParams& params,
                        const std::string& base,
                        std::span<const net::FlowRecord> flows,
                        std::span<const std::size_t> cuts) {
  DeltaChain chain(base);
  StreamingDetector d(fx.plane, 0, params);
  std::size_t next = 0;
  for (const std::size_t cut : cuts) {
    for (; next < cut; ++next) d.ingest(flows[next], [](const SpoofingAlert&) {});
    chain.append(d, DetectorCheckpointExtra{});
  }
  return next;
}

TEST(DeltaChainTest, DamagedMiddleLinkStrictNamesFileAndSection) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_damage");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(5, 900);
  const std::vector<std::size_t> cuts = {100, 400, 800};
  build_chain(fx, pressured_params(), base, flows, cuts);
  const std::string d1 = base + ".d1";
  const std::string d2 = base + ".d2";
  ASSERT_TRUE(fs::exists(d1));
  ASSERT_TRUE(fs::exists(d2));

  // Flip bits deep in d1's payload: a checksum must catch it, and the
  // error must name the file and the damaged section.
  const std::string good = slurp(d1);
  util::Rng rng(99);
  spew(d1, testing::flip_bits(good, rng, 3, good.size() / 2));

  StreamingDetector strict(fx.plane, 0, pressured_params());
  DeltaChain chain(base);
  try {
    chain.resume(strict, util::ErrorPolicy::kStrict);
    FAIL() << "damaged link must throw in strict mode";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(d1), std::string::npos) << msg;
    EXPECT_NE(msg.find("section"), std::string::npos) << msg;
  }

  // Skip: truncate at d1 — the detector settles at the base cut (100
  // flows) and both the damaged link and the now-stale d2 are unlinked.
  StreamingDetector skip(fx.plane, 0, pressured_params());
  DeltaChain chain2(base);
  util::IngestStats stats;
  const DeltaResume res = chain2.resume(skip, util::ErrorPolicy::kSkip, &stats);
  EXPECT_TRUE(res.restored);
  EXPECT_EQ(res.deltas_applied, 0u);
  EXPECT_EQ(res.deltas_dropped, 2u);
  EXPECT_EQ(skip.processed(), 100u);
  EXPECT_FALSE(fs::exists(d1));
  EXPECT_FALSE(fs::exists(d2));

  // The truncated chain is immediately appendable again.
  DeltaChain chain3(base);
  StreamingDetector again(fx.plane, 0, pressured_params());
  ASSERT_TRUE(chain3.resume(again).restored);
  EXPECT_FALSE(chain3.append(again, DetectorCheckpointExtra{}))
      << "a healthy base takes a delta link, not a rollover";
  EXPECT_TRUE(fs::exists(d1));
}

TEST(DeltaChainTest, DamagedBaseNamesFileAndFallsBackFresh) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_base_damage");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(6, 600);
  const std::vector<std::size_t> cuts = {200, 500};
  build_chain(fx, pressured_params(), base, flows, cuts);

  const std::string good = slurp(base);
  util::Rng rng(7);
  spew(base, testing::flip_bits(good, rng, 3, good.size() / 2));

  StreamingDetector strict(fx.plane, 0, pressured_params());
  DeltaChain chain(base);
  try {
    chain.resume(strict, util::ErrorPolicy::kStrict);
    FAIL() << "damaged base must throw in strict mode";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(base), std::string::npos) << msg;
  }

  // Skip: unusable base means a fresh start; trailing links are stale.
  StreamingDetector skip(fx.plane, 0, pressured_params());
  DeltaChain chain2(base);
  const DeltaResume res = chain2.resume(skip, util::ErrorPolicy::kSkip);
  EXPECT_FALSE(res.restored);
  EXPECT_EQ(res.deltas_dropped, 1u);
  EXPECT_EQ(skip.processed(), 0u);
  EXPECT_FALSE(fs::exists(base + ".d1"));
}

TEST(DeltaChainTest, OrphanedLinksWithoutBase) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_orphan");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(8, 600);
  const std::vector<std::size_t> cuts = {200, 500};
  build_chain(fx, pressured_params(), base, flows, cuts);
  fs::remove(base);
  ASSERT_TRUE(fs::exists(base + ".d1"));

  StreamingDetector strict(fx.plane, 0, pressured_params());
  DeltaChain chain(base);
  try {
    chain.resume(strict, util::ErrorPolicy::kStrict);
    FAIL() << "orphaned links must refuse loudly in strict mode";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no base checkpoint"), std::string::npos) << msg;
    EXPECT_NE(msg.find(base), std::string::npos) << msg;
  }

  StreamingDetector skip(fx.plane, 0, pressured_params());
  DeltaChain chain2(base);
  const DeltaResume res = chain2.resume(skip, util::ErrorPolicy::kSkip);
  EXPECT_FALSE(res.restored);
  EXPECT_EQ(res.deltas_dropped, 1u);
  EXPECT_FALSE(fs::exists(base + ".d1"));
}

TEST(DeltaChainTest, ReorderedLinksFailTheChainProof) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_reorder");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(9, 900);
  const std::vector<std::size_t> cuts = {100, 400, 800};
  build_chain(fx, pressured_params(), base, flows, cuts);
  const std::string d1 = base + ".d1";
  const std::string d2 = base + ".d2";

  // Swap the two links: both are intact snapshots, but d2-as-d1 carries
  // the wrong sequence number and parent digest.
  const std::string b1 = slurp(d1);
  const std::string b2 = slurp(d2);
  spew(d1, b2);
  spew(d2, b1);

  StreamingDetector strict(fx.plane, 0, pressured_params());
  DeltaChain chain(base);
  EXPECT_THROW(chain.resume(strict, util::ErrorPolicy::kStrict),
               SnapshotError);

  StreamingDetector skip(fx.plane, 0, pressured_params());
  DeltaChain chain2(base);
  const DeltaResume res = chain2.resume(skip, util::ErrorPolicy::kSkip);
  EXPECT_TRUE(res.restored);
  EXPECT_EQ(res.deltas_applied, 0u);
  EXPECT_EQ(res.deltas_dropped, 2u);
  EXPECT_EQ(skip.processed(), 100u);
}

TEST(DeltaChainTest, StaleLinkFromAnEarlierChainIsRejected) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_stale");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(10, 900);
  const std::vector<std::size_t> cuts1 = {100, 400};
  build_chain(fx, pressured_params(), base, flows, cuts1);
  const std::string stale_d1 = slurp(base + ".d1");

  // A new chain from scratch overwrites the base; resurrect the old d1
  // beside it (a crash between base rewrite and unlink could leave it).
  const std::vector<std::size_t> cuts2 = {300};
  build_chain(fx, pressured_params(), base, flows, cuts2);
  ASSERT_FALSE(fs::exists(base + ".d1"));
  spew(base + ".d1", stale_d1);

  // Its parent digest points at the OLD base image: rejected.
  StreamingDetector skip(fx.plane, 0, pressured_params());
  DeltaChain chain(base);
  const DeltaResume res = chain.resume(skip, util::ErrorPolicy::kSkip);
  EXPECT_TRUE(res.restored);
  EXPECT_EQ(res.deltas_applied, 0u);
  EXPECT_EQ(res.deltas_dropped, 1u);
  EXPECT_EQ(skip.processed(), 300u);
}

TEST(DeltaChainTest, RolloverCompactsTheChain) {
  Fixture fx;
  ScratchDir dir("spoofscope_delta_rollover");
  const std::string base = dir.file("det.ckpt");
  const auto flows = make_stream(12, 1200);
  const auto params = pressured_params();

  DeltaChain chain(base, /*max_chain=*/2);
  StreamingDetector d(fx.plane, 0, params);
  std::size_t next = 0;
  const auto advance = [&](std::size_t upto) {
    for (; next < upto; ++next) d.ingest(flows[next], [](const SpoofingAlert&) {});
  };
  advance(100);
  EXPECT_TRUE(chain.append(d, {}));  // no base yet -> full
  advance(200);
  EXPECT_FALSE(chain.append(d, {}));  // d1
  advance(300);
  EXPECT_FALSE(chain.append(d, {}));  // d2 (chain now at max)
  advance(400);
  EXPECT_TRUE(chain.append(d, {}))   // rollover: fresh full checkpoint
      << "chain at max_chain must roll over into a full checkpoint";
  EXPECT_FALSE(fs::exists(base + ".d1"));
  EXPECT_FALSE(fs::exists(base + ".d2"));
  EXPECT_EQ(chain.chain_length(), 0u);
  advance(500);
  EXPECT_FALSE(chain.append(d, {}));  // new d1 off the new base

  // The compacted chain resumes to the newest cut.
  StreamingDetector r(fx.plane, 0, params);
  DeltaChain chain2(base);
  const DeltaResume res = chain2.resume(r);
  EXPECT_TRUE(res.restored);
  EXPECT_EQ(res.deltas_applied, 1u);
  EXPECT_EQ(r.processed(), 500u);
}

}  // namespace
}  // namespace spoofscope::state
