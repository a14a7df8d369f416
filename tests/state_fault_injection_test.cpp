// Deterministic fault injection across the durable-state plane: every
// modelled crash, torn page, short write/read and disk-full error —
// alone or stacked, armed at a chosen occurrence or drawn from a seeded
// random sweep — must leave the pipeline able to restart and finish the
// stream with EXACTLY the alerts, health counters and final checkpoint
// bytes of the uninterrupted run. The harness mirrors `detect
// --updates --checkpoint-delta`: plane patches fire from a BGP update
// stream, checkpoints chain deltas off a base, and a crash restarts
// from the newest durable cut (recompiled plane + replayed update
// cursor + skipped flows).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bgp/message.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "detector_fixture.hpp"
#include "net/prefix.hpp"
#include "state/delta_chain.hpp"
#include "state/snapshot.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace spoofscope::state {
namespace {

namespace fs = std::filesystem;
using classify::DetectorCheckpointExtra;
using classify::FlatClassifier;
using classify::SpoofingAlert;
using classify::StreamingDetector;
using classify::StreamingParams;
using net::pfx;
using Fixture = testing::DetectorFixture;
using testing::make_stream;
using testing::pressured_params;
using util::FaultInjector;
using util::FaultKind;
using util::InjectedCrash;

/// Route churn that flips classifications mid-stream: member 1's valid
/// prefix vanishes and returns, and the spoof source range 99.0/16
/// becomes briefly routed.
std::vector<bgp::UpdateMessage> make_updates() {
  const auto msg = [](bgp::UpdateMessage::Kind kind, const char* p,
                      std::uint32_t ts) {
    bgp::UpdateMessage u;
    u.kind = kind;
    u.timestamp = ts;
    u.prefix = pfx(p);
    u.path = bgp::AsPath{65000};
    return u;
  };
  using K = bgp::UpdateMessage::Kind;
  return {
      msg(K::kAnnounce, "99.0.0.0/16", 120),
      msg(K::kWithdraw, "50.0.0.0/16", 250),
      msg(K::kAnnounce, "50.0.0.0/16", 380),
      msg(K::kWithdraw, "99.0.0.0/16", 380),
      msg(K::kAnnounce, "70.7.0.0/16", 500),
  };
}

class ScratchDir {
 public:
  explicit ScratchDir(const char* name)
      : path_(fs::temp_directory_path() /
              (std::string(name) + "." + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct RunResult {
  std::vector<SpoofingAlert> alerts;
  classify::DetectorHealth health;
  std::string final_save;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// The detect-style pipeline under test: flat plane patched by a BGP
/// update stream (one apply per trigger point), delta checkpoints every
/// `every` flows, crash anywhere -> restart from the newest durable cut.
struct Pipeline {
  const Fixture* fx;
  StreamingParams params;
  std::vector<net::FlowRecord> flows;
  std::vector<bgp::UpdateMessage> updates = make_updates();
  std::string base = {};        ///< delta-chain base checkpoint path
  std::string final_ckpt = {};  ///< where the end-of-run full save lands
  std::size_t every = 150;

  /// Applies every not-yet-applied update with timestamp <= ts as one
  /// batch — a pure function of (update ts, flow ts), so resumed and
  /// uninterrupted runs fire identical patches.
  void fire_updates_through(FlatClassifier& flat, std::size_t& cursor,
                            std::uint32_t ts) const {
    std::size_t end = cursor;
    while (end < updates.size() && updates[end].timestamp <= ts) ++end;
    if (end == cursor) return;
    flat.apply_updates(
        std::span<const bgp::UpdateMessage>(updates).subspan(cursor,
                                                             end - cursor));
    cursor = end;
  }

  RunResult reference() const {
    RunResult r;
    FlatClassifier flat = FlatClassifier::compile(fx->classifier);
    StreamingDetector d(flat, 0, params);
    const auto sink = [&r](const SpoofingAlert& a) { r.alerts.push_back(a); };
    std::size_t cursor = 0;
    for (const auto& f : flows) {
      fire_updates_through(flat, cursor, f.ts);
      d.ingest(f, sink);
    }
    d.flush(sink);
    r.health = d.health();
    // The final save pins plane_epoch to 0: the epoch is a run-local
    // patch counter (a resumed run collapses replayed batches into one
    // apply), so embedding it would make bit-identity vacuously fail.
    d.save(final_ckpt, DetectorCheckpointExtra{cursor, 0});
    r.final_save = slurp(final_ckpt);
    return r;
  }

  /// One crash-to-crash attempt: resume from the chain, replay the
  /// update cursor into a fresh plane, skip processed flows, finish.
  /// Returns normally on completion; InjectedCrash propagates to the
  /// caller's restart loop. `alerts_at_cut` maps a durable cut (flow
  /// count) to the alert count at that cut so re-emitted alerts after a
  /// restart replace their first delivery instead of duplicating it.
  void run_attempt(RunResult& r,
                   std::map<std::size_t, std::size_t>& alerts_at_cut) const {
    FlatClassifier flat = FlatClassifier::compile(fx->classifier);
    StreamingDetector d(flat, 0, params);
    DeltaChain chain(base);
    const DeltaResume res = chain.resume(d, util::ErrorPolicy::kSkip);
    std::size_t cursor = 0;
    if (res.extra.updates_applied > 0) {
      ASSERT_LE(res.extra.updates_applied, updates.size());
      flat.apply_updates(std::span<const bgp::UpdateMessage>(updates).first(
          res.extra.updates_applied));
      cursor = res.extra.updates_applied;
    }
    const std::size_t start = d.processed();
    r.alerts.resize(alerts_at_cut.at(start));
    const auto sink = [&r](const SpoofingAlert& a) { r.alerts.push_back(a); };

    const auto checkpoint = [&](std::size_t cut) {
      // Record the rollback point BEFORE the write: if the write crashes
      // after rename, the cut is durable though we never hear back.
      alerts_at_cut[cut] = r.alerts.size();
      try {
        chain.append(d, DetectorCheckpointExtra{cursor, flat.epoch()});
      } catch (const InjectedCrash&) {
        throw;
      } catch (const std::runtime_error&) {
        // Modelled ENOSPC: the checkpoint is lost but the in-memory
        // detector is fine — keep streaming, try again at the next cut.
      }
    };

    for (std::size_t i = start; i < flows.size(); ++i) {
      fire_updates_through(flat, cursor, flows[i].ts);
      d.ingest(flows[i], sink);
      if ((i + 1) % every == 0) checkpoint(i + 1);
    }
    checkpoint(flows.size());
    d.flush(sink);
    r.health = d.health();
    for (;;) {
      try {
        d.save(final_ckpt, DetectorCheckpointExtra{cursor, 0});
        break;
      } catch (const InjectedCrash&) {
        throw;
      } catch (const std::runtime_error&) {
        continue;  // injected ENOSPC on the final save: retry
      }
    }
    r.final_save = slurp(final_ckpt);
  }

  /// Runs the pipeline under `inj`, restarting on every injected crash,
  /// until it completes. Asserts it converges within `max_attempts`.
  RunResult faulted(FaultInjector& inj, int max_attempts = 200) const {
    RunResult r;
    std::map<std::size_t, std::size_t> alerts_at_cut{{0, 0}};
    FaultInjector::Scope scope(inj);
    for (int attempt = 0;; ++attempt) {
      if (attempt >= max_attempts) {
        ADD_FAILURE() << "pipeline did not converge in " << max_attempts
                      << " attempts";
        break;
      }
      try {
        run_attempt(r, alerts_at_cut);
        break;
      } catch (const InjectedCrash&) {
        continue;  // modelled process death: restart from durable state
      }
    }
    return r;
  }
};

// ------------------------------------------------------- injector basics

TEST(FaultInjector, ArmedFaultFiresAtTheNthOccurrenceOnly) {
  FaultInjector inj;
  inj.arm("x", 3, FaultKind::kCrash);
  inj.arm("y", 1, FaultKind::kEnospc);
  EXPECT_EQ(inj.at("x", {FaultKind::kCrash}), FaultKind::kNone);
  EXPECT_EQ(inj.at("x", {FaultKind::kCrash}), FaultKind::kNone);
  EXPECT_EQ(inj.at("x", {FaultKind::kCrash}), FaultKind::kCrash);
  EXPECT_EQ(inj.at("x", {FaultKind::kCrash}), FaultKind::kNone);
  EXPECT_EQ(inj.occurrences("x"), 4u);
  // A kind the site cannot express is ignored.
  EXPECT_EQ(inj.at("y", {FaultKind::kShortRead}), FaultKind::kNone);
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjector, RandomSweepIsReplayableFromTheSeed) {
  const auto draw = [](std::uint64_t seed) {
    FaultInjector inj(seed, 0.5);
    std::vector<FaultKind> seq;
    for (int i = 0; i < 64; ++i) {
      seq.push_back(inj.at("site", {FaultKind::kShortWrite, FaultKind::kEnospc,
                                    FaultKind::kCrash}));
    }
    return seq;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
  FaultInjector inj(42, 0.5);
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    if (inj.at("site", {FaultKind::kCrash}) != FaultKind::kNone) ++fired;
  }
  EXPECT_GT(fired, 16u);
  EXPECT_LT(fired, 48u);
  EXPECT_EQ(inj.injected(), fired);
}

TEST(FaultInjector, ScopeInstallsAndRestores) {
  EXPECT_EQ(FaultInjector::current(), nullptr);
  FaultInjector outer;
  {
    FaultInjector::Scope a(outer);
    EXPECT_EQ(FaultInjector::current(), &outer);
    FaultInjector inner;
    {
      FaultInjector::Scope b(inner);
      EXPECT_EQ(FaultInjector::current(), &inner);
    }
    EXPECT_EQ(FaultInjector::current(), &outer);
  }
  EXPECT_EQ(FaultInjector::current(), nullptr);
}

// ---------------------------------------------------- write-side faults

TEST(WriteFaults, EveryWriteFaultLeavesTheContractedDiskState) {
  Fixture fx;
  ScratchDir dir("spoofscope_write_faults");
  const std::string ckpt = dir.file("det.ckpt");
  const std::string tmp = ckpt + ".tmp";
  StreamingDetector d(fx.plane, 0, pressured_params());
  const auto flows = make_stream(3, 200);
  for (const auto& f : flows) d.ingest(f, [](const SpoofingAlert&) {});

  // Short write: a torn tmp file survives, the target never appears.
  {
    FaultInjector inj;
    inj.arm("snapshot.write", 1, FaultKind::kShortWrite);
    FaultInjector::Scope scope(inj);
    EXPECT_THROW(d.save(ckpt), InjectedCrash);
  }
  EXPECT_FALSE(fs::exists(ckpt));
  EXPECT_TRUE(fs::exists(tmp)) << "modelled kill mid-write leaves the tmp";

  // A clean save plows through the leftover tmp.
  d.save(ckpt);
  ASSERT_TRUE(fs::exists(ckpt));
  EXPECT_FALSE(fs::exists(tmp));
  const std::string good = slurp(ckpt);

  // ENOSPC: clean failure, tmp removed, the old checkpoint untouched.
  {
    FaultInjector inj;
    inj.arm("snapshot.write", 1, FaultKind::kEnospc);
    FaultInjector::Scope scope(inj);
    try {
      d.save(ckpt);
      FAIL() << "injected ENOSPC must surface";
    } catch (const InjectedCrash&) {
      FAIL() << "ENOSPC is an error, not a crash";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(ckpt), std::string::npos);
    }
  }
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(slurp(ckpt), good);

  // Crash before rename: the old checkpoint is still the visible one.
  {
    FaultInjector inj;
    inj.arm("snapshot.rename", 1, FaultKind::kCrashBeforeRename);
    FaultInjector::Scope scope(inj);
    EXPECT_THROW(d.save(ckpt), InjectedCrash);
  }
  EXPECT_EQ(slurp(ckpt), good);
  EXPECT_TRUE(fs::exists(tmp)) << "the completed tmp was never renamed";

  // Crash after rename: the NEW checkpoint is durable even though the
  // caller never heard back — restore must accept it.
  for (const auto& f : make_stream(4, 100)) {
    d.ingest(f, [](const SpoofingAlert&) {});
  }
  {
    FaultInjector inj;
    inj.arm("snapshot.rename", 1, FaultKind::kCrashAfterRename);
    FaultInjector::Scope scope(inj);
    EXPECT_THROW(d.save(ckpt), InjectedCrash);
  }
  EXPECT_NE(slurp(ckpt), good) << "rename happened: new bytes are visible";
  StreamingDetector r(fx.plane, 0, pressured_params());
  EXPECT_TRUE(r.restore(ckpt));
  EXPECT_EQ(r.processed(), d.processed());
}

// ----------------------------------------------------- read-side faults

TEST(ReadFaults, DetectorRestoreShortReadAndTornPage) {
  Fixture fx;
  ScratchDir dir("spoofscope_read_faults");
  const std::string ckpt = dir.file("det.ckpt");
  StreamingDetector d(fx.plane, 0, pressured_params());
  const auto flows = make_stream(5, 300);
  for (const auto& f : flows) d.ingest(f, [](const SpoofingAlert&) {});
  d.save(ckpt);

  for (const FaultKind kind : {FaultKind::kShortRead, FaultKind::kTornPage}) {
    // Strict: loud refusal naming the file.
    {
      FaultInjector inj;
      inj.arm("detector.restore", 1, kind);
      FaultInjector::Scope scope(inj);
      StreamingDetector strict(fx.plane, 0, pressured_params());
      try {
        strict.restore(ckpt, util::ErrorPolicy::kStrict, nullptr, nullptr);
        FAIL() << "damaged read must throw in strict mode";
      } catch (const SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find(ckpt), std::string::npos)
            << e.what();
      }
    }
    // Skip: clean fresh start, damage accounted.
    {
      FaultInjector inj;
      inj.arm("detector.restore", 1, kind);
      FaultInjector::Scope scope(inj);
      StreamingDetector skip(fx.plane, 0, pressured_params());
      util::IngestStats stats;
      EXPECT_FALSE(
          skip.restore(ckpt, util::ErrorPolicy::kSkip, &stats, nullptr));
      EXPECT_EQ(skip.processed(), 0u);
    }
  }
  // The file itself was never damaged: a clean restore still works.
  StreamingDetector clean(fx.plane, 0, pressured_params());
  EXPECT_TRUE(clean.restore(ckpt));
  EXPECT_EQ(clean.processed(), flows.size());
}

TEST(ReadFaults, ApplyUpdatesCrashLeavesThePlaneUntouched) {
  Fixture fx;
  FlatClassifier flat = FlatClassifier::compile(fx.classifier);
  const std::uint64_t digest = flat.plane_digest();
  const std::uint64_t epoch = flat.epoch();
  std::vector<bgp::UpdateMessage> batch;
  bgp::UpdateMessage u;
  u.kind = bgp::UpdateMessage::Kind::kWithdraw;
  u.prefix = pfx("50.0.0.0/16");
  batch.push_back(u);
  {
    FaultInjector inj;
    inj.arm("plane.apply_updates", 1, FaultKind::kCrash);
    FaultInjector::Scope scope(inj);
    EXPECT_THROW(flat.apply_updates(batch), InjectedCrash);
  }
  EXPECT_EQ(flat.plane_digest(), digest)
      << "a crash at the apply site must model dying with the batch unapplied";
  EXPECT_EQ(flat.epoch(), epoch);
  // The batch applies cleanly afterwards.
  EXPECT_TRUE(flat.apply_updates(batch).changed);
}

// ----------------------------------------------- crash/churn differential

/// Armed-fault scenarios: each entry is a set of (site, nth, kind)
/// triples installed together, covering every fault site the pipeline
/// crosses — alone and stacked (a crash whose recovery then hits a read
/// fault).
struct ArmedFault {
  const char* site;
  std::uint64_t nth;
  FaultKind kind;
};

TEST(CrashChurnDifferential, EveryArmedFaultScenarioConvergesBitIdentically) {
  Fixture fx;
  ScratchDir dir("spoofscope_crash_churn");
  const std::vector<std::vector<ArmedFault>> scenarios = {
      {{"snapshot.write", 1, FaultKind::kShortWrite}},
      {{"snapshot.write", 2, FaultKind::kEnospc}},
      {{"snapshot.write", 4, FaultKind::kShortWrite}},
      {{"snapshot.rename", 1, FaultKind::kCrashBeforeRename}},
      {{"snapshot.rename", 2, FaultKind::kCrashAfterRename}},
      {{"snapshot.rename", 5, FaultKind::kCrashBeforeRename}},
      {{"plane.apply_updates", 1, FaultKind::kCrash}},
      {{"plane.apply_updates", 3, FaultKind::kCrash}},
      // Crash, then the restart's base restore is torn: skip falls back
      // to a fresh start and the whole stream is reprocessed.
      {{"snapshot.rename", 1, FaultKind::kCrashBeforeRename},
       {"detector.restore", 1, FaultKind::kShortRead}},
      // Crash with deltas on disk, then the restart's delta read is
      // short: the chain truncates and the run continues from the base.
      {{"snapshot.rename", 3, FaultKind::kCrashBeforeRename},
       {"delta.load", 1, FaultKind::kShortRead}},
      // Stacked write faults across several checkpoints.
      {{"snapshot.write", 1, FaultKind::kShortWrite},
       {"snapshot.write", 3, FaultKind::kEnospc},
       {"snapshot.rename", 4, FaultKind::kCrashAfterRename}},
  };

  Pipeline p{&fx, pressured_params(), make_stream(21, 1200)};
  p.final_ckpt = dir.file("final.ckpt");
  const RunResult want = [&] {
    Pipeline ref = p;
    ref.base = dir.file("ref.ckpt");  // unused: reference never checkpoints
    return ref.reference();
  }();
  ASSERT_FALSE(want.alerts.empty());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    Pipeline run = p;
    run.base = dir.file("det" + std::to_string(s) + ".ckpt");
    run.final_ckpt = dir.file("final" + std::to_string(s) + ".ckpt");
    FaultInjector inj;
    for (const ArmedFault& f : scenarios[s]) inj.arm(f.site, f.nth, f.kind);
    const RunResult got = run.faulted(inj);
    EXPECT_GT(inj.injected(), 0u) << "scenario " << s << " armed a dead site";
    EXPECT_EQ(got.alerts, want.alerts) << "scenario " << s;
    EXPECT_EQ(got.health, want.health) << "scenario " << s;
    EXPECT_EQ(got.final_save, want.final_save)
        << "scenario " << s << ": recovered state must be bit-identical";
  }
}

TEST(CrashChurnDifferential, SeededRandomFaultSweepsConverge) {
  Fixture fx;
  ScratchDir dir("spoofscope_random_faults");
  Pipeline p{&fx, pressured_params(), make_stream(33, 1200)};
  p.final_ckpt = dir.file("final.ckpt");
  const RunResult want = [&] {
    Pipeline ref = p;
    return ref.reference();
  }();

  // tools/check.sh widens the sweep via SPOOFSCOPE_FAULT_SEEDS.
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("SPOOFSCOPE_FAULT_SEEDS")) {
    seeds.clear();
    for (const char* c = env; *c != '\0';) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(c, &end, 10);
      if (end == c) break;
      seeds.push_back(v);
      c = end;
      while (*c == ' ' || *c == ',') ++c;
    }
    ASSERT_FALSE(seeds.empty()) << "unparsable SPOOFSCOPE_FAULT_SEEDS";
  }

  for (const std::uint64_t seed : seeds) {
    Pipeline run = p;
    run.base = dir.file("det" + std::to_string(seed) + ".ckpt");
    run.final_ckpt = dir.file("final" + std::to_string(seed) + ".ckpt");
    FaultInjector inj(seed, 0.04);
    const RunResult got = run.faulted(inj);
    EXPECT_EQ(got.alerts, want.alerts) << "seed " << seed;
    EXPECT_EQ(got.health, want.health) << "seed " << seed;
    EXPECT_EQ(got.final_save, want.final_save) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spoofscope::state
