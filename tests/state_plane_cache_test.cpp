// Compiled-plane snapshot cache: a cache hit must serve the exact plane
// a fresh compile would produce (same plane_digest, same labels), a
// source change must miss (digest keying), and damaged entries must be
// rejected (strict) or recompiled around with the ErrorKind accounted
// (skip) — a cache can be cold or wrong-and-detected, never silently
// stale.
#include "state/plane_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "corruption.hpp"
#include "net/prefix.hpp"
#include "state/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::state {
namespace {

namespace fs = std::filesystem;
using classify::Classifier;
using classify::FlatClassifier;
using net::Ipv4Addr;
using net::pfx;

/// Small but structurally complete source: a /26 exercises the overflow
/// lane, and member 2's space covers only half of its routed /16 so the
/// compile produces partial rows (fallback lane) the cache must
/// reconstruct.
struct Fixture {
  Fixture() {
    // Relaxed ingest bounds so the /26 enters the table and exercises
    // the overflow lane.
    bgp::RoutingTableBuilder b({.min_length = 8, .max_length = 32});
    b.ingest_route(pfx("50.0.0.0/16"), bgp::AsPath{1});
    b.ingest_route(pfx("60.0.0.0/16"), bgp::AsPath{2});
    b.ingest_route(pfx("70.0.0.0/26"), bgp::AsPath{2, 1});
    table = b.build();

    trie::IntervalSet s1;
    s1.add(pfx("50.0.0.0/16"));
    trie::IntervalSet s2;
    s2.add(pfx("60.0.0.0/17"));  // half of routed 60/16: fallback lane
    std::unordered_map<net::Asn, trie::IntervalSet> spaces;
    spaces.emplace(1, std::move(s1));
    spaces.emplace(2, std::move(s2));
    classifier = std::make_unique<Classifier>(
        table, std::vector<inference::ValidSpace>{
                   inference::ValidSpace(inference::Method::kFullCone,
                                         std::move(spaces))});
  }
  bgp::RoutingTable table;
  std::unique_ptr<Classifier> classifier;
};

class ScratchDir {
 public:
  // The pid suffix keeps concurrent runs from different build trees
  // (sanitizer sweeps, parallel ctest) from truncating each other's
  // mapped snapshots.
  explicit ScratchDir(const char* name)
      : path_(fs::temp_directory_path() /
              (std::string(name) + "." + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Element-wise label comparison over a deterministic address sweep.
void expect_identical_labels(const FlatClassifier& a, const FlatClassifier& b,
                             const Classifier& oracle) {
  util::Rng rng(555);
  for (int i = 0; i < 5000; ++i) {
    const Ipv4Addr src(rng.uniform_u32(0, 0xFFFFFFFFu));
    for (const net::Asn member : {1u, 2u, 9u}) {
      const auto la = a.classify_all(src, member);
      ASSERT_EQ(la, b.classify_all(src, member))
          << "addr " << src.value() << " member " << member;
      ASSERT_EQ(la, oracle.classify_all(src, member));
    }
  }
}

TEST(PlaneCache, MissCompilesAndStoresHitServesTheSamePlane) {
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache");
  PlaneCache cache(dir.str());
  const FlatClassifier fresh = FlatClassifier::compile(*fx.classifier);
  ASSERT_GT(fresh.stats().overflow_prefixes, 0u);
  ASSERT_GT(fresh.stats().partial_rows, 0u);

  auto first = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.stored);
  EXPECT_TRUE(fs::exists(cache.entry_path(classifier_digest(*fx.classifier))));
  EXPECT_EQ(first.plane.plane_digest(), fresh.plane_digest());

  auto second = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.stored);
  EXPECT_EQ(second.plane.plane_digest(), fresh.plane_digest());
  const auto& st = second.plane.stats();
  EXPECT_EQ(st.overflow_prefixes, fresh.stats().overflow_prefixes);
  EXPECT_EQ(st.partial_rows, fresh.stats().partial_rows);
  expect_identical_labels(second.plane, fresh, *fx.classifier);
}

TEST(PlaneCache, ParallelCompilePopulatesTheSameEntry) {
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache_par");
  util::ThreadPool pool(4);
  PlaneCache cache(dir.str());
  auto first = cache.load_or_compile(*fx.classifier, &pool);
  EXPECT_TRUE(first.stored);
  auto second = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.plane.plane_digest(), first.plane.plane_digest());
}

TEST(PlaneCache, SourceChangeChangesTheDigestAndMisses) {
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache_key");
  PlaneCache cache(dir.str());
  const std::uint64_t before = classifier_digest(*fx.classifier);
  auto first = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_TRUE(first.stored);

  // Extend member 1's valid space into part of routed 60/16: different
  // compile inputs AND a different compiled plane (a new partial row),
  // so the digest must move and the cache must recompile, not serve
  // stale.
  trie::IntervalSet extra;
  extra.add(pfx("60.0.128.0/24"));
  fx.classifier->mutable_space(0).extend(1, extra);
  const std::uint64_t after = classifier_digest(*fx.classifier);
  EXPECT_NE(before, after);

  auto second = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_FALSE(second.hit);
  EXPECT_TRUE(second.stored);
  EXPECT_NE(second.plane.plane_digest(), first.plane.plane_digest());
  EXPECT_TRUE(fs::exists(cache.entry_path(after)));
  EXPECT_TRUE(fs::exists(cache.entry_path(before)));  // old entry untouched
}

TEST(PlaneCache, LoadedPlaneSurvivesEntryRemoval) {
  // The mapping is owned by the FlatClassifier, so unlinking the cache
  // entry under a live plane must not invalidate it (POSIX semantics).
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache_unlink");
  PlaneCache cache(dir.str());
  cache.load_or_compile(*fx.classifier, nullptr);
  auto hit = cache.load_or_compile(*fx.classifier, nullptr);
  ASSERT_TRUE(hit.hit);
  fs::remove_all(dir.str());
  const FlatClassifier fresh = FlatClassifier::compile(*fx.classifier);
  expect_identical_labels(hit.plane, fresh, *fx.classifier);
}

TEST(PlaneCache, CorruptEntriesAreRejectedOrRecompiledNeverServed) {
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache_fuzz");
  PlaneCache cache(dir.str());
  cache.load_or_compile(*fx.classifier, nullptr);
  const std::string entry = cache.entry_path(classifier_digest(*fx.classifier));
  std::string image;
  {
    std::ifstream in(entry, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(image.empty());
  const std::uint64_t fresh_digest =
      FlatClassifier::compile(*fx.classifier).plane_digest();

  util::Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string damaged = trial % 2 == 0
                                    ? testing::truncate_bytes(image, rng)
                                    : testing::flip_bits(image, rng, 1);
    ASSERT_NE(damaged, image);
    {
      std::ofstream out(entry, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    // Strict: the damage is loud.
    EXPECT_THROW(cache.load_or_compile(*fx.classifier, nullptr), SnapshotError);

    // Skip: accounted, recompiled, entry overwritten with a good copy.
    util::IngestStats st;
    auto healed = cache.load_or_compile(*fx.classifier, nullptr,
                                        util::ErrorPolicy::kSkip, &st);
    EXPECT_FALSE(healed.hit);
    EXPECT_TRUE(healed.stored);
    EXPECT_EQ(st.records_skipped, 1u);
    EXPECT_EQ(healed.plane.plane_digest(), fresh_digest);

    auto again = cache.load_or_compile(*fx.classifier, nullptr);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(again.plane.plane_digest(), fresh_digest);
  }
}

TEST(PlaneCache, StoreRemovesRetiredVersionEntriesOnly) {
  // No version of this binary reads another payload version's entry, so
  // a store deletes those (about 90 MiB each at paper scale) and nothing
  // else: current-version entries of other digests and every file whose
  // name is not exactly an entry name stay.
  Fixture fx;
  ScratchDir dir("spoofscope_plane_cache_retire");
  PlaneCache cache(dir.str());
  fs::create_directories(dir.str());
  const std::string current = cache.entry_path(0x0123456789abcdefull);
  const std::string stem = current.substr(0, current.rfind("-v"));
  const std::vector<std::string> retired = {stem + "-v1.snap",
                                            stem + "-v12.snap"};
  ASSERT_EQ(std::count(retired.begin(), retired.end(), current), 0);
  const std::vector<std::string> kept = {
      current,
      dir.str() + "/notes.txt",
      stem + "-v1.snap.tmp",
      stem + "-v.snap",
      stem + "-vx1.snap",
      dir.str() + "/plane-0123-v1.snap",
      dir.str() + "/plane-0123456789ABCDEF-v1.snap",
  };
  for (const std::string& path : kept) std::ofstream(path) << "keep";
  for (const std::string& path : retired) std::ofstream(path) << "retired";

  auto miss = cache.load_or_compile(*fx.classifier, nullptr);
  EXPECT_FALSE(miss.hit);
  ASSERT_TRUE(miss.stored);
  for (const std::string& path : retired) EXPECT_FALSE(fs::exists(path)) << path;
  for (const std::string& path : kept) EXPECT_TRUE(fs::exists(path)) << path;
  EXPECT_TRUE(cache.load_or_compile(*fx.classifier, nullptr).hit);
}

TEST(PlaneCache, DigestIsStableAcrossEquivalentRebuilds) {
  // Two independently built but identical sources must key to the same
  // entry — the digest is a function of the inputs, not object identity.
  Fixture a, b;
  EXPECT_EQ(classifier_digest(*a.classifier), classifier_digest(*b.classifier));
}

}  // namespace
}  // namespace spoofscope::state
