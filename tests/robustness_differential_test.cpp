// Differential robustness suite: corrupt an artifact with a seeded
// injector, ingest it under ErrorPolicy::kSkip, and prove the result is
// exactly the clean-run result restricted to the surviving records —
// labels (from the trie oracle and the compiled plane), aggregates and
// streaming alerts, across thread counts. Strict-mode reads of the same
// corrupted bytes must still throw.
//
// The reference side of each comparison is derived independently of the
// skip-mode code path: binary-trace survivors are matched as a
// subsequence of the clean flows by record equality, and text-format
// survivors are re-derived with the strict single-record parsers.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/mrt_lite.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
#include "corruption.hpp"
#include "data/rpsl.hpp"
#include "net/flow_batch.hpp"
#include "net/trace.hpp"
#include "scenario/scenario.hpp"
#include "util/error_policy.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope {
namespace {

// Trace format v2 framing (see net/trace.cpp): 32-byte header body +
// 4-byte checksum, then 36-byte record payloads + 4-byte checksums.
constexpr std::size_t kHeaderSize = 36;
constexpr std::size_t kRecordSize = 40;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};

enum class Kind { kTruncate, kBitFlip, kRecordDrop, kSplice };
constexpr Kind kKinds[] = {Kind::kTruncate, Kind::kBitFlip, Kind::kRecordDrop,
                           Kind::kSplice};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTruncate:
      return "truncate";
    case Kind::kBitFlip:
      return "bit-flip";
    case Kind::kRecordDrop:
      return "record-drop";
    case Kind::kSplice:
      return "garbage-splice";
  }
  return "?";
}

/// Damage is confined to the record region (offset >= kHeaderSize): the
/// strict-throw guarantee is about record integrity, and a damaged header
/// legitimately yields zero survivors (covered separately).
std::string corrupt(const std::string& bytes, Kind k, util::Rng& rng) {
  switch (k) {
    case Kind::kTruncate:
      return testing::truncate_bytes(bytes, rng, kHeaderSize);
    case Kind::kBitFlip:
      return testing::flip_bits(bytes, rng, 3, kHeaderSize);
    case Kind::kRecordDrop:
      return testing::drop_fixed_record(bytes, rng, kHeaderSize, kRecordSize);
    case Kind::kSplice:
      return testing::splice_garbage(bytes, rng, kHeaderSize, 64);
  }
  return bytes;
}

/// Greedy left-to-right match of `survivors` as a subsequence of `clean`;
/// returns the matched clean indices, or nullopt if any survivor cannot
/// be matched in order (i.e. skip mode invented or reordered a record).
std::optional<std::vector<std::size_t>> match_subsequence(
    const std::vector<net::FlowRecord>& clean,
    const std::vector<net::FlowRecord>& survivors) {
  std::vector<std::size_t> idx;
  idx.reserve(survivors.size());
  std::size_t j = 0;
  for (const auto& s : survivors) {
    while (j < clean.size() && !(clean[j] == s)) ++j;
    if (j == clean.size()) return std::nullopt;
    idx.push_back(j++);
  }
  return idx;
}

void expect_aggregate_eq(const classify::Aggregate& a,
                         const classify::Aggregate& b) {
  EXPECT_EQ(a.total_flows, b.total_flows);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.totals.size(), b.totals.size());
  for (std::size_t s = 0; s < a.totals.size(); ++s) {
    for (int c = 0; c < classify::kNumClasses; ++c) {
      EXPECT_EQ(a.totals[s][c].flows, b.totals[s][c].flows) << s << "/" << c;
      EXPECT_EQ(a.totals[s][c].packets, b.totals[s][c].packets);
      EXPECT_EQ(a.totals[s][c].bytes, b.totals[s][c].bytes);
      EXPECT_EQ(a.totals[s][c].members, b.totals[s][c].members);
    }
  }
}

/// One small scenario shared by every case: the build dominates suite
/// runtime. The trace is capped so per-case classification stays cheap.
struct SharedWorld {
  SharedWorld() {
    auto params = scenario::ScenarioParams::small();
    params.seed = 7;
    world = scenario::build_scenario(params);
    trace.meta = world->trace().meta;
    const auto& flows = world->trace().flows;
    trace.flows.assign(flows.begin(),
                       flows.begin() +
                           std::min<std::size_t>(flows.size(), 8000));
    std::ostringstream os;
    net::write_trace(os, trace);
    bytes = os.str();
    flat = std::make_unique<classify::FlatClassifier>(
        classify::FlatClassifier::compile(world->classifier()));
    clean_labels = classify::classify_trace(world->classifier(), trace.flows);
  }

  std::unique_ptr<scenario::Scenario> world;
  net::Trace trace;
  std::string bytes;
  std::unique_ptr<classify::FlatClassifier> flat;
  std::vector<classify::Label> clean_labels;
};

SharedWorld& shared() {
  static SharedWorld* w = new SharedWorld();
  return *w;
}

TEST(RobustnessDifferential, TraceBytesRoundTripCleanly) {
  auto& w = shared();
  ASSERT_EQ(w.bytes.size(), kHeaderSize + kRecordSize * w.trace.flows.size());
  std::istringstream in(w.bytes);
  util::IngestStats stats;
  const auto got = net::read_trace(in, util::ErrorPolicy::kSkip, &stats);
  EXPECT_EQ(got.flows, w.trace.flows);
  EXPECT_TRUE(stats.clean()) << stats.summary();
}

TEST(RobustnessDifferential, StrictModeThrowsOnEveryCorruptionKind) {
  auto& w = shared();
  for (const std::uint64_t seed : kSeeds) {
    for (const Kind kind : kKinds) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed);
      const std::string bad = corrupt(w.bytes, kind, rng);
      std::istringstream in(bad);
      EXPECT_THROW(net::read_trace(in), std::runtime_error);
    }
  }
}

TEST(RobustnessDifferential, SkipModeLabelsMatchCleanRestriction) {
  auto& w = shared();
  util::ThreadPool pool(0);  // hardware lanes: exercises the parallel path
  const std::size_t spaces = w.world->classifier().space_count();
  for (const std::uint64_t seed : kSeeds) {
    for (const Kind kind : kKinds) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed);
      const std::string bad = corrupt(w.bytes, kind, rng);

      util::IngestStats stats;
      std::istringstream in(bad);
      const auto got = net::read_trace(in, util::ErrorPolicy::kSkip, &stats);
      EXPECT_EQ(stats.records_ok, got.flows.size());
      EXPECT_FALSE(stats.clean());
      EXPECT_LT(got.flows.size(), w.trace.flows.size() + 1);

      // Survivors must be an exact in-order subset of the clean records:
      // checksums guarantee skip mode never invents or mangles a flow.
      const auto idx = match_subsequence(w.trace.flows, got.flows);
      ASSERT_TRUE(idx.has_value());

      std::vector<classify::Label> expected;
      expected.reserve(idx->size());
      for (const std::size_t i : *idx) expected.push_back(w.clean_labels[i]);

      // Fresh classification of the survivors by the oracle and the
      // plane, sequential and parallel, must equal the clean labels
      // restricted to them.
      const auto trie_seq =
          classify::classify_trace(w.world->classifier(), got.flows);
      const auto trie_par =
          classify::classify_trace(w.world->classifier(), got.flows, pool);
      const auto flat_seq = classify::classify_trace(*w.flat, got.flows);
      net::FlowBatch batch;
      for (const auto& f : got.flows) batch.push_back(f);
      std::vector<classify::Label> flat_par(batch.size());
      w.flat->classify_batch(batch, flat_par, pool);
      EXPECT_EQ(trie_seq, expected);
      EXPECT_EQ(trie_par, expected);
      EXPECT_EQ(flat_seq, expected);
      EXPECT_EQ(flat_par, expected);

      // Aggregates over the survivors equal the aggregate of the
      // restricted clean run.
      std::vector<net::FlowRecord> restricted;
      restricted.reserve(idx->size());
      for (const std::size_t i : *idx) restricted.push_back(w.trace.flows[i]);
      const auto agg_survivors =
          classify::aggregate_classes(spaces, got.flows, trie_seq);
      const auto agg_clean =
          classify::aggregate_classes(spaces, restricted, expected);
      expect_aggregate_eq(agg_survivors, agg_clean);
    }
  }
}

TEST(RobustnessDifferential, SkipModeAlertsMatchCleanRestriction) {
  auto& w = shared();
  const std::size_t space =
      scenario::Scenario::space_index(inference::Method::kFullConeOrg);
  classify::StreamingParams sp;
  sp.min_spoofed_packets = 30;
  sp.min_share = 0.02;
  for (const std::uint64_t seed : kSeeds) {
    for (const Kind kind : kKinds) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed);
      const std::string bad = corrupt(w.bytes, kind, rng);
      util::IngestStats stats;
      std::istringstream in(bad);
      const auto got = net::read_trace(in, util::ErrorPolicy::kSkip, &stats);
      const auto idx = match_subsequence(w.trace.flows, got.flows);
      ASSERT_TRUE(idx.has_value());
      std::vector<net::FlowRecord> restricted;
      for (const std::size_t i : *idx) restricted.push_back(w.trace.flows[i]);
      ASSERT_EQ(restricted, got.flows);

      // The class is the detector's only classifier-dependent input: the
      // plane's labels for the survivors must equal the trie oracle's
      // clean labels restricted to them...
      std::vector<classify::Label> expected;
      for (const std::size_t i : *idx) expected.push_back(w.clean_labels[i]);
      EXPECT_EQ(classify::classify_trace(*w.flat, got.flows), expected);
      // ...and then the clean restriction and the survivors raise
      // identical alert streams.
      classify::StreamingDetector clean(*w.flat, space, sp);
      classify::StreamingDetector survivors(*w.flat, space, sp);
      EXPECT_EQ(clean.run(restricted), survivors.run(got.flows));
    }
  }
}

TEST(RobustnessDifferential, DuplicatedRecordSurvivesBothCopiesInSkipMode) {
  // Record duplication is deliberately outside the subsequence
  // differential: both copies carry valid checksums, so skip mode keeps
  // both (flagging the count mismatch), and strict mode — which trusts
  // the declared count and ignores trailing bytes — returns the first
  // `declared` records without throwing.
  auto& w = shared();
  const std::size_t n = w.trace.flows.size();
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const std::string bad =
        testing::duplicate_fixed_record(w.bytes, rng, kHeaderSize, kRecordSize);
    util::Rng replay(seed);
    const std::size_t dup = replay.index(n);

    std::vector<net::FlowRecord> expected = w.trace.flows;
    expected.insert(expected.begin() + static_cast<std::ptrdiff_t>(dup),
                    w.trace.flows[dup]);

    util::IngestStats stats;
    std::istringstream in(bad);
    const auto got = net::read_trace(in, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(got.flows, expected);
    EXPECT_EQ(stats.records_ok, n + 1);
    EXPECT_EQ(stats.errors[static_cast<int>(util::ErrorKind::kCountMismatch)],
              1u);

    std::istringstream in2(bad);
    const auto strict = net::read_trace(in2);
    EXPECT_EQ(strict.flows.size(), n);
    EXPECT_EQ(strict.flows,
              std::vector<net::FlowRecord>(expected.begin(),
                                           expected.end() - 1));
  }
}

// ---------------------------------------------------------------- MRT

/// Deterministic MRT-lite text with interleaved comments and blanks.
std::string make_mrt_text(util::Rng& rng, std::size_t n) {
  std::ostringstream os;
  os << "# synthetic MRT-lite dump\n";
  for (std::size_t i = 0; i < n; ++i) {
    const net::Asn peer = 64500 + static_cast<net::Asn>(rng.index(200));
    const net::Asn origin = 64500 + static_cast<net::Asn>(rng.index(200));
    const net::Prefix prefix(
        net::Ipv4Addr::from_octets(
            static_cast<std::uint8_t>(10 + rng.index(200)),
            static_cast<std::uint8_t>(rng.index(256)), 0, 0),
        static_cast<std::uint8_t>(16 + rng.index(9)));
    const bgp::AsPath path{peer, 64500 + static_cast<net::Asn>(rng.index(200)),
                           origin};
    const auto ts = rng.uniform_u32(0, 1000000);
    if (rng.index(4) == 0) {
      bgp::UpdateMessage u;
      u.kind = rng.chance(0.5) ? bgp::UpdateMessage::Kind::kAnnounce
                               : bgp::UpdateMessage::Kind::kWithdraw;
      u.timestamp = ts;
      u.peer = peer;
      u.prefix = prefix;
      if (u.kind == bgp::UpdateMessage::Kind::kAnnounce) u.path = path;
      os << bgp::to_mrt_line(u) << '\n';
    } else {
      bgp::RibEntry e;
      e.timestamp = ts;
      e.peer = peer;
      e.prefix = prefix;
      e.path = path;
      os << bgp::to_mrt_line(e) << '\n';
    }
    if (rng.chance(0.05)) os << "\n";
    if (rng.chance(0.05)) os << "# comment " << i << "\n";
  }
  return os.str();
}

/// Independent reference for skip-mode MRT ingest: the grammar is
/// line-local, so the surviving records are exactly the lines the strict
/// single-line parser accepts.
std::vector<bgp::MrtRecord> mrt_reference(const std::string& text) {
  std::vector<bgp::MrtRecord> out;
  for (const auto& line : testing::split_lines(text)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    try {
      out.push_back(bgp::parse_mrt_line(trimmed));
    } catch (const std::runtime_error&) {
    }
  }
  return out;
}

TEST(RobustnessDifferential, MrtSkipModeMatchesPerLineStrictFilter) {
  using Corruptor = std::string (*)(const std::string&, util::Rng&);
  const std::pair<const char*, Corruptor> corruptors[] = {
      {"drop-line",
       [](const std::string& t, util::Rng& r) { return testing::drop_line(t, r); }},
      {"duplicate-line",
       [](const std::string& t, util::Rng& r) {
         return testing::duplicate_line(t, r);
       }},
      {"mutate-line",
       [](const std::string& t, util::Rng& r) {
         return testing::mutate_line(t, r, 4);
       }},
      {"truncate",
       [](const std::string& t, util::Rng& r) {
         return testing::truncate_text(t, r);
       }},
      {"splice-line",
       [](const std::string& t, util::Rng& r) {
         return testing::splice_garbage_line(t, r);
       }},
  };
  for (const std::uint64_t seed : kSeeds) {
    util::Rng gen(seed * 977);
    const std::string text = make_mrt_text(gen, 300);
    for (const auto& [name, fn] : corruptors) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      util::Rng rng(seed);
      // A few independent rounds per corruptor compound the damage.
      std::string bad = text;
      for (int round = 0; round < 3; ++round) bad = fn(bad, rng);

      util::IngestStats stats;
      std::istringstream in(bad);
      const auto got = bgp::read_mrt(in, util::ErrorPolicy::kSkip, &stats);
      EXPECT_EQ(stats.records_ok, got.size());
      EXPECT_EQ(got, mrt_reference(bad));
    }
  }
}

// ---------------------------------------------------------------- RPSL

TEST(RobustnessDifferential, RpslObjectGranularCorruptions) {
  // Object-granular structural damage to the registry dump: survivors
  // are computable exactly from the clean database without replaying the
  // skip logic. (Line-level mutation semantics are covered by the
  // targeted cases below.)
  auto& w = shared();
  const std::string text = data::registry_to_rpsl(w.world->whois());
  std::istringstream clean_in(text);
  const auto clean = data::parse_rpsl(clean_in);
  const std::size_t clean_count = clean.routes.size() + clean.aut_nums.size();
  ASSERT_GT(clean_count, 10u);

  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);

    // Garbage spliced between objects: the damaged region quarantines
    // itself and every real object survives.
    {
      std::string bad = text;
      for (int i = 0; i < 3; ++i) {
        // Insert a fake "object" of garbage lines followed by a blank.
        auto lines = testing::split_lines(bad);
        const std::size_t at = rng.index(lines.size() + 1);
        std::string garbage;
        for (std::size_t c = 0; c < 12; ++c) {
          garbage.push_back(
              static_cast<char>(rng.uniform_u32('a', 'z')));
        }
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     {"import: not-an-as", garbage});
        bad = testing::join_lines(lines);
      }
      util::IngestStats stats;
      std::istringstream in(bad);
      const auto got = data::parse_rpsl(in, util::ErrorPolicy::kSkip, &stats);
      EXPECT_EQ(stats.records_ok, got.routes.size() + got.aut_nums.size());
      // Splices may land inside an object and poison it, but never more
      // than one object each; all other records are untouched.
      EXPECT_GE(got.routes.size() + got.aut_nums.size(), clean_count - 3);
      for (const auto& r : got.routes) {
        EXPECT_NE(std::find(clean.routes.begin(), clean.routes.end(), r),
                  clean.routes.end());
      }
      for (const auto& a : got.aut_nums) {
        EXPECT_NE(std::find(clean.aut_nums.begin(), clean.aut_nums.end(), a),
                  clean.aut_nums.end());
      }
    }

    // Truncation: every object that ends before the cut survives
    // unchanged; the cut object parses to whatever its surviving prefix
    // means under the strict parser (an independent single-object check).
    {
      const std::string bad = testing::truncate_text(text, rng);
      util::IngestStats stats;
      std::istringstream in(bad);
      const auto got = data::parse_rpsl(in, util::ErrorPolicy::kSkip, &stats);
      EXPECT_EQ(stats.records_ok, got.routes.size() + got.aut_nums.size());

      // Reference: strict-parse the truncated text, retrying with the
      // last (possibly damaged) object removed if it fails.
      auto lines = testing::split_lines(bad);
      for (;;) {
        std::istringstream ref_in(testing::join_lines(lines));
        try {
          const auto ref = data::parse_rpsl(ref_in);
          EXPECT_EQ(got.routes, ref.routes);
          EXPECT_EQ(got.aut_nums, ref.aut_nums);
          break;
        } catch (const std::runtime_error&) {
          // Drop trailing lines back to the previous blank separator and
          // strict-parse again: skip mode must have dropped exactly that
          // tail object too.
          while (!lines.empty() && !util::trim(lines.back()).empty()) {
            lines.pop_back();
          }
          if (!lines.empty()) lines.pop_back();
          ASSERT_FALSE(lines.empty() && !got.routes.empty());
        }
      }
    }
  }
}

TEST(RobustnessDifferential, RpslTargetedLineDamageSemantics) {
  const std::string text =
      "route:      20.0.50.0/24\n"
      "origin:     AS64500\n"
      "mnt-by:     AS64499-MNT\n"
      "\n"
      "aut-num:    AS64501\n"
      "import:     from AS64502 accept ANY\n"
      "export:     to AS64502 announce ANY\n"
      "\n"
      "route:      20.0.60.0/24\n"
      "origin:     AS64510\n"
      "\n";
  std::istringstream clean_in(text);
  const auto clean = data::parse_rpsl(clean_in);
  ASSERT_EQ(clean.routes.size(), 2u);
  ASSERT_EQ(clean.aut_nums.size(), 1u);

  const auto damage = [&](const std::string& from, const std::string& to) {
    std::string bad = text;
    const auto at = bad.find(from);
    EXPECT_NE(at, std::string::npos);
    bad.replace(at, from.size(), to);
    return bad;
  };

  {
    // Bad origin drops only its own route object.
    const std::string bad = damage("origin:     AS64500", "origin:     ASxx");
    std::istringstream strict_in(bad);
    EXPECT_THROW(data::parse_rpsl(strict_in), std::runtime_error);
    util::IngestStats stats;
    std::istringstream in(bad);
    const auto got = data::parse_rpsl(in, util::ErrorPolicy::kSkip, &stats);
    ASSERT_EQ(got.routes.size(), 1u);
    EXPECT_EQ(got.routes[0], clean.routes[1]);
    EXPECT_EQ(got.aut_nums, clean.aut_nums);
    EXPECT_EQ(stats.records_skipped, 1u);
  }
  {
    // Orphan import (aut-num header destroyed) poisons that object only.
    const std::string bad = damage("aut-num:    AS64501", "aut-nvm:    AS64501");
    std::istringstream strict_in(bad);
    EXPECT_THROW(data::parse_rpsl(strict_in), std::runtime_error);
    util::IngestStats stats;
    std::istringstream in(bad);
    const auto got = data::parse_rpsl(in, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(got.routes, clean.routes);
    EXPECT_TRUE(got.aut_nums.empty());
    EXPECT_EQ(stats.records_skipped, 1u);
  }
  {
    // A duplicated route: header flushes an origin-less fragment (one
    // skip) and the re-stated object still survives.
    const std::string bad =
        damage("route:      20.0.50.0/24\n",
               "route:      20.0.50.0/24\nroute:      20.0.50.0/24\n");
    util::IngestStats stats;
    std::istringstream in(bad);
    const auto got = data::parse_rpsl(in, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(got.routes, clean.routes);
    EXPECT_EQ(got.aut_nums, clean.aut_nums);
    EXPECT_EQ(stats.records_skipped, 1u);
  }
}

}  // namespace
}  // namespace spoofscope
