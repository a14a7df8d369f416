// Robustness sweeps for every text/binary parser in the library: random
// garbage, truncations and mutations must either parse or throw — never
// crash, hang or silently corrupt. Parameterized over seeds.
//
// The MRT-lite, AS path and dotted-quad parsers tokenize in place; the
// ParserDifferential cases pin them against the util::split-based
// parsers they replaced (kept below as the reference): equal results,
// identical error texts, the same lines and IngestStats from read_mrt.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/mrt_lite.hpp"
#include "data/rpsl.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "net/trace.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace spoofscope {
namespace {

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t n = rng.index(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform_u32(0, 255)));
  }
  return s;
}

/// Printable garbage biased towards parser-relevant characters.
std::string random_texty(util::Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] =
      "0123456789abcdefASMNT.:|/ \t%#-\nroute origin import export TABLE_DUMP "
      "UPDATE W A";
  std::string s;
  const std::size_t n = rng.index(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(kAlphabet[rng.index(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

TEST_P(ParserFuzzTest, Ipv4AndPrefixParseNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const auto s = random_texty(rng, 24);
    (void)net::Ipv4Addr::parse(s);
    (void)net::Prefix::parse(s);
  }
}

TEST_P(ParserFuzzTest, Ipv4ParseFormatsRoundTrip) {
  util::Rng rng(GetParam() ^ 0x11);
  for (int i = 0; i < 3000; ++i) {
    const net::Ipv4Addr a(rng.next_u32());
    const auto parsed = net::Ipv4Addr::parse(a.str());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, a);
  }
}

TEST_P(ParserFuzzTest, MrtLineParseThrowsOrSucceeds) {
  util::Rng rng(GetParam() ^ 0x22);
  for (int i = 0; i < 2000; ++i) {
    const auto line = random_texty(rng, 80);
    try {
      const auto rec = bgp::parse_mrt_line(line);
      // Whatever parsed must serialize back to something parseable.
      std::visit(
          [](const auto& r) { (void)bgp::parse_mrt_line(bgp::to_mrt_line(r)); },
          rec);
    } catch (const std::runtime_error&) {
      // expected for garbage
    }
  }
}

TEST_P(ParserFuzzTest, MrtValidLineMutationsHandled) {
  util::Rng rng(GetParam() ^ 0x33);
  const std::string valid = "TABLE_DUMP|123|3356|10.0.0.0/16|3356 1299 64500";
  for (int i = 0; i < 2000; ++i) {
    std::string line = valid;
    const std::size_t edits = 1 + rng.index(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.index(line.size());
      switch (rng.index(3)) {
        case 0: line[pos] = static_cast<char>(rng.uniform_u32(32, 126)); break;
        case 1: line.erase(pos, 1); break;
        default: line.insert(pos, 1, static_cast<char>(rng.uniform_u32(32, 126)));
      }
      if (line.empty()) line = "|";
    }
    try {
      (void)bgp::parse_mrt_line(line);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(ParserFuzzTest, RpslStreamNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x44);
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_texty(rng, 400));
    try {
      (void)data::parse_rpsl(ss);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(ParserFuzzTest, TraceReaderRejectsGarbage) {
  util::Rng rng(GetParam() ^ 0x55);
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_bytes(rng, 300));
    try {
      (void)net::read_trace(ss);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(ParserFuzzTest, TraceTruncationAlwaysThrows) {
  util::Rng rng(GetParam() ^ 0x66);
  net::Trace t;
  for (int i = 0; i < 5; ++i) {
    net::FlowRecord f;
    f.src = net::Ipv4Addr(rng.next_u32());
    f.packets = 1;
    f.bytes = 40;
    f.member_in = 1;
    f.member_out = 2;
    t.flows.push_back(f);
  }
  std::stringstream ss;
  net::write_trace(ss, t);
  const std::string full = ss.str();
  for (int i = 0; i < 100; ++i) {
    // Any strict prefix that cuts into the record stream must throw.
    const std::size_t cut = rng.index(full.size());
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW((void)net::read_trace(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST_P(ParserFuzzTest, MrtSkipModeNeverThrowsAndCountsConsistently) {
  util::Rng rng(GetParam() ^ 0x99);
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_texty(rng, 400));
    util::IngestStats stats;
    const auto out = bgp::read_mrt(ss, util::ErrorPolicy::kSkip, &stats);
    // Skip mode must never throw, and must never claim more surviving
    // records than it returned.
    EXPECT_EQ(stats.records_ok, out.size());
  }
}

TEST_P(ParserFuzzTest, RpslSkipModeNeverThrowsAndCountsConsistently) {
  util::Rng rng(GetParam() ^ 0xaa);
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_texty(rng, 400));
    util::IngestStats stats;
    const auto db = data::parse_rpsl(ss, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(stats.records_ok, db.routes.size() + db.aut_nums.size());
  }
}

TEST_P(ParserFuzzTest, TraceSkipModeNeverThrowsOnGarbage) {
  util::Rng rng(GetParam() ^ 0xbb);
  for (int i = 0; i < 300; ++i) {
    std::stringstream ss(random_bytes(rng, 300));
    util::IngestStats stats;
    const auto t = net::read_trace(ss, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(stats.records_ok, t.flows.size());
  }
}

TEST_P(ParserFuzzTest, TraceSkipModeSurvivorsAreGenuineUnderMutation) {
  // Arbitrary byte mutations of a valid trace: skip mode must terminate,
  // never throw, and every surviving record must be one of the original
  // records (checksums make inventing a record as hard as forging one).
  util::Rng rng(GetParam() ^ 0xcc);
  net::Trace t;
  t.meta.seed = GetParam();
  for (int i = 0; i < 50; ++i) {
    net::FlowRecord f;
    f.ts = static_cast<std::uint32_t>(i);
    f.src = net::Ipv4Addr(rng.next_u32());
    f.packets = 1 + rng.uniform_u32(0, 9);
    f.bytes = 40ull * f.packets;
    f.member_in = 1 + static_cast<net::Asn>(rng.index(5));
    f.member_out = 2;
    t.flows.push_back(f);
  }
  std::stringstream ss;
  net::write_trace(ss, t);
  const std::string full = ss.str();

  for (int i = 0; i < 200; ++i) {
    std::string bad = full;
    const std::size_t edits = 1 + rng.index(8);
    for (std::size_t e = 0; e < edits; ++e) {
      bad[rng.index(bad.size())] =
          static_cast<char>(rng.uniform_u32(0, 255));
    }
    std::stringstream in(bad);
    util::IngestStats stats;
    const auto got = net::read_trace(in, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(stats.records_ok, got.flows.size());
    EXPECT_LE(got.flows.size(), t.flows.size());
    for (const auto& f : got.flows) {
      EXPECT_NE(std::find(t.flows.begin(), t.flows.end(), f), t.flows.end());
    }
  }
}

TEST_P(ParserFuzzTest, TraceSkipModeTruncationNeverThrows) {
  // The skip-mode counterpart of TraceTruncationAlwaysThrows: the same
  // cuts must yield a (possibly empty) prefix of the written records.
  util::Rng rng(GetParam() ^ 0x66);  // same sequence as the strict test
  net::Trace t;
  for (int i = 0; i < 5; ++i) {
    net::FlowRecord f;
    f.src = net::Ipv4Addr(rng.next_u32());
    f.packets = 1;
    f.bytes = 40;
    f.member_in = 1;
    f.member_out = 2;
    t.flows.push_back(f);
  }
  std::stringstream ss;
  net::write_trace(ss, t);
  const std::string full = ss.str();
  for (int i = 0; i < 100; ++i) {
    const std::size_t cut = rng.index(full.size());
    std::stringstream truncated(full.substr(0, cut));
    util::IngestStats stats;
    const auto got =
        net::read_trace(truncated, util::ErrorPolicy::kSkip, &stats);
    EXPECT_EQ(stats.records_ok, got.flows.size());
    EXPECT_FALSE(stats.clean()) << "cut at " << cut;
    ASSERT_LE(got.flows.size(), t.flows.size());
    for (std::size_t k = 0; k < got.flows.size(); ++k) {
      EXPECT_EQ(got.flows[k], t.flows[k]);
    }
  }
}

TEST_P(ParserFuzzTest, CsvParseLineNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x77);
  std::vector<std::string> fields;
  for (int i = 0; i < 3000; ++i) {
    (void)util::csv_parse_line(random_texty(rng, 60), fields);
  }
}

TEST_P(ParserFuzzTest, AsPathParseNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x88);
  for (int i = 0; i < 3000; ++i) {
    (void)bgp::AsPath::parse(random_texty(rng, 40));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ------------------------------------------------ split-based reference

/// The parsers as they were before they tokenized in place, kept
/// verbatim apart from the names: util::split vectors for the fields,
/// the dotted quad and the path, and a getline loop in read_mrt.
namespace split_reference {

using bgp::AsPath;
using bgp::Asn;
using bgp::MrtRecord;
using bgp::RibEntry;
using bgp::UpdateMessage;

std::optional<net::Ipv4Addr> parse_ipv4(std::string_view s) {
  const auto parts = util::split(s, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t v = 0;
  for (const auto part : parts) {
    std::uint32_t octet;
    if (!util::parse_u32(part, octet) || octet > 255 || part.size() > 3) {
      return std::nullopt;
    }
    v = (v << 8) | octet;
  }
  return net::Ipv4Addr(v);
}

/// net::Prefix::parse over parse_ipv4.
std::optional<net::Prefix> parse_prefix(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) {
    const auto addr = parse_ipv4(s);
    if (!addr) return std::nullopt;
    return net::Prefix(*addr, 32);
  }
  const auto addr = parse_ipv4(s.substr(0, slash));
  if (!addr) return std::nullopt;
  std::uint32_t len;
  if (!util::parse_u32(s.substr(slash + 1), len) || len > 32) return std::nullopt;
  return net::Prefix(*addr, static_cast<std::uint8_t>(len));
}

std::optional<AsPath> parse_as_path(std::string_view s) {
  s = util::trim(s);
  if (s.empty()) return AsPath();
  std::vector<Asn> hops;
  for (const auto tok : util::split(s, ' ')) {
    if (tok.empty()) continue;  // tolerate double spaces
    std::uint32_t asn;
    if (!util::parse_u32(tok, asn) || asn == net::kNoAsn) return std::nullopt;
    hops.push_back(asn);
  }
  if (hops.empty()) return std::nullopt;
  return AsPath(std::move(hops));
}

[[noreturn]] void fail(std::string_view line, const std::string& why) {
  throw std::runtime_error("MRT-lite parse error: " + why + " in line: " +
                           std::string(line));
}

std::uint32_t parse_ts(std::string_view line, std::string_view tok) {
  std::uint32_t ts;
  if (!util::parse_u32(tok, ts)) fail(line, "bad timestamp");
  return ts;
}

Asn parse_peer(std::string_view line, std::string_view tok) {
  std::uint32_t asn;
  if (!util::parse_u32(tok, asn) || asn == net::kNoAsn) fail(line, "bad peer ASN");
  return asn;
}

net::Prefix parse_prefix(std::string_view line, std::string_view tok) {
  const auto p = parse_prefix(tok);
  if (!p) fail(line, "bad prefix");
  return *p;
}

AsPath parse_path(std::string_view line, std::string_view tok) {
  const auto p = parse_as_path(tok);
  if (!p || p->empty()) fail(line, "bad AS path");
  return *p;
}

MrtRecord parse_mrt_line(std::string_view line) {
  const auto fields = util::split(line, '|');
  if (fields.empty()) fail(line, "empty record");

  if (fields[0] == "TABLE_DUMP") {
    if (fields.size() != 5) fail(line, "TABLE_DUMP needs 5 fields");
    RibEntry e;
    e.timestamp = parse_ts(line, fields[1]);
    e.peer = parse_peer(line, fields[2]);
    e.prefix = parse_prefix(line, fields[3]);
    e.path = parse_path(line, fields[4]);
    return e;
  }

  if (fields[0] == "UPDATE") {
    if (fields.size() < 2) fail(line, "UPDATE needs a kind field");
    UpdateMessage u;
    if (fields[1] == "A") {
      if (fields.size() != 6) fail(line, "UPDATE|A needs 6 fields");
      u.kind = UpdateMessage::Kind::kAnnounce;
      u.timestamp = parse_ts(line, fields[2]);
      u.peer = parse_peer(line, fields[3]);
      u.prefix = parse_prefix(line, fields[4]);
      u.path = parse_path(line, fields[5]);
    } else if (fields[1] == "W") {
      if (fields.size() != 5) fail(line, "UPDATE|W needs 5 fields");
      u.kind = UpdateMessage::Kind::kWithdraw;
      u.timestamp = parse_ts(line, fields[2]);
      u.peer = parse_peer(line, fields[3]);
      u.prefix = parse_prefix(line, fields[4]);
    } else {
      fail(line, "unknown UPDATE kind");
    }
    return u;
  }

  fail(line, "unknown record type");
}

std::vector<MrtRecord> read_mrt(std::istream& in, util::ErrorPolicy policy,
                                util::IngestStats* stats) {
  util::IngestStats local;
  if (!stats) stats = &local;
  std::vector<MrtRecord> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    try {
      out.push_back(parse_mrt_line(trimmed));
      stats->ok();
    } catch (const std::runtime_error& e) {
      if (policy == util::ErrorPolicy::kStrict) {
        throw std::runtime_error(std::string(e.what()) + " (line " +
                                 std::to_string(lineno) + ")");
      }
      stats->skip(util::ErrorKind::kParse, trimmed.size());
    }
  }
  return out;
}

}  // namespace split_reference

// ------------------------------------------------ differential cases

/// A parse outcome that compares equal exactly when both parsers agree:
/// the record, or the error text.
struct LineOutcome {
  std::optional<bgp::MrtRecord> record;
  std::string error;
  friend bool operator==(const LineOutcome&, const LineOutcome&) = default;
};

template <typename Parse>
LineOutcome outcome(Parse&& parse, std::string_view line) {
  LineOutcome o;
  try {
    o.record = parse(line);
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

void expect_same_line(std::string_view line) {
  const LineOutcome want =
      outcome([](std::string_view l) { return split_reference::parse_mrt_line(l); },
              line);
  const LineOutcome got =
      outcome([](std::string_view l) { return bgp::parse_mrt_line(l); }, line);
  EXPECT_TRUE(got == want) << "line: " << line << "\n  reference error: "
                           << want.error << "\n  error: " << got.error;
}

/// Applies 1-4 random single-character edits (overwrite, erase, insert)
/// drawn from `alphabet`, as MrtValidLineMutationsHandled does.
std::string mutate(util::Rng& rng, std::string line, std::string_view alphabet) {
  const std::size_t edits = 1 + rng.index(4);
  for (std::size_t e = 0; e < edits; ++e) {
    if (line.empty()) line = "|";
    const std::size_t pos = rng.index(line.size());
    const char c = alphabet[rng.index(alphabet.size())];
    switch (rng.index(3)) {
      case 0: line[pos] = c; break;
      case 1: line.erase(pos, 1); break;
      default: line.insert(pos, 1, c);
    }
  }
  return line;
}

/// Printable ASCII plus the bytes a damaged feed carries (NUL, tab,
/// CR, high bytes) and extra weight on the separators.
std::string mutation_alphabet() {
  std::string a;
  for (int c = 32; c <= 126; ++c) a.push_back(static_cast<char>(c));
  a += std::string("\0\t\r\x80\xff", 5);
  a += "||||....    //0000";
  return a;
}

const std::vector<std::string>& valid_lines() {
  static const std::vector<std::string> lines = {
      "TABLE_DUMP|123|3356|10.0.0.0/16|3356 1299 64500",
      "TABLE_DUMP|0|4294967295|255.255.255.255/32|4294967295",
      "TABLE_DUMP|4294967295|1|0.0.0.0/0|1 2 3 4 5 6 7 8 9 10",
      "UPDATE|A|99|100|192.0.2.0/24|100 200",
      "UPDATE|A|1|7|010.001.000.000/8|7  8   9",
      "UPDATE|W|50|7|198.51.0.0/16",
      "UPDATE|W|0|1|1.2.3.4",
  };
  return lines;
}

class ParserDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserDifferential, Ipv4MatchesSplitReference) {
  util::Rng rng(GetParam() ^ 0xd1);
  const std::string alphabet = mutation_alphabet();
  for (int i = 0; i < 3000; ++i) {
    const std::string s =
        i % 2 == 0 ? random_texty(rng, 24)
                   : mutate(rng, net::Ipv4Addr(rng.next_u32()).str(), alphabet);
    EXPECT_EQ(net::Ipv4Addr::parse(s), split_reference::parse_ipv4(s)) << s;
    EXPECT_EQ(net::Prefix::parse(s), split_reference::parse_prefix(s)) << s;
  }
  for (const char* s : {"", ".", "...", "1.2.3", "1.2.3.4.", ".1.2.3", "1..2.3",
                        "1.2.3.4.5", "256.0.0.0", "0.0.0.255", "0000.0.0.0",
                        "000.000.000.000", "1.2.3.4 ", " 1.2.3.4", "1.2.3.-4",
                        "1.2.3.4/", "1.2.3.4/33", "1.2.3.4/0032", "99999999999.1.1.1"}) {
    EXPECT_EQ(net::Ipv4Addr::parse(s), split_reference::parse_ipv4(s)) << s;
    EXPECT_EQ(net::Prefix::parse(s), split_reference::parse_prefix(s)) << s;
  }
}

TEST_P(ParserDifferential, AsPathMatchesSplitReference) {
  util::Rng rng(GetParam() ^ 0xd2);
  const std::string alphabet = mutation_alphabet();
  for (int i = 0; i < 3000; ++i) {
    const std::string s = i % 2 == 0 ? random_texty(rng, 40)
                                     : mutate(rng, "3356 1299  64500 7", alphabet);
    EXPECT_EQ(bgp::AsPath::parse(s), split_reference::parse_as_path(s)) << s;
  }
  for (const char* s : {"", " ", "  ", "\t", "0", "1 0", "1  2", " 1 2 ", "1\t2",
                        "4294967295", "4294967296", "1 2 3\r", "12a"}) {
    EXPECT_EQ(bgp::AsPath::parse(s), split_reference::parse_as_path(s)) << s;
  }
}

TEST_P(ParserDifferential, MrtLineMatchesSplitReference) {
  util::Rng rng(GetParam() ^ 0xd3);
  const std::string alphabet = mutation_alphabet();
  for (int i = 0; i < 2000; ++i) {
    expect_same_line(random_texty(rng, 80));
    const auto& valid = valid_lines();
    expect_same_line(mutate(rng, valid[rng.index(valid.size())], alphabet));
  }
  for (const char* s :
       {"", "|", "||||||", "TABLE_DUMP", "UPDATE", "UPDATE|", "UPDATE|A",
        "UPDATE|X|1|2|10.0.0.0/16", "TABLE_DUMP|1|2|10.0.0.0/16|1 2|",
        "TABLE_DUMP|1|2|10.0.0.0/16|1 2|3|4", "UPDATE|A|1|2|10.0.0.0/16|1|2",
        "UPDATE|W|1|2|10.0.0.0/16||||", "TABLE_DUMP|1|0|10.0.0.0/16|1",
        "TABLE_DUMP|1|2|10.0.0.0/16|   "}) {
    expect_same_line(s);
  }
}

/// One random MRT-lite text: valid, mutated and garbage lines, comments,
/// blank and whitespace-only lines, CRLF and bare LF endings, and an
/// optional missing final newline.
std::string random_mrt_text(util::Rng& rng, std::size_t lines) {
  const std::string alphabet = mutation_alphabet();
  const auto& valid = valid_lines();
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) {
    switch (rng.index(10)) {
      case 0: text += "# comment | with bars"; break;
      case 1: break;  // blank
      case 2: text += " \t "; break;
      case 3: text += mutate(rng, valid[rng.index(valid.size())], alphabet); break;
      case 4: text += random_texty(rng, 60); break;
      case 5: text += "\t" + valid[rng.index(valid.size())] + "  "; break;
      default: text += valid[rng.index(valid.size())];
    }
    text += rng.chance(0.3) ? "\r\n" : "\n";
  }
  if (rng.chance(0.5) && !text.empty()) text.pop_back();
  return text;
}

/// read_mrt against the getline reference on one text: equal records and
/// IngestStats under kSkip, the same records or the same "(line N)"
/// error under kStrict.
void expect_same_read(const std::string& text) {
  {
    std::istringstream a(text), b(text);
    util::IngestStats got_stats, want_stats;
    const auto got = bgp::read_mrt(a, util::ErrorPolicy::kSkip, &got_stats);
    const auto want =
        split_reference::read_mrt(b, util::ErrorPolicy::kSkip, &want_stats);
    EXPECT_TRUE(got == want) << "skip-mode records differ";
    EXPECT_EQ(got_stats, want_stats);
  }
  std::istringstream a(text), b(text);
  const auto strict = [](auto&& read, std::istringstream& in) {
    std::vector<bgp::MrtRecord> records;
    std::string error;
    try {
      records = read(in);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    return std::make_pair(std::move(records), error);
  };
  const auto got = strict(
      [](std::istream& in) { return bgp::read_mrt(in); }, a);
  const auto want = strict(
      [](std::istream& in) {
        return split_reference::read_mrt(in, util::ErrorPolicy::kStrict, nullptr);
      },
      b);
  EXPECT_EQ(got.second, want.second);
  EXPECT_TRUE(got.first == want.first) << "strict-mode records differ";
}

TEST_P(ParserDifferential, ReadMrtMatchesGetlineReference) {
  util::Rng rng(GetParam() ^ 0xd4);
  for (int i = 0; i < 200; ++i) {
    expect_same_read(random_mrt_text(rng, 1 + rng.index(40)));
  }
}

TEST(ParserDifferentialCases, ReadMrtEdgeTexts) {
  const std::string valid = "TABLE_DUMP|1|2|10.0.0.0/16|2 3";
  const std::vector<std::string> texts = {
           std::string(),
           std::string("\n"),
           std::string("\n\n\n"),
           valid,
           valid + "\n",
           valid + "\r\n" + valid + "\r\n",
           valid + "\r\n# tail comment",
           "\t" + valid + "\t\n   \n#x\n" + valid,
           std::string("TABLE_DUMP|1|2|10.0.\0.0/16|2 3\n", 31) + valid,
           valid + "\n" + std::string("TABLE_DUMP|1|2\0|10.0.0.0/16|2 3", 31),
           valid + "|x\n" + valid + "|x|y|z|w\n" + valid,
           "UPDATE|A|1|2|10.0.0.0/16|1|2|3\n" + valid,
           "TABLE_DUMP|1|2|10.0.0.0/16|2  3   4\n" + valid + "\n",
           "TABLE_DUMP|1|2|10.0.0.0/16| 2 3 \n",
           "BROKEN\n" + valid,
           valid + "\nBROKEN",
           std::string("\r"),
           std::string("\r\n\r\n"),
  };
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    expect_same_read(text);
  }
}

TEST(ParserDifferentialCases, ReadMrtLinesAcrossReadBlocks) {
  // Texts well past one 64 KiB read block, so lines straddle block
  // boundaries at every offset mod the line length, plus one path line
  // longer than a whole block and damage placed near the boundaries.
  util::Rng rng(0x5eed);
  std::string text;
  while (text.size() < (std::size_t{3} << 16)) {
    text += "TABLE_DUMP|" + std::to_string(rng.next_u32()) + "|" +
            std::to_string(1 + rng.index(70000)) + "|" +
            net::Ipv4Addr(rng.next_u32()).str() + "/" +
            std::to_string(8 + rng.index(17)) + "|" +
            std::to_string(1 + rng.index(70000)) + " 1299\n";
  }
  std::string long_path = "TABLE_DUMP|1|2|10.0.0.0/16|";
  for (int i = 0; i < 20000; ++i) long_path += std::to_string(1 + i) + " ";
  long_path += "64500";
  expect_same_read(text);
  expect_same_read(text + long_path);
  expect_same_read(text + long_path + "\n" + text);
  for (const std::size_t at : {std::size_t{65535}, std::size_t{65536},
                               std::size_t{65537}, std::size_t{131071}}) {
    std::string damaged = text + long_path + "\n" + text;
    damaged[at] = '#';
    expect_same_read(damaged);
    damaged[at + 70000] = '\0';
    expect_same_read(damaged);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserDifferential,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace spoofscope
