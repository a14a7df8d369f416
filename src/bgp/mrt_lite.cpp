#include "bgp/mrt_lite.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/strings.hpp"

namespace spoofscope::bgp {

namespace {

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
  const auto p = net::Prefix::parse(tok);
  if (!p) fail(line, "bad prefix");
  return *p;
}

AsPath parse_path(std::string_view line, std::string_view tok) {
  auto p = AsPath::parse(tok);
  if (!p || p->empty()) fail(line, "bad AS path");
  return std::move(*p);
}

/// The most fields any record type takes (UPDATE|A).
constexpr std::size_t kMaxFields = 6;

/// A line's '|'-separated fields, read in place: the first kMaxFields
/// are kept, and `count` stops at kMaxFields + 1 (every longer line
/// fails the same field-count checks).
struct Fields {
  std::array<std::string_view, kMaxFields> f;
  std::size_t count = 0;

  explicit Fields(std::string_view line) {
    std::size_t start = 0;
    while (true) {
      const std::size_t bar = line.find('|', start);
      // substr clamps: at npos the field runs to the end of the line.
      if (count < kMaxFields) f[count] = line.substr(start, bar - start);
      ++count;
      if (bar == std::string_view::npos || count > kMaxFields) return;
      start = bar + 1;
    }
  }

  std::string_view operator[](std::size_t i) const { return f[i]; }
  std::size_t size() const { return count; }
};

/// Bytes per stream read in read_mrt.
constexpr std::size_t kReadBlock = std::size_t{1} << 16;

}  // namespace

std::string to_mrt_line(const RibEntry& e) {
  return "TABLE_DUMP|" + std::to_string(e.timestamp) + "|" +
         std::to_string(e.peer) + "|" + e.prefix.str() + "|" + e.path.str();
}

std::string to_mrt_line(const UpdateMessage& u) {
  std::string out = "UPDATE|";
  out += (u.kind == UpdateMessage::Kind::kAnnounce) ? "A" : "W";
  out += "|" + std::to_string(u.timestamp) + "|" + std::to_string(u.peer) +
         "|" + u.prefix.str();
  if (u.kind == UpdateMessage::Kind::kAnnounce) out += "|" + u.path.str();
  return out;
}

MrtRecord parse_mrt_line(std::string_view line) {
  const Fields fields(line);
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

void write_mrt(std::ostream& out, const std::vector<MrtRecord>& records) {
  for (const auto& r : records) {
    std::visit([&](const auto& rec) { out << to_mrt_line(rec) << '\n'; }, r);
  }
}

std::vector<MrtRecord> read_mrt(std::istream& in) {
  return read_mrt(in, util::ErrorPolicy::kStrict, nullptr);
}

std::vector<MrtRecord> read_mrt(std::istream& in, util::ErrorPolicy policy,
                                util::IngestStats* stats) {
  util::IngestStats local;
  if (!stats) stats = &local;
  std::vector<MrtRecord> out;
  std::size_t lineno = 0;
  const auto parse_line = [&](std::string_view line) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') return;
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
  };
  // The stream is read in blocks and each '\n'-terminated line parsed
  // where it lies; only a line that straddles two blocks is copied
  // (into `carry`). The lines are exactly std::getline's: a final line
  // without a newline counts, an empty tail after the last one does not.
  std::string block(kReadBlock, '\0');
  std::string carry;
  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    std::size_t start = 0;
    while (start < got) {
      const void* nl = std::memchr(block.data() + start, '\n', got - start);
      if (nl == nullptr) break;
      const auto end =
          static_cast<std::size_t>(static_cast<const char*>(nl) - block.data());
      const std::string_view line(block.data() + start, end - start);
      if (carry.empty()) {
        parse_line(line);
      } else {
        carry.append(line);
        parse_line(carry);
        carry.clear();
      }
      start = end + 1;
    }
    carry.append(block.data() + start, got - start);
  }
  if (!carry.empty()) parse_line(carry);
  return out;
}

}  // namespace spoofscope::bgp
