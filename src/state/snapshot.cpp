#include "state/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "net/trace_format.hpp"
#include "util/fault_injection.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SPOOFSCOPE_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace spoofscope::state {

namespace {

using net::format::get_u32;
using net::format::get_u64;
using net::format::put_u16;
using net::format::put_u32;
using net::format::put_u64;

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kTableEntryBytes = 16;
/// Backstop against a corrupted count sending the table walk off into
/// gigabytes; real snapshots carry a handful of sections.
constexpr std::uint32_t kMaxSections = 1u << 20;

constexpr std::uint64_t align8(std::uint64_t off) { return (off + 7) & ~7ull; }

/// Little-endian 4-byte lane load; compilers fold this into a plain
/// load on LE hosts, and the explicit assembly keeps checksums
/// host-independent.
std::uint32_t load_lane32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/// FNV-1a-32 over four interleaved stripes of little-endian 4-byte
/// lanes (byte-at-a-time tail), chained into one value at the end.
/// Every stripe step xors a lane then multiplies by the odd FNV prime —
/// both bijective in the stripe state — and each input byte lands in
/// exactly one stripe, so any single damaged byte still always changes
/// the checksum. The stripes exist to break the serial xor→multiply
/// dependency chain: snapshot payloads are large (a compiled plane is
/// tens of MiB) and this pass is what keeps validated loads cheaper
/// than a recompile.
std::uint32_t fnv1a32(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t s0 = 2166136261u;
  std::uint32_t s1 = s0 * kPrime;
  std::uint32_t s2 = s1 * kPrime;
  std::uint32_t s3 = s2 * kPrime;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 = (s0 ^ load_lane32(p + i)) * kPrime;
    s1 = (s1 ^ load_lane32(p + i + 4)) * kPrime;
    s2 = (s2 ^ load_lane32(p + i + 8)) * kPrime;
    s3 = (s3 ^ load_lane32(p + i + 12)) * kPrime;
  }
  for (; i + 4 <= n; i += 4) s0 = (s0 ^ load_lane32(p + i)) * kPrime;
  for (; i < n; ++i) s0 = (s0 ^ p[i]) * kPrime;
  std::uint32_t h = (s0 ^ s1) * kPrime;
  h = (h ^ s2) * kPrime;
  h = (h ^ s3) * kPrime;
  return (h ^ static_cast<std::uint32_t>(n)) * kPrime;
}

[[noreturn]] void fail(util::ErrorKind kind, const std::string& what) {
  throw SnapshotError(kind, what);
}

[[noreturn]] void fail_at(util::ErrorKind kind, const std::string& what,
                          const std::string& context) {
  throw SnapshotError(kind, what, context);
}

/// "file <origin>" / "file <origin>, section <id>" — or just
/// "section <id>" when the caller parsed an anonymous buffer.
std::string where(const std::string& origin, std::int64_t section_id = -1) {
  std::string ctx;
  if (!origin.empty()) ctx = "file " + origin;
  if (section_id >= 0) {
    if (!ctx.empty()) ctx += ", ";
    ctx += "section " + std::to_string(section_id);
  }
  return ctx;
}

}  // namespace

// --- SectionBuilder ---------------------------------------------------

void SectionBuilder::u16(std::uint16_t v) {
  const std::size_t off = buf_.size();
  buf_.resize(off + 2);
  put_u16(buf_.data() + off, v);
}

void SectionBuilder::u32(std::uint32_t v) {
  const std::size_t off = buf_.size();
  buf_.resize(off + 4);
  put_u32(buf_.data() + off, v);
}

void SectionBuilder::u64(std::uint64_t v) {
  const std::size_t off = buf_.size();
  buf_.resize(off + 8);
  put_u64(buf_.data() + off, v);
}

void SectionBuilder::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void SectionBuilder::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

// --- SectionReader ----------------------------------------------------

const std::uint8_t* SectionReader::need(std::size_t n) {
  if (data_.size() - off_ < n) {
    fail_at(util::ErrorKind::kTruncated, "section underrun", context_);
  }
  const std::uint8_t* p = data_.data() + off_;
  off_ += n;
  return p;
}

std::uint8_t SectionReader::u8() { return *need(1); }
std::uint16_t SectionReader::u16() { return net::format::get_u16(need(2)); }
std::uint32_t SectionReader::u32() { return get_u32(need(4)); }
std::uint64_t SectionReader::u64() { return get_u64(need(8)); }

double SectionReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  __builtin_memcpy(&v, &bits, sizeof v);
  return v;
}

// --- SnapshotWriter ---------------------------------------------------

std::vector<std::uint8_t> SnapshotWriter::serialize() const {
  const std::size_t n = sections_.size();
  const std::uint64_t meta_bytes = kHeaderBytes + kTableEntryBytes * n + 4;
  // The file ends exactly where the last payload does (no trailing
  // padding), so total-size validation pins every byte.
  std::uint64_t total = meta_bytes;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(n);
  for (const auto& [id, payload] : sections_) {
    (void)id;
    offsets.push_back(align8(total));
    total = offsets.back() + payload.size();
  }

  std::vector<std::uint8_t> out(total, 0);
  put_u32(out.data() + 0, kSnapshotMagic);
  put_u32(out.data() + 4, kContainerVersion);
  put_u32(out.data() + 8, static_cast<std::uint32_t>(kind_));
  put_u32(out.data() + 12, payload_version_);
  put_u32(out.data() + 16, static_cast<std::uint32_t>(n));
  put_u32(out.data() + 20, 0);  // reserved
  put_u64(out.data() + 24, total);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* entry = out.data() + kHeaderBytes + kTableEntryBytes * i;
    const auto& payload = sections_[i].second;
    put_u32(entry + 0, sections_[i].first);
    put_u32(entry + 4, fnv1a32(payload.data(), payload.size()));
    put_u64(entry + 8, payload.size());
    std::copy(payload.begin(), payload.end(), out.begin() + offsets[i]);
  }
  const std::size_t checksum_off = kHeaderBytes + kTableEntryBytes * n;
  put_u32(out.data() + checksum_off, fnv1a32(out.data(), checksum_off));
  return out;
}

std::uint64_t SnapshotWriter::write_atomic(const std::string& path) const {
  using util::FaultInjector;
  using util::FaultKind;
  const std::vector<std::uint8_t> image = serialize();
  const std::string tmp = path + ".tmp";
  const auto io_fail = [&](const char* what) {
    std::remove(tmp.c_str());
    throw std::runtime_error("snapshot: " + std::string(what) + ": " + path);
  };
  // Both fault sites are consulted on every call (when an injector is
  // installed) so occurrence counts stay stable whatever fires.
  FaultKind write_fault = FaultKind::kNone;
  FaultKind rename_fault = FaultKind::kNone;
  std::size_t write_stop = image.size();
  if (FaultInjector* inj = FaultInjector::current()) {
    write_fault = inj->at("snapshot.write",
                          {FaultKind::kShortWrite, FaultKind::kEnospc});
    if (write_fault != FaultKind::kNone) write_stop = inj->pick(image.size());
    rename_fault =
        inj->at("snapshot.rename",
                {FaultKind::kCrashBeforeRename, FaultKind::kCrashAfterRename});
  }
#ifdef SPOOFSCOPE_HAVE_POSIX_IO
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_fail("cannot create");
  std::size_t written = 0;
  while (written < write_stop) {
    const ssize_t got =
        ::write(fd, image.data() + written, write_stop - written);
    if (got < 0) {
      ::close(fd);
      io_fail("write failed");
    }
    written += static_cast<std::size_t>(got);
  }
  if (write_fault == FaultKind::kShortWrite) {
    // Modelled kill mid-write: the torn tmp file stays on disk.
    ::close(fd);
    throw util::InjectedCrash("snapshot.write");
  }
  if (write_fault == FaultKind::kEnospc) {
    // Modelled disk-full: same clean error path a real ENOSPC takes.
    ::close(fd);
    io_fail("write failed (injected ENOSPC)");
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) io_fail("fsync failed");
  if (rename_fault == FaultKind::kCrashBeforeRename) {
    throw util::InjectedCrash("snapshot.rename");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) io_fail("rename failed");
  // Make the rename itself durable: fsync the containing directory.
  const auto dir = std::filesystem::path(path).parent_path();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  if (rename_fault == FaultKind::kCrashAfterRename) {
    throw util::InjectedCrash("snapshot.rename");
  }
#else
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os || !os.write(reinterpret_cast<const char*>(image.data()),
                         static_cast<std::streamsize>(write_stop))) {
      io_fail("write failed");
    }
    os.flush();
    if (!os) io_fail("flush failed");
  }
  if (write_fault == FaultKind::kShortWrite) {
    throw util::InjectedCrash("snapshot.write");
  }
  if (write_fault == FaultKind::kEnospc) io_fail("write failed (injected ENOSPC)");
  if (rename_fault == FaultKind::kCrashBeforeRename) {
    throw util::InjectedCrash("snapshot.rename");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) io_fail("rename failed");
  if (rename_fault == FaultKind::kCrashAfterRename) {
    throw util::InjectedCrash("snapshot.rename");
  }
#endif
  return fnv1a64(image);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// --- SnapshotView / parse ---------------------------------------------

bool SnapshotView::has(std::uint32_t id) const {
  for (const auto& [sid, payload] : sections_) {
    if (sid == id) return true;
  }
  return false;
}

std::span<const std::uint8_t> SnapshotView::section(std::uint32_t id) const {
  for (const auto& [sid, payload] : sections_) {
    if (sid == id) return payload;
  }
  fail(util::ErrorKind::kParse, "missing section " + std::to_string(id));
}

SnapshotView parse_snapshot(std::span<const std::uint8_t> bytes,
                            PayloadKind expected_kind,
                            std::uint32_t expected_payload_version,
                            const std::string& origin) {
  if (bytes.size() < kHeaderBytes) {
    fail_at(util::ErrorKind::kTruncated, "truncated header", where(origin));
  }
  if (get_u32(bytes.data()) != kSnapshotMagic) {
    fail_at(util::ErrorKind::kBadMagic, "bad magic", where(origin));
  }
  if (get_u32(bytes.data() + 4) != kContainerVersion) {
    fail_at(util::ErrorKind::kBadVersion, "unsupported container version",
            where(origin));
  }
  SnapshotView view;
  view.kind_ = static_cast<PayloadKind>(get_u32(bytes.data() + 8));
  view.payload_version_ = get_u32(bytes.data() + 12);
  const std::uint32_t n = get_u32(bytes.data() + 16);
  const std::uint64_t total = get_u64(bytes.data() + 24);
  if (n > kMaxSections) {
    fail_at(util::ErrorKind::kParse, "absurd section count", where(origin));
  }
  const std::uint64_t meta_bytes =
      kHeaderBytes + kTableEntryBytes * std::uint64_t{n} + 4;
  if (bytes.size() < meta_bytes) {
    fail_at(util::ErrorKind::kTruncated, "truncated section table",
            where(origin));
  }
  if (total != bytes.size()) {
    fail_at(bytes.size() < total ? util::ErrorKind::kTruncated
                                 : util::ErrorKind::kParse,
            bytes.size() < total ? "file shorter than declared"
                                 : "trailing bytes past declared size",
            where(origin));
  }
  const std::size_t checksum_off = meta_bytes - 4;
  if (get_u32(bytes.data() + checksum_off) !=
      fnv1a32(bytes.data(), checksum_off)) {
    fail_at(util::ErrorKind::kChecksum, "header checksum mismatch",
            where(origin));
  }
  // Kind/version checks come after the checksum so a flipped bit in the
  // kind field reports as damage, not as a foreign snapshot.
  if (view.kind_ != expected_kind) {
    fail_at(util::ErrorKind::kParse, "payload kind mismatch", where(origin));
  }
  if (view.payload_version_ != expected_payload_version) {
    fail_at(util::ErrorKind::kBadVersion, "unsupported payload version",
            where(origin));
  }

  std::uint64_t off = meta_bytes;
  view.sections_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t* entry =
        bytes.data() + kHeaderBytes + kTableEntryBytes * std::size_t{i};
    const std::uint32_t id = get_u32(entry + 0);
    const std::uint32_t checksum = get_u32(entry + 4);
    const std::uint64_t len = get_u64(entry + 8);
    const std::uint64_t start = align8(off);
    for (std::uint64_t p = off; p < start; ++p) {
      if (bytes[p] != 0) {
        fail_at(util::ErrorKind::kParse, "nonzero padding", where(origin, id));
      }
    }
    if (start > total || total - start < len) {
      fail_at(util::ErrorKind::kTruncated, "section past end of file",
              where(origin, id));
    }
    const std::span<const std::uint8_t> payload{bytes.data() + start,
                                                static_cast<std::size_t>(len)};
    if (fnv1a32(payload.data(), payload.size()) != checksum) {
      fail_at(util::ErrorKind::kChecksum, "section checksum mismatch",
              where(origin, id));
    }
    view.sections_.emplace_back(id, payload);
    off = start + len;
  }
  if (off != total) {
    fail_at(util::ErrorKind::kParse, "trailing bytes after last section",
            where(origin));
  }
  return view;
}

// --- read-fault shim --------------------------------------------------

std::span<const std::uint8_t> with_injected_read_faults(
    std::string_view site, std::span<const std::uint8_t> bytes,
    std::vector<std::uint8_t>& scratch) {
  using util::FaultInjector;
  using util::FaultKind;
  FaultInjector* inj = FaultInjector::current();
  if (inj == nullptr) return bytes;
  const FaultKind fault =
      inj->at(site, {FaultKind::kShortRead, FaultKind::kTornPage});
  if (fault == FaultKind::kNone || bytes.empty()) return bytes;
  scratch.assign(bytes.begin(), bytes.end());
  if (fault == FaultKind::kShortRead) {
    scratch.resize(inj->pick(bytes.size()));
  } else {
    constexpr std::size_t kPage = 4096;
    const std::size_t pages = (scratch.size() + kPage - 1) / kPage;
    const std::size_t lo = inj->pick(pages) * kPage;
    const std::size_t hi = std::min(lo + kPage, scratch.size());
    std::fill(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
              scratch.begin() + static_cast<std::ptrdiff_t>(hi), 0);
  }
  return scratch;
}

}  // namespace spoofscope::state
