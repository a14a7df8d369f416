// Durable state plane: the one snapshot container every persistent
// artifact (full and delta detector checkpoints) is written in. Same
// discipline as trace v2 — little-endian fields, FNV-1a checksums,
// versioned header — but generalized to typed sections so each payload
// kind can evolve independently:
//
//   [header 32 B][section table 16 B x N][checksum 4 B][payload ...]
//
//   header:   magic "SNAP", container version, payload kind, payload
//             version, section count, total byte size of the file
//   table:    per section: id, FNV-1a-32 of the payload, byte length
//   checksum: FNV-1a-32 over header + table (any metadata damage is
//             as loud as payload damage)
//   payloads: stored in table order, each 8-byte aligned so mmap'd
//             loads can reinterpret u32/u64 lanes in place; alignment
//             padding must be zero (validated, so every byte of the
//             file is covered by some check)
//
// The total-size field pins the exact file length: truncation and
// trailing garbage are both detected, not just unlucky corruption.
//
// Crash safety: write_atomic() writes <path>.tmp, fsyncs it, renames
// over <path> and fsyncs the directory, so a crash leaves either the
// old snapshot or the new one — never a torn file.
//
// Error contract: parsing throws SnapshotError (carrying a
// util::ErrorKind) on any damage. Policy-aware callers (detector
// restore, delta-chain resume) translate: strict rethrows, skip
// accounts the kind in an IngestStats and falls back to fresh state or
// the last good link.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error_policy.hpp"

namespace spoofscope::state {

inline constexpr std::uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
inline constexpr std::uint32_t kContainerVersion = 1;

/// What the payload sections describe. New kinds append; readers reject
/// a kind they were not asked to open. Value 2 held compiled planes and
/// stays unused, so such a file is rejected as a foreign kind.
enum class PayloadKind : std::uint32_t {
  kDetector = 1,       ///< StreamingDetector checkpoint
  kDetectorDelta = 3,  ///< delta checkpoint chained off a full kDetector
};

/// Any defect found while parsing a snapshot: structural damage,
/// checksum mismatch, version/kind mismatch, semantic mismatch. Carries
/// the ErrorKind bucket so skip-mode callers can account it, plus
/// whatever context the thrower knew (file path, section id) so
/// corrupted-checkpoint reports are actionable from the CLI.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(util::ErrorKind kind, const std::string& what)
      : std::runtime_error("snapshot: " + what), kind_(kind) {}

  /// `context` names where the damage was found, e.g.
  /// "file out.ckpt, section 3". Empty context degrades to the plain
  /// message.
  SnapshotError(util::ErrorKind kind, const std::string& what,
                const std::string& context)
      : std::runtime_error("snapshot: " + what +
                           (context.empty() ? "" : " [" + context + "]")),
        kind_(kind) {}

  util::ErrorKind kind() const { return kind_; }

 private:
  util::ErrorKind kind_;
};

/// Little-endian section payload builder (the put_* helpers from the
/// trace format, growing a byte vector). Doubles are stored as their
/// IEEE-754 bit pattern so round-trips are bit-exact.
class SectionBuilder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void bytes(const void* data, std::size_t n);

  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Little-endian cursor over one section's payload. Reading past the
/// end throws SnapshotError(kTruncated) — restore code never has to
/// bounds-check by hand.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::uint8_t> payload)
      : data_(payload) {}

  /// Labeled variant: `context` (e.g. "file out.ckpt, section 3") is
  /// carried into every underrun error this reader throws.
  SectionReader(std::span<const std::uint8_t> payload, std::string context)
      : data_(payload), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  std::size_t remaining() const { return data_.size() - off_; }

 private:
  const std::uint8_t* need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  std::string context_;
};

/// Assembles and persists one snapshot.
class SnapshotWriter {
 public:
  SnapshotWriter(PayloadKind kind, std::uint32_t payload_version)
      : kind_(kind), payload_version_(payload_version) {}

  /// Appends a section. Ids need not be unique or ordered, but readers
  /// look up the first match, so one id per section is the convention.
  void add_section(std::uint32_t id, std::vector<std::uint8_t> payload) {
    sections_.emplace_back(id, std::move(payload));
  }

  /// The complete snapshot image (header + table + checksum + aligned
  /// payloads).
  std::vector<std::uint8_t> serialize() const;

  /// Crash-safe write: serialize to <path>.tmp, fsync, rename over
  /// <path>, fsync the directory. Returns fnv1a64() of the image it
  /// wrote (what a digest of the file reads back). Throws
  /// std::runtime_error on I/O failure (a failed checkpoint must never
  /// pass silently).
  std::uint64_t write_atomic(const std::string& path) const;

 private:
  PayloadKind kind_;
  std::uint32_t payload_version_;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections_;
};

/// FNV-1a-64 of `bytes`: the digest of a snapshot image that chains a
/// delta checkpoint to its parent, and the detector's config hash.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Parsed, validated view into a snapshot's bytes (zero-copy: spans
/// point into the caller's buffer, which must outlive the view).
class SnapshotView {
 public:
  PayloadKind kind() const { return kind_; }
  std::uint32_t payload_version() const { return payload_version_; }
  std::size_t section_count() const { return sections_.size(); }

  /// The payload of the first section with `id`, or std::nullopt-like
  /// empty-handed throw: section(id) throws SnapshotError(kParse) when
  /// absent, has(id) probes first.
  bool has(std::uint32_t id) const;
  std::span<const std::uint8_t> section(std::uint32_t id) const;

 private:
  friend SnapshotView parse_snapshot(std::span<const std::uint8_t>,
                                     PayloadKind, std::uint32_t,
                                     const std::string&);

  PayloadKind kind_ = PayloadKind::kDetector;
  std::uint32_t payload_version_ = 0;
  std::vector<std::pair<std::uint32_t, std::span<const std::uint8_t>>> sections_;
};

/// Parses `bytes` as a snapshot of `expected_kind` at
/// `expected_payload_version`, validating every checksum, the pinned
/// total size and the zero alignment padding. Throws SnapshotError on
/// any defect; policy-aware callers translate per their ErrorPolicy.
/// `origin` names the source file: it is woven into every error message
/// (together with the section id for per-section damage) so corruption
/// reports say which file and where.
SnapshotView parse_snapshot(std::span<const std::uint8_t> bytes,
                            PayloadKind expected_kind,
                            std::uint32_t expected_payload_version,
                            const std::string& origin = {});

/// Fault-injection shim for snapshot reads. With no installed
/// util::FaultInjector (or none armed at `site`) this returns `bytes`
/// untouched. When a read fault fires, the damaged image (truncated
/// span for a short read, one 4 KiB page zeroed for a torn mmap page)
/// is materialized in `scratch` and the returned span views scratch —
/// the caller's original buffer is never modified.
std::span<const std::uint8_t> with_injected_read_faults(
    std::string_view site, std::span<const std::uint8_t> bytes,
    std::vector<std::uint8_t>& scratch);

}  // namespace spoofscope::state
