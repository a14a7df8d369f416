// Shared error handling for every ingest path (binary traces, MRT-lite
// feeds, RPSL databases). Real routing and traffic feeds are messy —
// partial, reordered, corrupted — so each reader accepts a policy:
//
//   kStrict  fail loudly on the first malformed record (the historical
//            behaviour; right for curated artifacts and CI),
//   kSkip    quarantine malformed records, account for them in an
//            IngestStats, and keep going (right for live feeds).
//
// Skip mode is deterministic: which records survive is a pure function
// of the input bytes, never of timing or iteration order, so a corrupted
// artifact ingested twice yields bit-identical surviving records.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace spoofscope::util {

/// What an ingest routine does when it meets a malformed record.
enum class ErrorPolicy {
  kStrict,  ///< throw std::runtime_error on the first bad record
  kSkip,    ///< drop the bad record, count it, continue
};

/// Why a record was rejected. Buckets are format-agnostic so one report
/// format serves text and binary readers alike.
enum class ErrorKind : std::uint8_t {
  kTruncated = 0,      ///< stream ended inside a header or record
  kBadMagic = 1,       ///< container magic mismatch
  kBadVersion = 2,     ///< unsupported container version
  kChecksum = 3,       ///< header/record checksum mismatch (bit damage)
  kParse = 4,          ///< text line/object failed to parse
  kCountMismatch = 5,  ///< records present != header-declared count
};

inline constexpr std::size_t kNumErrorKinds = 6;

/// Short stable name ("truncated", "checksum", ...).
const char* error_kind_name(ErrorKind kind);

/// Outcome accounting for one ingest pass. In strict mode the first
/// error throws, so a populated stats object implies skip mode (or a
/// clean run).
struct IngestStats {
  std::uint64_t records_ok = 0;       ///< records parsed and delivered
  std::uint64_t records_skipped = 0;  ///< records quarantined
  std::uint64_t bytes_dropped = 0;    ///< input bytes not covered by an ok record
  std::array<std::uint64_t, kNumErrorKinds> errors{};  ///< events per kind

  /// One delivered record.
  void ok() { ++records_ok; }

  /// One quarantined record of `bytes` input bytes.
  void skip(ErrorKind kind, std::uint64_t bytes) {
    ++records_skipped;
    ++errors[static_cast<std::size_t>(kind)];
    bytes_dropped += bytes;
  }

  /// An error event that is not itself a lost record (e.g. a declared
  /// count that no longer matches after records were dropped).
  void note(ErrorKind kind, std::uint64_t bytes = 0) {
    ++errors[static_cast<std::size_t>(kind)];
    bytes_dropped += bytes;
  }

  /// True if nothing was skipped or flagged.
  bool clean() const;

  /// One-line human-readable summary, e.g.
  /// "1204 records ok, 3 skipped (2 checksum, 1 truncated), 121 bytes dropped".
  std::string summary() const;

  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

/// Machine-readable form for monitoring pipelines, e.g.
/// {"records_ok":1204,"records_skipped":3,"bytes_dropped":121,
///  "errors":{"truncated":1,...,"count-mismatch":0}}.
std::string to_json(const IngestStats& stats);

}  // namespace spoofscope::util
