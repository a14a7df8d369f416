// mmap-backed trace source: maps a trace file read-only and exposes its
// bytes as one contiguous span, so the batch decoder scans records in
// place — the only per-record copies left are the decoded lane values
// landing in a FlowBatch. Falls back to a read()-filled heap buffer when
// mmap is unavailable (non-POSIX build, unmappable file, pipe), with
// identical observable behaviour.
//
// Ownership rules: MappedTrace owns the mapping (or fallback buffer) and
// must outlive every span handed out, including any MappedTraceReader
// over it. Readers never copy record bytes; batches own their decoded
// lanes and outlive nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/trace.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::net {

class FlowBatch;

class MappedTrace {
 public:
  /// Maps `path` read-only (falling back to reading it into memory).
  /// Throws std::runtime_error if the file cannot be opened or read.
  explicit MappedTrace(const std::string& path);

  /// Wraps an in-memory byte buffer in the same interface — the
  /// read()-fallback representation, constructible directly for tests
  /// and non-file sources.
  static MappedTrace from_buffer(std::vector<std::uint8_t> bytes);

  ~MappedTrace();

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  /// The complete file contents (header + records), zero-copy when
  /// mapped() is true.
  std::span<const std::uint8_t> bytes() const { return {data_, size_}; }

  /// True when the bytes come from an actual mmap (false: heap buffer).
  bool mapped() const { return map_ != nullptr; }

  /// Advises the kernel that every page fully contained in
  /// [begin, end) will not be needed again, releasing its physical
  /// memory — the discipline a single-pass reader uses to keep resident
  /// set size independent of trace length. Purely advisory: the bytes
  /// remain addressable (a later access refaults them from the file).
  /// No-op for fallback buffers and on platforms without madvise.
  void drop_pages(std::size_t begin, std::size_t end) const;

 private:
  MappedTrace() = default;
  void release();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;  ///< mmap base when mapped, else nullptr
  std::vector<std::uint8_t> fallback_;
};

/// The one trace decoder: validates the header once, then decodes records
/// straight from the mapping into FlowBatch lanes. The scan window is the
/// whole file, so running out of bytes is end of input.
///
///   - strict: exactly the declared number of records, trailing bytes
///     ignored; the first malformed byte throws std::runtime_error;
///   - skip: every record is checked against its FNV-1a checksum; damage
///     starts a byte-wise resync to the next record that validates, with
///     one quarantined record counted per damaged region in `stats`, and
///     a broken header yields an empty record stream.
class MappedTraceReader {
 public:
  /// Validates the header once. `trace` and `stats` (optional) must
  /// outlive the reader.
  explicit MappedTraceReader(const MappedTrace& trace,
                             util::ErrorPolicy policy = util::ErrorPolicy::kStrict,
                             util::IngestStats* stats = nullptr);

  const TraceMeta& meta() const { return meta_; }
  std::uint64_t declared_count() const { return declared_; }
  bool header_ok() const { return header_ok_; }

  /// Clears `out` and refills it with up to `max_records` records
  /// decoded straight from the mapping. Returns records delivered; 0
  /// means end of stream. A strict-mode throw leaves the records decoded
  /// before the damage in `out`.
  std::size_t next_batch(FlowBatch& out, std::size_t max_records);

  /// Releases the physical pages behind every byte this reader has
  /// already consumed (MappedTrace::drop_pages of the consumed prefix,
  /// tracked incrementally so repeated calls touch each page once).
  /// Call between batches on a single-pass ingest to keep peak RSS
  /// independent of trace length; safe at any point, including after
  /// end of stream.
  void drop_consumed();

  const util::IngestStats& stats() const { return *stats_; }

 private:
  void finish(std::size_t tail);

  util::ErrorPolicy policy_;
  const MappedTrace* trace_ = nullptr;
  std::size_t dropped_ = 0;  ///< consumed-prefix bytes already released
  util::IngestStats own_stats_;
  util::IngestStats* stats_;
  TraceMeta meta_;
  std::uint64_t declared_ = 0;
  std::uint64_t delivered_ = 0;
  bool header_ok_ = false;
  bool resyncing_ = false;  ///< inside a damaged region, sliding bytewise
  bool done_ = false;
  std::span<const std::uint8_t> rest_;  ///< unconsumed record bytes (view)
};

}  // namespace spoofscope::net
