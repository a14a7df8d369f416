// Binary trace container and (de)serialization for flow records, so that
// generated workloads can be persisted and re-analyzed without re-running
// the generator.
//
// Format v2: fixed little-endian header guarded by an FNV-1a checksum,
// then fixed-size records each carrying their own checksum, so bit damage
// anywhere in the stream is detectable. It is the only format read; the
// checksumless v1 is rejected as an unsupported version.
//
// Two reading modes (util::ErrorPolicy):
//   kStrict  first malformed byte throws;
//   kSkip    corrupted records are quarantined and counted in an
//            IngestStats; after a checksum failure the reader resyncs by
//            sliding one byte at a time until a record validates again,
//            so a localized splice/flip costs only the records it hit.
//
// Records are decoded in exactly one place, net::MappedTraceReader
// (net/mapped_trace.hpp); read_trace is a whole-stream adapter over it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/flow.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::net {

/// Metadata describing how a trace was captured.
struct TraceMeta {
  std::uint32_t sampling_rate = 10000;       ///< 1-out-of-N packet sampling
  std::uint32_t window_seconds = kFourWeeks; ///< measurement window length
  std::uint64_t seed = 0;                    ///< generator seed (0 = real capture)

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

/// An in-memory flow trace: metadata plus the sampled flow records.
struct Trace {
  TraceMeta meta;
  std::vector<FlowRecord> flows;

  /// Extrapolation factor from sampled to estimated real counts.
  double scale() const { return static_cast<double>(meta.sampling_rate); }
};

/// Writes a trace in spoofscope binary format v2. Throws
/// std::runtime_error on stream failure.
void write_trace(std::ostream& out, const Trace& trace);

/// Reads a whole trace written by write_trace: the stream's bytes go
/// through one MappedTraceReader batch. Strict policy throws
/// std::runtime_error on malformed input (bad magic, checksum mismatch,
/// truncated records, unsupported version); skip policy returns the
/// surviving records and accounts losses in `stats`.
Trace read_trace(std::istream& in, util::ErrorPolicy policy,
                 util::IngestStats* stats = nullptr);

/// Strict-mode convenience (historical signature).
Trace read_trace(std::istream& in);

}  // namespace spoofscope::net
