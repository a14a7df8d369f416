// Compiled-plane snapshot cache: persists a FlatClassifier's DIR-24-8
// tables (PayloadKind::kPlane on the snapshot container) so a cold
// start mmaps a digest-validated plane instead of paying the full
// compile.
//
// Keying: a plane is a pure function of its compile inputs — the
// routing table's prefixes, each valid space's per-member interval
// sets, and the bogon list baked into the binary — so cache entries
// are named by classifier_digest(source), an FNV-1a-64 over exactly
// those inputs, plus the payload format version. A routing-table or
// valid-space change therefore misses (and recompiles) instead of
// serving a stale plane.
//
// Trust: the filename digest gates staleness, the container checksums
// gate bit damage, and after wiring the loaded plane the cache
// recomputes FlatClassifier::plane_digest() over the mapped bytes and
// compares it to the digest stored at compile time — a served plane is
// never silently different from a fresh compile.
//
// The loaded plane's hot-path views point into the mapping (kept alive
// by the FlatClassifier itself), so the 64 MiB base table is paged in
// on demand rather than copied. Snapshots store host-native (little-
// endian) lanes; on a big-endian host the cache degrades to
// compile-always rather than byte-swapping 64 MiB.
#pragma once

#include <cstdint>
#include <string>

#include "classify/flat_classifier.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::state {

/// FNV-1a-64 identity of a Classifier's compile inputs (prefixes in
/// PrefixId order, per-space methods and sorted per-member interval
/// sets). Equal digests imply bit-identical compiled planes.
std::uint64_t classifier_digest(const classify::Classifier& source);

class PlaneCache {
 public:
  /// `dir` is created on first use (mkdir -p semantics).
  explicit PlaneCache(std::string dir) : dir_(std::move(dir)) {}

  struct LoadResult {
    classify::FlatClassifier plane;
    bool hit = false;     ///< served from the cache
    bool stored = false;  ///< compiled fresh and written back
  };

  /// The cache's one entry point. Hit: the entry for `source`'s digest
  /// mmaps, validates and loads. Miss (no entry): compile and write
  /// the entry back. Damaged or stale entry: strict throws
  /// (SnapshotError), skip accounts the ErrorKind in `stats` (when
  /// given), recompiles and overwrites the entry. `pool` (optional)
  /// parallelizes the compile; the result is bit-identical either way.
  LoadResult load_or_compile(const classify::Classifier& source,
                             util::ThreadPool* pool,
                             util::ErrorPolicy policy = util::ErrorPolicy::kStrict,
                             util::IngestStats* stats = nullptr);

  /// Where the entry for `source_digest` lives (exists or not).
  std::string entry_path(std::uint64_t source_digest) const;

  const std::string& dir() const { return dir_; }

 private:
  classify::FlatClassifier load_entry(const std::string& path,
                                      const classify::Classifier& source,
                                      std::uint64_t source_digest) const;
  void store(const classify::FlatClassifier& plane,
             std::uint64_t source_digest) const;

  std::string dir_;
};

}  // namespace spoofscope::state
