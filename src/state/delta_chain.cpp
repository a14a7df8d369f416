#include "state/delta_chain.hpp"

#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "net/mapped_trace.hpp"
#include "state/snapshot.hpp"
#include "util/fault_injection.hpp"

namespace spoofscope::state {

namespace {

/// Digest of a file's on-disk image: what write_atomic() returned when
/// it wrote the file, since it persists serialize()'s bytes verbatim.
std::uint64_t file_digest(const std::string& path) {
  const net::MappedTrace file(path);
  return fnv1a64(file.bytes());
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

}  // namespace

std::string shard_checkpoint_base(const std::string& dir, std::size_t index,
                                  std::size_t count) {
  return (std::filesystem::path(dir) /
          ("shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
           ".ckpt"))
      .string();
}

DeltaChain::DeltaChain(std::string base_path, std::size_t max_chain)
    : base_path_(std::move(base_path)),
      max_chain_(max_chain == 0 ? 1 : max_chain) {}

std::string DeltaChain::delta_path(std::uint64_t seq) const {
  return base_path_ + ".d" + std::to_string(seq);
}

std::size_t DeltaChain::unlink_deltas_from(std::uint64_t seq) const {
  std::size_t removed = 0;
  std::error_code ec;
  while (std::filesystem::remove(delta_path(seq), ec) && !ec) {
    ++removed;
    ++seq;
  }
  return removed;
}

DeltaResume DeltaChain::resume(classify::StreamingDetector& detector,
                               util::ErrorPolicy policy,
                               util::IngestStats* stats) {
  DeltaResume res;
  have_base_ = false;
  next_seq_ = 1;
  last_digest_ = 0;

  if (!file_exists(base_path_)) {
    if (file_exists(delta_path(1))) {
      // Orphaned links: a chain we cannot anchor. Loud refusal in
      // strict; unlink and start fresh in skip.
      if (policy == util::ErrorPolicy::kStrict) {
        throw SnapshotError(util::ErrorKind::kTruncated,
                            "delta chain has no base checkpoint",
                            "file " + base_path_);
      }
      res.deltas_dropped = unlink_deltas_from(1);
      if (stats != nullptr) stats->skip(util::ErrorKind::kTruncated, 0);
    }
    return res;  // clean first run
  }

  if (!detector.restore(base_path_, policy, stats, &res.extra)) {
    // Damaged base, skip mode: restore() already reset to fresh state;
    // any trailing links belong to the unusable chain.
    res.deltas_dropped = unlink_deltas_from(1);
    return res;
  }
  res.restored = true;
  have_base_ = true;
  last_digest_ = file_digest(base_path_);

  for (std::uint64_t seq = 1;; ++seq) {
    const std::string path = delta_path(seq);
    if (!file_exists(path)) break;
    try {
      const net::MappedTrace file(path);
      std::vector<std::uint8_t> scratch;
      const std::span<const std::uint8_t> bytes =
          with_injected_read_faults("delta.load", file.bytes(), scratch);
      detector.apply_delta(bytes, path, seq, last_digest_, &res.extra);
      last_digest_ = fnv1a64(file.bytes());
      next_seq_ = seq + 1;
      ++res.deltas_applied;
    } catch (const util::InjectedCrash&) {
      throw;  // a modelled crash is a process death, not recoverable damage
    } catch (const SnapshotError& e) {
      if (policy == util::ErrorPolicy::kStrict) throw;
      if (stats != nullptr) stats->skip(e.kind(), 0);
      // Truncate: the detector sits at cut seq-1 (apply_delta commits
      // nothing on failure); everything from the damaged link on is
      // stale.
      res.deltas_dropped = unlink_deltas_from(seq);
      break;
    } catch (const std::runtime_error&) {
      // Unreadable link (open/map failure): same truncation contract.
      if (policy == util::ErrorPolicy::kStrict) throw;
      if (stats != nullptr) stats->skip(util::ErrorKind::kTruncated, 0);
      res.deltas_dropped = unlink_deltas_from(seq);
      break;
    }
  }
  return res;
}

bool DeltaChain::append(classify::StreamingDetector& detector,
                        const classify::DetectorCheckpointExtra& extra) {
  if (!have_base_ || chain_length() >= max_chain_) {
    save_full(detector, extra);
    return true;
  }
  const std::string path = delta_path(next_seq_);
  last_digest_ = detector.save_delta(path, extra, next_seq_, last_digest_);
  ++next_seq_;
  return false;
}

void DeltaChain::save_full(classify::StreamingDetector& detector,
                           const classify::DetectorCheckpointExtra& extra) {
  last_digest_ = detector.save(base_path_, extra);
  detector.clear_dirty();
  have_base_ = true;
  unlink_deltas_from(1);
  next_seq_ = 1;
}

}  // namespace spoofscope::state
