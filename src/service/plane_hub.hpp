// Shared classification plane for the resident service. All shards
// classify against one compiled FlatClassifier; the hub owns it behind
// a shared_ptr and a generation counter so `reload-updates` can patch
// routing churn into the plane and republish it to every shard:
//
//   - in-place patch (apply_updates): the object stays put, its epoch()
//     bumps, the hub's generation bumps. Shards notice the generation
//     move and re-sync; the detector's sync_plane_epoch() reclassifies
//     any buffered flows against the patched plane.
//   - wholesale publish(): a different compiled plane object (e.g. a
//     fresh compile) replaces the current one; shards rebind their
//     detectors to the new object.
//
// Mutation requires the shards quiesced (Server::quiesce barriers every
// worker before touching the hub): the detector hot path reads the
// plane without locks, and the idle-barrier mutex handoff is what
// orders the patch before the next batch — the same discipline the
// one-shot detect command gets for free by being single-threaded.
#pragma once

#include <cstdint>
#include <memory>

#include "classify/flat_classifier.hpp"

namespace spoofscope::service {

class PlaneHub {
 public:
  explicit PlaneHub(std::shared_ptr<classify::FlatClassifier> plane)
      : plane_(std::move(plane)) {}

  /// The current plane (shards hold a copy of this shared_ptr across a
  /// batch, so a wholesale publish never frees a plane under a reader).
  const std::shared_ptr<classify::FlatClassifier>& current() const {
    return plane_;
  }

  /// Bumped on every republish (in-place or wholesale). Shards compare
  /// against the generation they last synced at.
  std::uint64_t generation() const { return generation_; }

  /// Applies a route-churn batch in place and republishes. Caller must
  /// have quiesced the shards.
  classify::FlatClassifier::UpdateApplyStats apply_updates(
      std::span<const bgp::UpdateMessage> batch,
      const classify::FlatClassifier::UpdateApplyOptions& opts) {
    const auto stats = plane_->apply_updates(batch, opts);
    ++generation_;
    return stats;
  }

  /// Replaces the plane wholesale. Caller must have quiesced the shards.
  void publish(std::shared_ptr<classify::FlatClassifier> plane) {
    plane_ = std::move(plane);
    ++generation_;
  }

 private:
  std::shared_ptr<classify::FlatClassifier> plane_;
  std::uint64_t generation_ = 1;
};

}  // namespace spoofscope::service
