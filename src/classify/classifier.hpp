// The paper's core contribution: sequential classification of each flow's
// source address (Fig 3) into Bogon -> Unrouted -> Invalid -> valid,
// mutually exclusive, evaluated under several valid-space inference
// methods at once (the bogon and routed checks are method-independent).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/routing_table.hpp"
#include "inference/valid_space.hpp"
#include "net/flow.hpp"
#include "trie/prefix_set.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::net {
class FlowBatch;
}

namespace spoofscope::classify {

using net::Asn;

/// The four traffic classes of Sec 4.2.
enum class TrafficClass : std::uint8_t {
  kBogon = 0,     ///< reserved source ranges
  kUnrouted = 1,  ///< routable but not announced during the window
  kInvalid = 2,   ///< routed, but not a valid source for the member
  kValid = 3,     ///< everything else (not analyzed further)
};

inline constexpr int kNumClasses = 4;

/// Display name matching the paper ("Bogon", "Unrouted", ...).
std::string class_name(TrafficClass c);

/// Compact per-flow label: 2 bits per configured valid space.
using Label = std::uint16_t;

/// Classifies sources against the bogon list, the routed table and a set
/// of per-member valid spaces (one per inference method under study).
///
/// This is the reference implementation of Fig 3, not a runtime engine:
/// every production path classifies through a FlatClassifier compiled
/// from it. It is the compile input (and the PlaneCache digest source)
/// and the oracle the differential tests pin the plane against.
///
/// The valid spaces are held by shared_ptr<const>: constructing a
/// Classifier from already-shared spaces is O(1) per space (no deep copy
/// of the per-member interval maps), and a compiled FlatClassifier keeps
/// the same shared spaces alive for its fallback lane.
class Classifier {
 public:
  /// At most 8 valid spaces fit a Label. Throws std::invalid_argument on
  /// fewer than 1 or more than 8. Each space is moved into shared
  /// ownership (no copy).
  Classifier(const bgp::RoutingTable& table,
             std::vector<inference::ValidSpace> spaces);

  /// Shares already-wrapped spaces: O(1) per space.
  Classifier(const bgp::RoutingTable& table,
             std::vector<std::shared_ptr<const inference::ValidSpace>> spaces);

  /// Pre-resolved per-member handle: one hash lookup per configured
  /// space, done once instead of per flow. Invalidated by
  /// mutable_space() on the corresponding space.
  class MemberView {
   public:
    Asn member() const { return member_; }

   private:
    friend class Classifier;
    Asn member_ = net::kNoAsn;
    std::array<const trie::IntervalSet*, 8> spaces_{};  // null = unknown member
  };

  /// Resolves the per-space hash lookups for `member` once.
  MemberView member_view(Asn member) const;

  /// Fig 3 for a single method (index into the configured spaces).
  TrafficClass classify(net::Ipv4Addr src, Asn member, std::size_t space_idx) const;

  /// All methods at once, packed. Use unpack() to extract per-method
  /// classes.
  Label classify_all(net::Ipv4Addr src, Asn member) const;

  /// classify_all with the member hash lookups hoisted out (hot loops).
  Label classify_all(net::Ipv4Addr src, const MemberView& view) const;

  /// Batch classification over a FlowBatch's SoA lanes, memoizing member
  /// views per distinct ASN. out.size() must equal batch.size(); labels
  /// are element-wise identical to calling classify_all per record.
  void classify_batch(const net::FlowBatch& batch, std::span<Label> out) const;

  std::vector<Label> classify_batch(const net::FlowBatch& batch) const;

  /// Extracts the class for one method from a packed label.
  static TrafficClass unpack(Label label, std::size_t space_idx) {
    return static_cast<TrafficClass>((label >> (2 * space_idx)) & 0x3);
  }

  std::size_t space_count() const { return spaces_.size(); }
  const inference::ValidSpace& space(std::size_t i) const { return *spaces_[i]; }

  /// The shared handle for space `i` — what FlatClassifier::compile
  /// retains so its fallback lane never dangles.
  const std::shared_ptr<const inference::ValidSpace>& shared_space(
      std::size_t i) const {
    return spaces_[i];
  }

  /// Mutable access for the Sec 4.4 false-positive workflow (extending a
  /// member's valid space and re-classifying). Copy-on-write: if the
  /// space is shared with another Classifier or a FlatClassifier, it is
  /// cloned first, so other holders keep the unmodified version.
  /// Invalidates MemberViews.
  inference::ValidSpace& mutable_space(std::size_t i);

  const bgp::RoutingTable& table() const { return *table_; }

 private:
  trie::PrefixSet bogons_;
  const bgp::RoutingTable* table_;
  std::vector<std::shared_ptr<const inference::ValidSpace>> spaces_;
};

/// Runs the classifier over a whole trace; labels[i] belongs to flows[i].
std::vector<Label> classify_trace(const Classifier& classifier,
                                  std::span<const net::FlowRecord> flows);

/// Parallel variant: contiguous chunks of the flow span are classified
/// across `pool` into a pre-sized label vector, so labels[i] always
/// belongs to flows[i] and the result is element-wise identical to the
/// sequential version regardless of thread count. Safe because the
/// Classifier is read-only after construction (no atomics needed).
std::vector<Label> classify_trace(const Classifier& classifier,
                                  std::span<const net::FlowRecord> flows,
                                  util::ThreadPool& pool);

}  // namespace spoofscope::classify
