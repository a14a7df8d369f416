// Online detection for operational deployment: the conclusion notes that
// "every network on the inter-domain Internet can opt to apply [the
// method] to filter its incoming traffic, or to detect spoofing". The
// StreamingDetector consumes flows one at a time, maintains rolling
// per-member class counters over a sliding window and raises alerts when
// a member's spoofed-class rate spikes above its baseline.
//
// Degraded-mode contract (for live feeds, which are reordered and
// adversarial rather than neat):
//
//  - Timestamps may arrive out of order up to `reorder_skew_seconds`; a
//    bounded buffer re-sorts them before they reach the windows. Flows
//    later than the skew are dropped and counted, never silently folded
//    into the wrong window.
//  - Window accounting expects nondecreasing timestamps. Any regression
//    that still reaches the accounting (skew 0 = buffer disabled) is
//    dropped and counted in health().regressions instead of corrupting
//    the window (the historical behaviour left unsortable samples
//    stranded in the deque forever).
//  - Memory is bounded by `max_members` (deterministic idle-member
//    eviction: least-recently-active, ties to the smallest ASN) and
//    `max_window_samples` per member (oldest samples retire early), so
//    a member flood or a million-member scan degrades accuracy
//    measurably — visible in health() — instead of OOMing.
//
// Everything is a pure function of the ingested flow sequence: no wall
// clock, no hash-order dependence, so two runs over the same (possibly
// corrupted) feed produce bit-identical alerts and health counters.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "classify/batch_kernels.hpp"
#include "classify/classifier.hpp"
#include "net/flow.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::net {
class FlowBatch;
}

namespace spoofscope::classify {

class FlatClassifier;

/// An alert raised by the streaming detector.
struct SpoofingAlert {
  Asn member = net::kNoAsn;
  std::uint32_t ts = 0;            ///< when the threshold was crossed
  TrafficClass dominant_class = TrafficClass::kInvalid;
  double spoofed_packets_in_window = 0;
  double window_share = 0;         ///< spoofed share of the member's window

  friend bool operator==(const SpoofingAlert&, const SpoofingAlert&) = default;
};

/// Detection knobs.
struct StreamingParams {
  std::uint32_t window_seconds = 3600;  ///< sliding window length
  /// Minimum sampled spoofed packets within the window to alert.
  double min_spoofed_packets = 50;
  /// Minimum spoofed share of the member's own window traffic to alert.
  double min_share = 0.05;
  /// Per-member cooldown between alerts.
  std::uint32_t cooldown_seconds = 6 * 3600;

  // Degraded-mode knobs. The defaults preserve the historical behaviour
  // (no reorder buffer, unbounded state).
  /// Tolerated timestamp disorder. 0 disables the reorder buffer: flows
  /// go straight to the windows and any ts regression is dropped and
  /// counted. >0 buffers flows until the high-water timestamp has moved
  /// `reorder_skew_seconds` past them, releasing in (ts, arrival) order.
  std::uint32_t reorder_skew_seconds = 0;
  /// Hard cap on buffered flows (0 = unbounded). Overflow force-releases
  /// the earliest buffered flow, counted in health().forced_releases.
  std::size_t max_reorder_records = 4096;
  /// Hard cap on tracked members (0 = unbounded). Admitting a new member
  /// at the cap evicts the least-recently-active one (ties: smallest
  /// ASN), counted in health().member_evictions.
  std::size_t max_members = 0;
  /// Hard cap on window samples per member (0 = unbounded). Overflow
  /// retires the member's oldest sample early, counted in
  /// health().sample_evictions.
  std::size_t max_window_samples = 0;

  /// Batch-classification kernel (ingest_batch classifies whole batches
  /// through it; the kernels are proven bit-identical, so this is
  /// excluded from config_hash() and checkpoints stay portable across
  /// kernels).
  SimdKernel simd = SimdKernel::kAuto;
};

/// Degradation counters: how far the detector had to deviate from the
/// ideal unbounded, perfectly-ordered computation.
struct DetectorHealth {
  std::uint64_t regressions = 0;       ///< dropped at the windows: ts went backwards
  std::uint64_t late_drops = 0;        ///< dropped at the buffer: later than skew
  std::uint64_t forced_releases = 0;   ///< reorder buffer overflowed its cap
  std::uint64_t member_evictions = 0;  ///< members evicted at max_members
  std::uint64_t sample_evictions = 0;  ///< samples retired at max_window_samples
  std::size_t reorder_depth = 0;       ///< currently buffered flows
  std::size_t max_reorder_depth = 0;   ///< high-water buffered flows
  std::size_t tracked_members = 0;     ///< currently tracked members
  std::size_t max_window_depth = 0;    ///< high-water samples in any one window

  friend bool operator==(const DetectorHealth&, const DetectorHealth&) = default;
};

/// Machine-readable form for monitoring pipelines (flat object keyed by
/// the field names above).
std::string to_json(const DetectorHealth& health);

/// Update-stream cursor a checkpoint carries alongside the detector
/// state: how many update messages had been applied to the plane at the
/// cut (and the plane epoch, for diagnostics). `detect --resume` replays
/// exactly updates [0, updates_applied) before continuing, so the
/// resumed plane matches the cut bit for bit.
struct DetectorCheckpointExtra {
  std::uint64_t updates_applied = 0;
  std::uint64_t plane_epoch = 0;

  friend bool operator==(const DetectorCheckpointExtra&,
                         const DetectorCheckpointExtra&) = default;
};

/// Stateful single-pass detector. Feed flows via ingest(); alerts are
/// delivered through the callback. Call flush() (or use run()) after the
/// last flow to drain the reorder buffer.
class StreamingDetector {
 public:
  using AlertFn = std::function<void(const SpoofingAlert&)>;

  /// `plane` must outlive the detector (or be replaced via rebind());
  /// `space_idx` selects the inference method (typically FULL+org).
  StreamingDetector(const FlatClassifier& plane, std::size_t space_idx,
                    StreamingParams params = {});

  /// Processes one flow; invokes `on_alert` zero or more times (buffered
  /// flows may be released and alert on this call).
  void ingest(const net::FlowRecord& flow, const AlertFn& on_alert);

  /// Batch variant: ingests a FlowBatch's flows in lane order, so alerts
  /// and health counters are identical to per-record ingest of the same
  /// records.
  void ingest_batch(const net::FlowBatch& batch, const AlertFn& on_alert);

  /// Drains the reorder buffer at end of stream; a no-op when the buffer
  /// is disabled or empty.
  void flush(const AlertFn& on_alert);

  /// Repoints the detector at a different compiled plane (the service's
  /// wholesale plane republish): detection state — windows, reorder
  /// buffer, health, cursor — is untouched, buffered flows are
  /// reclassified against the new plane (the same resolve-at-release
  /// rule sync_plane_epoch() applies to in-place patches), and the
  /// epoch baseline is taken from the new object. The caller owns the
  /// lifetime of `plane` and must not call this concurrently with
  /// ingest.
  void rebind(const FlatClassifier& plane);

  /// Convenience: run over a whole trace (including flush), collecting
  /// all alerts.
  std::vector<SpoofingAlert> run(std::span<const net::FlowRecord> flows);

  /// Flows processed so far.
  std::uint64_t processed() const { return processed_; }

  /// Degradation snapshot (cheap; counters plus current depths).
  DetectorHealth health() const;

  /// 64-bit FNV-1a over the detection configuration (StreamingParams +
  /// space index). Checkpoints embed it and restore() refuses a
  /// snapshot taken under a different configuration. The plane is
  /// excluded, so a checkpoint restores onto a recompiled or cached
  /// plane; plane patches are replayed from the update cursor
  /// (DetectorCheckpointExtra).
  std::uint64_t config_hash() const;

  /// Crash-safe checkpoint: atomically persists the complete detection
  /// state — windows, reorder buffer, eviction index (rebuilt on load),
  /// health counters, stream cursor, config hash — so a restored
  /// detector continues bit-identically to the uninterrupted run.
  /// Throws std::runtime_error on I/O failure. (Defined in the state
  /// library; link spoofscope_state to use checkpoints.)
  void save(const std::string& path) const;

  /// Full-checkpoint save carrying the update-stream cursor (written as
  /// an additive section; checkpoints without it restore with a
  /// zero-valued extra).
  void save(const std::string& path, const DetectorCheckpointExtra& extra) const;

  /// Restores a checkpoint written by save(). Returns true on success.
  /// On damage, truncation or config mismatch: strict throws
  /// (state::SnapshotError), skip accounts the ErrorKind in `stats`
  /// (when given), resets to fresh state and returns false — detection
  /// restarts cleanly rather than running on half-loaded state.
  bool restore(const std::string& path,
               util::ErrorPolicy policy = util::ErrorPolicy::kStrict,
               util::IngestStats* stats = nullptr);

  /// restore() variant that also recovers the update-stream cursor (left
  /// zero-valued when the checkpoint predates it).
  bool restore(const std::string& path, util::ErrorPolicy policy,
               util::IngestStats* stats, DetectorCheckpointExtra* extra_out);

  /// Delta checkpoint: persists only what changed since the last full
  /// save()/save_delta()/clear_dirty() — stream cursor and health, the
  /// windows of members touched since the baseline, the members evicted
  /// since the baseline, and the (small, bounded) reorder buffer. The
  /// delta embeds `chain_seq` and `parent_digest` so apply_delta() can
  /// refuse an out-of-order or cross-chain file. Returns the FNV-1a-64
  /// digest of the written file image (the next link's parent digest)
  /// and resets the dirty baseline. (Defined in the state library.)
  std::uint64_t save_delta(const std::string& path,
                           const DetectorCheckpointExtra& extra,
                           std::uint64_t chain_seq, std::uint64_t parent_digest);

  /// Applies one delta image on top of the current state. Validates the
  /// config hash, chain sequence number and parent digest, decodes the
  /// whole delta before mutating anything (a damaged file leaves the
  /// detector at the previous cut), then replays it: dirty windows are
  /// replaced wholesale, removed members erased, stream cursor and
  /// reorder buffer overwritten. Throws state::SnapshotError on damage
  /// or chain mismatch; `origin` labels error messages.
  void apply_delta(std::span<const std::uint8_t> bytes,
                   const std::string& origin, std::uint64_t expected_seq,
                   std::uint64_t expected_parent_digest,
                   DetectorCheckpointExtra* extra_out = nullptr);

  /// Resets the delta baseline: subsequent save_delta() calls diff
  /// against the state as of this call. Invoke after a successful full
  /// save() (save() itself is const and leaves the baseline alone;
  /// save_delta() resets it on success).
  void clear_dirty();

 private:
  struct Sample {
    std::uint32_t ts;
    std::uint32_t packets;
    TrafficClass cls;
  };
  struct MemberWindow {
    std::deque<Sample> samples;
    double spoofed = 0;           ///< spoofed-class packets in window
    double total = 0;             ///< all packets in window
    double per_class[kNumClasses] = {0, 0, 0, 0};
    std::uint32_t last_alert_ts = 0;
    std::uint32_t last_seen_ts = 0;  ///< drives idle eviction
    bool alerted_once = false;
  };
  struct Pending {
    net::FlowRecord flow;
    /// Classified at ingest (classification is a pure per-flow function,
    /// so computing it before or after buffering is equivalent — doing
    /// it at ingest lets ingest_batch classify whole batches through the
    /// SIMD kernels). Recomputed on checkpoint restore.
    TrafficClass cls = TrafficClass::kInvalid;
    std::uint64_t seq;  ///< arrival order; stabilizes equal timestamps
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.flow.ts != b.flow.ts) return a.flow.ts > b.flow.ts;
      return a.seq > b.seq;
    }
  };

  /// Per-flow classification against the current plane.
  TrafficClass classify_one(const net::FlowRecord& flow) const;
  /// ingest() with the class already resolved (the batch path classifies
  /// up front through the SIMD kernels).
  void ingest_classified(const net::FlowRecord& flow, TrafficClass cls,
                         const AlertFn& on_alert);
  /// Window accounting + alerting for one in-order flow.
  void account(const net::FlowRecord& flow, TrafficClass cls,
               const AlertFn& on_alert);
  /// Pops the earliest buffered flow into account().
  void release_one(const AlertFn& on_alert);
  /// Evicts the least-recently-active member (ties: smallest ASN).
  void evict_idle_member();
  /// Keeps the idle-eviction index in sync with a member's activity.
  void touch_member(Asn member, MemberWindow& w, std::uint32_t ts);
  /// Back to the freshly-constructed state (config and plane kept).
  void reset_state();
  /// Reclassifies buffered flows when the plane's epoch moved
  /// (apply_updates() patched it while flows sat in the reorder buffer):
  /// a flow's class is resolved against the plane in force when it
  /// *leaves* the buffer, matching what classify-at-release would do.
  void sync_plane_epoch();

  const FlatClassifier* plane_;
  std::size_t space_idx_;
  StreamingParams params_;
  std::unordered_map<Asn, MemberWindow> windows_;
  /// (last_seen_ts, member) ordered index over windows_ for O(log n)
  /// deterministic idle eviction.
  std::set<std::pair<std::uint32_t, Asn>> idle_index_;
  /// Binary min-heap on (ts, seq) via PendingLater (std::push_heap /
  /// std::pop_heap; top is front()). A plain vector rather than
  /// std::priority_queue so sync_plane_epoch() can rewrite `cls` in
  /// place — cls is not part of the ordering, so the heap stays valid.
  std::vector<Pending> pending_;
  std::uint32_t watermark_ = 0;       ///< max ts seen by the buffer
  std::uint32_t last_released_ts_ = 0;
  std::uint64_t seq_ = 0;
  bool saw_any_ = false;              ///< watermark_ is meaningful
  bool released_any_ = false;         ///< last_released_ts_ is meaningful
  std::uint64_t processed_ = 0;
  DetectorHealth health_;
  std::vector<Label> batch_labels_;  ///< ingest_batch scratch
  std::uint64_t last_plane_epoch_ = 0;  ///< plane epoch pending_ was classified under
  /// Delta baseline: members whose window changed / that were evicted
  /// since the last clear_dirty(). Maintained unconditionally (a few
  /// hash operations per flow) so full and resumed runs track
  /// identically.
  std::unordered_set<Asn> dirty_members_;
  std::unordered_set<Asn> removed_members_;
};

}  // namespace spoofscope::classify
