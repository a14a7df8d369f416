#include "classify/streaming.hpp"

#include <algorithm>
#include <sstream>

#include "classify/flat_classifier.hpp"
#include "net/flow_batch.hpp"

namespace spoofscope::classify {

StreamingDetector::StreamingDetector(const FlatClassifier& plane,
                                     std::size_t space_idx,
                                     StreamingParams params)
    : plane_(&plane), space_idx_(space_idx), params_(params) {}

TrafficClass StreamingDetector::classify_one(
    const net::FlowRecord& flow) const {
  return plane_->classify(flow.src, flow.member_in, space_idx_);
}

void StreamingDetector::rebind(const FlatClassifier& plane) {
  plane_ = &plane;
  for (auto& p : pending_) p.cls = classify_one(p.flow);
  last_plane_epoch_ = plane.epoch();
}

void StreamingDetector::sync_plane_epoch() {
  const std::uint64_t epoch = plane_->epoch();
  if (epoch == last_plane_epoch_) return;
  for (auto& p : pending_) p.cls = classify_one(p.flow);
  last_plane_epoch_ = epoch;
}

void StreamingDetector::ingest(const net::FlowRecord& flow,
                               const AlertFn& on_alert) {
  ingest_classified(flow, classify_one(flow), on_alert);
}

void StreamingDetector::ingest_classified(const net::FlowRecord& flow,
                                          TrafficClass cls,
                                          const AlertFn& on_alert) {
  sync_plane_epoch();
  ++processed_;
  const std::uint32_t skew = params_.reorder_skew_seconds;
  if (skew == 0) {
    account(flow, cls, on_alert);
    return;
  }
  // Watermark reordering: a flow is deliverable once the maximum
  // timestamp seen is `skew` past it; anything arriving later than that
  // is dropped here rather than delivered out of order.
  if (saw_any_ && watermark_ >= skew && flow.ts < watermark_ - skew) {
    ++health_.late_drops;
    return;
  }
  pending_.push_back({flow, cls, seq_++});
  std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
  watermark_ = saw_any_ ? std::max(watermark_, flow.ts) : flow.ts;
  saw_any_ = true;
  health_.max_reorder_depth =
      std::max(health_.max_reorder_depth, pending_.size());
  if (watermark_ >= skew) {
    const std::uint32_t deliverable = watermark_ - skew;
    while (!pending_.empty() && pending_.front().flow.ts <= deliverable) {
      release_one(on_alert);
    }
  }
  while (params_.max_reorder_records != 0 &&
         pending_.size() > params_.max_reorder_records) {
    ++health_.forced_releases;
    release_one(on_alert);
  }
}

void StreamingDetector::ingest_batch(const net::FlowBatch& batch,
                                     const AlertFn& on_alert) {
  // Classify the whole batch through the SIMD kernel, then ingest in
  // lane order with the classes precomputed. Classification is a pure
  // per-flow function, so alerts and health counters stay identical to
  // per-record ingest.
  batch_labels_.resize(batch.size());
  plane_->classify_batch(batch, batch_labels_, params_.simd);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ingest_classified(batch.record(i),
                      Classifier::unpack(batch_labels_[i], space_idx_),
                      on_alert);
  }
}

void StreamingDetector::flush(const AlertFn& on_alert) {
  sync_plane_epoch();
  while (!pending_.empty()) release_one(on_alert);
}

void StreamingDetector::release_one(const AlertFn& on_alert) {
  std::pop_heap(pending_.begin(), pending_.end(), PendingLater{});
  const Pending p = std::move(pending_.back());
  pending_.pop_back();
  account(p.flow, p.cls, on_alert);
}

void StreamingDetector::touch_member(Asn member, MemberWindow& w,
                                     std::uint32_t ts) {
  if (params_.max_members != 0 && w.last_seen_ts != ts) {
    idle_index_.erase({w.last_seen_ts, member});
    idle_index_.insert({ts, member});
  }
  w.last_seen_ts = ts;
}

void StreamingDetector::evict_idle_member() {
  const auto victim = *idle_index_.begin();  // (oldest last_seen, min ASN)
  idle_index_.erase(idle_index_.begin());
  windows_.erase(victim.second);
  ++health_.member_evictions;
  dirty_members_.erase(victim.second);
  removed_members_.insert(victim.second);
}

void StreamingDetector::account(const net::FlowRecord& flow, TrafficClass cls,
                                const AlertFn& on_alert) {
  // The window math below assumes nondecreasing timestamps; a regression
  // that survived the reorder buffer (or arrived with the buffer
  // disabled) is dropped and counted, not folded into the wrong window.
  if (released_any_ && flow.ts < last_released_ts_) {
    ++health_.regressions;
    return;
  }
  last_released_ts_ = flow.ts;
  released_any_ = true;
  // Every path below mutates this member's window: mark it for the next
  // delta checkpoint (and cancel a pending removal if it came back).
  dirty_members_.insert(flow.member_in);
  removed_members_.erase(flow.member_in);

  auto it = windows_.find(flow.member_in);
  if (it == windows_.end()) {
    if (params_.max_members != 0 && windows_.size() >= params_.max_members) {
      evict_idle_member();
    }
    it = windows_.emplace(flow.member_in, MemberWindow{}).first;
    if (params_.max_members != 0) {
      idle_index_.insert({flow.ts, flow.member_in});
      it->second.last_seen_ts = flow.ts;
    }
  } else {
    touch_member(flow.member_in, it->second, flow.ts);
  }
  auto& w = it->second;

  // Evict samples that left the window.
  const std::uint32_t horizon =
      flow.ts >= params_.window_seconds ? flow.ts - params_.window_seconds : 0;
  while (!w.samples.empty() && w.samples.front().ts < horizon) {
    const Sample& old = w.samples.front();
    w.total -= old.packets;
    w.per_class[static_cast<int>(old.cls)] -= old.packets;
    if (old.cls != TrafficClass::kValid) w.spoofed -= old.packets;
    w.samples.pop_front();
  }

  w.samples.push_back({flow.ts, flow.packets, cls});
  w.total += flow.packets;
  w.per_class[static_cast<int>(cls)] += flow.packets;
  if (cls != TrafficClass::kValid) w.spoofed += flow.packets;

  // Degraded mode: a member exceeding its sample budget loses its oldest
  // samples early (the window shrinks, accuracy degrades measurably).
  while (params_.max_window_samples != 0 &&
         w.samples.size() > params_.max_window_samples) {
    const Sample& old = w.samples.front();
    w.total -= old.packets;
    w.per_class[static_cast<int>(old.cls)] -= old.packets;
    if (old.cls != TrafficClass::kValid) w.spoofed -= old.packets;
    w.samples.pop_front();
    ++health_.sample_evictions;
  }
  // Sampled after cap enforcement so the reported depth never exceeds
  // the configured budget.
  health_.max_window_depth =
      std::max(health_.max_window_depth, w.samples.size());

  if (w.spoofed < params_.min_spoofed_packets || w.total <= 0) return;
  const double share = w.spoofed / w.total;
  if (share < params_.min_share) return;
  if (w.alerted_once &&
      flow.ts - w.last_alert_ts < params_.cooldown_seconds) {
    return;
  }

  SpoofingAlert alert;
  alert.member = flow.member_in;
  alert.ts = flow.ts;
  alert.spoofed_packets_in_window = w.spoofed;
  alert.window_share = share;
  // Dominant spoofed class in the window.
  double best = -1;
  for (const int c : {0, 1, 2}) {  // Bogon, Unrouted, Invalid
    if (w.per_class[c] > best) {
      best = w.per_class[c];
      alert.dominant_class = static_cast<TrafficClass>(c);
    }
  }
  w.last_alert_ts = flow.ts;
  w.alerted_once = true;
  on_alert(alert);
}

std::vector<SpoofingAlert> StreamingDetector::run(
    std::span<const net::FlowRecord> flows) {
  std::vector<SpoofingAlert> alerts;
  const auto sink = [&alerts](const SpoofingAlert& a) { alerts.push_back(a); };
  for (const auto& f : flows) ingest(f, sink);
  flush(sink);
  return alerts;
}

void StreamingDetector::clear_dirty() {
  dirty_members_.clear();
  removed_members_.clear();
}

DetectorHealth StreamingDetector::health() const {
  DetectorHealth h = health_;
  h.reorder_depth = pending_.size();
  h.tracked_members = windows_.size();
  return h;
}

std::string to_json(const DetectorHealth& health) {
  std::ostringstream os;
  os << "{\"regressions\":" << health.regressions
     << ",\"late_drops\":" << health.late_drops
     << ",\"forced_releases\":" << health.forced_releases
     << ",\"member_evictions\":" << health.member_evictions
     << ",\"sample_evictions\":" << health.sample_evictions
     << ",\"reorder_depth\":" << health.reorder_depth
     << ",\"max_reorder_depth\":" << health.max_reorder_depth
     << ",\"tracked_members\":" << health.tracked_members
     << ",\"max_window_depth\":" << health.max_window_depth << "}";
  return os.str();
}

}  // namespace spoofscope::classify
