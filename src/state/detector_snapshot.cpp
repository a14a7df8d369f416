// StreamingDetector checkpoint payload (PayloadKind::kDetector) on the
// snapshot container, plus the delta-checkpoint payload
// (PayloadKind::kDetectorDelta) chained off it. The detector is a pure
// function of the ingested flow sequence, so persisting its explicit
// state — windows, reorder buffer, health counters, stream cursor — and
// the config hash is sufficient for a restored run to continue
// bit-identically.
//
// Serialization choices that bit-identity depends on:
//  - Window aggregates (spoofed/total/per_class) are stored as IEEE-754
//    bit patterns, not recomputed from samples on load: the running
//    sums accumulate in ingest order, and re-summing in any other
//    order could change the low bits and flip a threshold comparison.
//  - Members are written in ascending ASN order and the reorder buffer
//    in its (ts, seq) pop order, so equal states serialize to equal
//    bytes regardless of hash-map iteration order.
//  - Pending FlowRecords carry full-width 32-bit ASNs (the trace
//    format's 16-bit truncation never touches checkpoints).
//  - The idle-eviction index is not stored; it is a pure function of
//    the windows ({(last_seen_ts, member)}) and is rebuilt on load.
//
// Delta checkpoints persist only what moved since the last baseline:
// the stream cursor and health counters (absolute values, not diffs —
// they overwrite on apply), the full windows of members touched since
// the baseline, the members evicted since the baseline, and the whole
// (small, bounded) reorder buffer. Each delta embeds its chain sequence
// number and the FNV-1a-64 digest of its parent's file image, so
// apply_delta() refuses an out-of-order or cross-chain link, and a
// damaged file leaves the detector untouched at the previous cut
// (decode-everything-then-commit).
//
// These member functions live in the state library (not classify) so
// the classify layer stays independent of the persistence layer.
#include <algorithm>
#include <utility>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "net/mapped_trace.hpp"
#include "state/snapshot.hpp"
#include "util/fault_injection.hpp"

namespace spoofscope::classify {

namespace {

constexpr std::uint32_t kDetectorPayloadVersion = 1;

// Full-checkpoint section ids.
constexpr std::uint32_t kSecConfig = 1;        ///< config hash + raw knobs
constexpr std::uint32_t kSecStream = 2;        ///< cursor + health counters
constexpr std::uint32_t kSecWindows = 3;       ///< per-member windows
constexpr std::uint32_t kSecPending = 4;       ///< reorder buffer
constexpr std::uint32_t kSecUpdateCursor = 5;  ///< update-stream cursor (additive)

constexpr std::uint32_t kDeltaPayloadVersion = 1;

// Delta-checkpoint section ids.
constexpr std::uint32_t kDeltaSecMeta = 1;     ///< config/chain/cursor metadata
constexpr std::uint32_t kDeltaSecStream = 2;   ///< cursor + health (absolute)
constexpr std::uint32_t kDeltaSecWindows = 3;  ///< dirty members' windows
constexpr std::uint32_t kDeltaSecRemoved = 4;  ///< members evicted since baseline
constexpr std::uint32_t kDeltaSecPending = 5;  ///< reorder buffer (whole)

std::uint64_t fnv64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void corrupt(const std::string& what, const std::string& ctx = {}) {
  throw state::SnapshotError(util::ErrorKind::kParse, what, ctx);
}

/// "file <origin>, section <id>" — the context woven into decode errors
/// so corruption reports say which file and where.
std::string sec_ctx(const std::string& origin, std::uint32_t id) {
  if (origin.empty()) return {};
  return "file " + origin + ", section " + std::to_string(id);
}

// Window/pending wire helpers, shared verbatim between the full and the
// delta payloads (templates so this file-scope code can traffic in the
// detector's private types without naming them).

template <typename Window>
void put_window(state::SectionBuilder& b, Asn member, const Window& w) {
  b.u32(member);
  b.u32(w.last_alert_ts);
  b.u32(w.last_seen_ts);
  b.u8(w.alerted_once ? 1 : 0);
  b.f64(w.spoofed);
  b.f64(w.total);
  for (const double c : w.per_class) b.f64(c);
  b.u64(w.samples.size());
  for (const auto& s : w.samples) {
    b.u32(s.ts);
    b.u32(s.packets);
    b.u8(static_cast<std::uint8_t>(s.cls));
  }
}

template <typename Window>
Asn get_window(state::SectionReader& r, Window& w, const std::string& ctx) {
  const Asn member = r.u32();
  w.last_alert_ts = r.u32();
  w.last_seen_ts = r.u32();
  w.alerted_once = r.u8() != 0;
  w.spoofed = r.f64();
  w.total = r.f64();
  for (double& c : w.per_class) c = r.f64();
  const std::uint64_t nsamples = r.u64();
  for (std::uint64_t j = 0; j < nsamples; ++j) {
    const std::uint32_t ts = r.u32();
    const std::uint32_t packets = r.u32();
    const std::uint8_t cls = r.u8();
    if (cls >= kNumClasses) corrupt("sample class out of range", ctx);
    w.samples.push_back({ts, packets, static_cast<TrafficClass>(cls)});
  }
  return member;
}

template <typename P>
void put_pending(state::SectionBuilder& b, const P& p) {
  b.u64(p.seq);
  b.u32(p.flow.ts);
  b.u32(p.flow.src.value());
  b.u32(p.flow.dst.value());
  b.u8(static_cast<std::uint8_t>(p.flow.proto));
  b.u16(p.flow.sport);
  b.u16(p.flow.dport);
  b.u32(p.flow.packets);
  b.u64(p.flow.bytes);
  b.u32(p.flow.member_in);
  b.u32(p.flow.member_out);
}

net::FlowRecord get_pending_flow(state::SectionReader& r, std::uint64_t& seq) {
  seq = r.u64();
  net::FlowRecord f;
  f.ts = r.u32();
  f.src = net::Ipv4Addr(r.u32());
  f.dst = net::Ipv4Addr(r.u32());
  f.proto = static_cast<net::Proto>(r.u8());
  f.sport = r.u16();
  f.dport = r.u16();
  f.packets = r.u32();
  f.bytes = r.u64();
  f.member_in = r.u32();
  f.member_out = r.u32();
  return f;
}

}  // namespace

std::uint64_t StreamingDetector::config_hash() const {
  state::SectionBuilder b;
  b.u32(params_.window_seconds);
  b.f64(params_.min_spoofed_packets);
  b.f64(params_.min_share);
  b.u32(params_.cooldown_seconds);
  b.u32(params_.reorder_skew_seconds);
  b.u64(params_.max_reorder_records);
  b.u64(params_.max_members);
  b.u64(params_.max_window_samples);
  b.u64(space_idx_);
  const std::vector<std::uint8_t> bytes = b.take();
  return fnv64({bytes.data(), bytes.size()});
}

void StreamingDetector::save(const std::string& path) const { save(path, {}); }

void StreamingDetector::save(const std::string& path,
                             const DetectorCheckpointExtra& extra) const {
  state::SnapshotWriter writer(state::PayloadKind::kDetector,
                               kDetectorPayloadVersion);
  {
    state::SectionBuilder b;
    b.u64(config_hash());
    // The raw knobs ride along for diagnostics (the hash alone cannot
    // tell an operator *which* knob differs).
    b.u32(params_.window_seconds);
    b.f64(params_.min_spoofed_packets);
    b.f64(params_.min_share);
    b.u32(params_.cooldown_seconds);
    b.u32(params_.reorder_skew_seconds);
    b.u64(params_.max_reorder_records);
    b.u64(params_.max_members);
    b.u64(params_.max_window_samples);
    b.u64(space_idx_);
    writer.add_section(kSecConfig, b.take());
  }
  {
    state::SectionBuilder b;
    b.u32(watermark_);
    b.u32(last_released_ts_);
    b.u64(seq_);
    b.u8(saw_any_ ? 1 : 0);
    b.u8(released_any_ ? 1 : 0);
    b.u64(processed_);
    b.u64(health_.regressions);
    b.u64(health_.late_drops);
    b.u64(health_.forced_releases);
    b.u64(health_.member_evictions);
    b.u64(health_.sample_evictions);
    b.u64(health_.max_reorder_depth);
    b.u64(health_.max_window_depth);
    writer.add_section(kSecStream, b.take());
  }
  {
    std::vector<Asn> members;
    members.reserve(windows_.size());
    for (const auto& [member, w] : windows_) members.push_back(member);
    std::sort(members.begin(), members.end());
    state::SectionBuilder b;
    b.u64(members.size());
    for (const Asn member : members) put_window(b, member, windows_.at(member));
    writer.add_section(kSecWindows, b.take());
  }
  {
    state::SectionBuilder b;
    b.u64(pending_.size());
    // Serialize in the deterministic (ts, seq) pop order, not heap
    // layout order.
    auto sorted = pending_;
    std::sort(sorted.begin(), sorted.end(), [](const Pending& a,
                                               const Pending& b) {
      if (a.flow.ts != b.flow.ts) return a.flow.ts < b.flow.ts;
      return a.seq < b.seq;
    });
    for (const Pending& p : sorted) put_pending(b, p);
    writer.add_section(kSecPending, b.take());
  }
  {
    state::SectionBuilder b;
    b.u64(extra.updates_applied);
    b.u64(extra.plane_epoch);
    writer.add_section(kSecUpdateCursor, b.take());
  }
  writer.write_atomic(path);
}

void StreamingDetector::reset_state() {
  windows_.clear();
  idle_index_.clear();
  pending_.clear();
  watermark_ = 0;
  last_released_ts_ = 0;
  seq_ = 0;
  saw_any_ = false;
  released_any_ = false;
  processed_ = 0;
  health_ = {};
  dirty_members_.clear();
  removed_members_.clear();
  last_plane_epoch_ = plane_->epoch();
}

bool StreamingDetector::restore(const std::string& path,
                                util::ErrorPolicy policy,
                                util::IngestStats* stats) {
  return restore(path, policy, stats, nullptr);
}

bool StreamingDetector::restore(const std::string& path,
                                util::ErrorPolicy policy,
                                util::IngestStats* stats,
                                DetectorCheckpointExtra* extra_out) {
  util::IngestStats own;
  util::IngestStats& st = stats ? *stats : own;
  const bool strict = policy == util::ErrorPolicy::kStrict;
  try {
    const net::MappedTrace file(path);
    std::vector<std::uint8_t> scratch;
    const std::span<const std::uint8_t> bytes = state::with_injected_read_faults(
        "detector.restore", file.bytes(), scratch);
    const state::SnapshotView snap = state::parse_snapshot(
        bytes, state::PayloadKind::kDetector, kDetectorPayloadVersion, path);

    {
      state::SectionReader r(snap.section(kSecConfig), sec_ctx(path, kSecConfig));
      if (r.u64() != config_hash()) {
        corrupt("checkpoint was taken under a different configuration",
                sec_ctx(path, kSecConfig));
      }
    }

    reset_state();
    {
      state::SectionReader r(snap.section(kSecStream), sec_ctx(path, kSecStream));
      watermark_ = r.u32();
      last_released_ts_ = r.u32();
      seq_ = r.u64();
      saw_any_ = r.u8() != 0;
      released_any_ = r.u8() != 0;
      processed_ = r.u64();
      health_.regressions = r.u64();
      health_.late_drops = r.u64();
      health_.forced_releases = r.u64();
      health_.member_evictions = r.u64();
      health_.sample_evictions = r.u64();
      health_.max_reorder_depth = r.u64();
      health_.max_window_depth = r.u64();
      if (r.remaining() != 0) {
        corrupt("trailing bytes in stream section", sec_ctx(path, kSecStream));
      }
    }
    {
      const std::string ctx = sec_ctx(path, kSecWindows);
      state::SectionReader r(snap.section(kSecWindows), ctx);
      const std::uint64_t count = r.u64();
      windows_.reserve(count);
      Asn prev = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        MemberWindow w;
        const Asn member = get_window(r, w, ctx);
        if (i > 0 && member <= prev) corrupt("windows out of order", ctx);
        prev = member;
        if (params_.max_members != 0) {
          idle_index_.insert({w.last_seen_ts, member});
        }
        windows_.emplace(member, std::move(w));
      }
      if (r.remaining() != 0) corrupt("trailing bytes in windows section", ctx);
    }
    {
      const std::string ctx = sec_ctx(path, kSecPending);
      state::SectionReader r(snap.section(kSecPending), ctx);
      const std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        Pending p;
        p.flow = get_pending_flow(r, p.seq);
        // The class is not serialized (it is a pure function of the flow
        // and the plane, and keeping it out preserves the checkpoint
        // format across the SIMD work); recompute it on the way in.
        p.cls = classify_one(p.flow);
        pending_.push_back(std::move(p));
      }
      std::make_heap(pending_.begin(), pending_.end(), PendingLater{});
      if (r.remaining() != 0) corrupt("trailing bytes in pending section", ctx);
    }
    if (extra_out != nullptr) {
      *extra_out = {};
      if (snap.has(kSecUpdateCursor)) {
        state::SectionReader r(snap.section(kSecUpdateCursor),
                               sec_ctx(path, kSecUpdateCursor));
        extra_out->updates_applied = r.u64();
        extra_out->plane_epoch = r.u64();
      }
    }
    // pending_ classes were just recomputed against the plane as it
    // stands right now; the caller replays update batches after restore
    // and the next ingest resyncs via the epoch check.
    last_plane_epoch_ = plane_->epoch();
    clear_dirty();
    st.ok();
    return true;
  } catch (const util::InjectedCrash&) {
    // A modelled crash is a process death, never a recoverable parse
    // error: let it unwind past the policy handling.
    throw;
  } catch (const state::SnapshotError& e) {
    if (strict) throw;
    st.skip(e.kind(), 0);
    reset_state();
    return false;
  } catch (const std::runtime_error&) {
    // MappedTrace open/read failure (missing or unreadable file).
    if (strict) throw;
    st.skip(util::ErrorKind::kTruncated, 0);
    reset_state();
    return false;
  }
}

std::uint64_t StreamingDetector::save_delta(const std::string& path,
                                            const DetectorCheckpointExtra& extra,
                                            std::uint64_t chain_seq,
                                            std::uint64_t parent_digest) {
  state::SnapshotWriter writer(state::PayloadKind::kDetectorDelta,
                               kDeltaPayloadVersion);
  {
    state::SectionBuilder b;
    b.u64(config_hash());
    b.u64(chain_seq);
    b.u64(parent_digest);
    b.u64(extra.updates_applied);
    b.u64(extra.plane_epoch);
    writer.add_section(kDeltaSecMeta, b.take());
  }
  {
    state::SectionBuilder b;
    b.u32(watermark_);
    b.u32(last_released_ts_);
    b.u64(seq_);
    b.u8(saw_any_ ? 1 : 0);
    b.u8(released_any_ ? 1 : 0);
    b.u64(processed_);
    b.u64(health_.regressions);
    b.u64(health_.late_drops);
    b.u64(health_.forced_releases);
    b.u64(health_.member_evictions);
    b.u64(health_.sample_evictions);
    b.u64(health_.max_reorder_depth);
    b.u64(health_.max_window_depth);
    writer.add_section(kDeltaSecStream, b.take());
  }
  {
    std::vector<Asn> members(dirty_members_.begin(), dirty_members_.end());
    std::sort(members.begin(), members.end());
    state::SectionBuilder b;
    b.u64(members.size());
    for (const Asn member : members) put_window(b, member, windows_.at(member));
    writer.add_section(kDeltaSecWindows, b.take());
  }
  {
    std::vector<Asn> members(removed_members_.begin(), removed_members_.end());
    std::sort(members.begin(), members.end());
    state::SectionBuilder b;
    b.u64(members.size());
    for (const Asn member : members) b.u32(member);
    writer.add_section(kDeltaSecRemoved, b.take());
  }
  {
    state::SectionBuilder b;
    b.u64(pending_.size());
    auto sorted = pending_;
    std::sort(sorted.begin(), sorted.end(), [](const Pending& a,
                                               const Pending& b) {
      if (a.flow.ts != b.flow.ts) return a.flow.ts < b.flow.ts;
      return a.seq < b.seq;
    });
    for (const Pending& p : sorted) put_pending(b, p);
    writer.add_section(kDeltaSecPending, b.take());
  }
  // Durable first: if the write (or an injected fault) throws, the dirty
  // baseline is untouched and the next attempt re-captures everything.
  writer.write_atomic(path);
  const std::vector<std::uint8_t> image = writer.serialize();
  clear_dirty();
  return fnv64({image.data(), image.size()});
}

void StreamingDetector::apply_delta(std::span<const std::uint8_t> bytes,
                                    const std::string& origin,
                                    std::uint64_t expected_seq,
                                    std::uint64_t expected_parent_digest,
                                    DetectorCheckpointExtra* extra_out) {
  const state::SnapshotView snap = state::parse_snapshot(
      bytes, state::PayloadKind::kDetectorDelta, kDeltaPayloadVersion, origin);

  DetectorCheckpointExtra extra;
  {
    const std::string ctx = sec_ctx(origin, kDeltaSecMeta);
    state::SectionReader r(snap.section(kDeltaSecMeta), ctx);
    if (r.u64() != config_hash()) {
      corrupt("delta was taken under a different configuration", ctx);
    }
    if (r.u64() != expected_seq) corrupt("delta chain out of sequence", ctx);
    if (r.u64() != expected_parent_digest) {
      corrupt("delta chain broken: parent digest mismatch", ctx);
    }
    extra.updates_applied = r.u64();
    extra.plane_epoch = r.u64();
    if (r.remaining() != 0) corrupt("trailing bytes in meta section", ctx);
  }

  // Decode every section into locals before mutating anything: a
  // truncated or corrupt delta must leave the detector exactly at the
  // previous cut so skip-mode resume can settle on it.
  struct StreamState {
    std::uint32_t watermark, last_released_ts;
    std::uint64_t seq;
    bool saw_any, released_any;
    std::uint64_t processed;
    DetectorHealth health;
  } s{};
  {
    const std::string ctx = sec_ctx(origin, kDeltaSecStream);
    state::SectionReader r(snap.section(kDeltaSecStream), ctx);
    s.watermark = r.u32();
    s.last_released_ts = r.u32();
    s.seq = r.u64();
    s.saw_any = r.u8() != 0;
    s.released_any = r.u8() != 0;
    s.processed = r.u64();
    s.health.regressions = r.u64();
    s.health.late_drops = r.u64();
    s.health.forced_releases = r.u64();
    s.health.member_evictions = r.u64();
    s.health.sample_evictions = r.u64();
    s.health.max_reorder_depth = r.u64();
    s.health.max_window_depth = r.u64();
    if (r.remaining() != 0) corrupt("trailing bytes in stream section", ctx);
  }
  std::vector<std::pair<Asn, MemberWindow>> touched;
  {
    const std::string ctx = sec_ctx(origin, kDeltaSecWindows);
    state::SectionReader r(snap.section(kDeltaSecWindows), ctx);
    const std::uint64_t count = r.u64();
    touched.reserve(count);
    Asn prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      MemberWindow w;
      const Asn member = get_window(r, w, ctx);
      if (i > 0 && member <= prev) corrupt("windows out of order", ctx);
      prev = member;
      touched.emplace_back(member, std::move(w));
    }
    if (r.remaining() != 0) corrupt("trailing bytes in windows section", ctx);
  }
  std::vector<Asn> removed;
  {
    const std::string ctx = sec_ctx(origin, kDeltaSecRemoved);
    state::SectionReader r(snap.section(kDeltaSecRemoved), ctx);
    const std::uint64_t count = r.u64();
    removed.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Asn member = r.u32();
      if (i > 0 && member <= removed.back()) {
        corrupt("removed members out of order", ctx);
      }
      removed.push_back(member);
    }
    if (r.remaining() != 0) corrupt("trailing bytes in removed section", ctx);
  }
  std::vector<Pending> pend;
  {
    const std::string ctx = sec_ctx(origin, kDeltaSecPending);
    state::SectionReader r(snap.section(kDeltaSecPending), ctx);
    const std::uint64_t count = r.u64();
    pend.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Pending p;
      p.flow = get_pending_flow(r, p.seq);
      p.cls = classify_one(p.flow);
      pend.push_back(std::move(p));
    }
    if (r.remaining() != 0) corrupt("trailing bytes in pending section", ctx);
  }

  // Commit. Removals before replacements is arbitrary (the two member
  // sets are disjoint by construction); the reorder buffer and stream
  // state overwrite wholesale.
  for (const Asn member : removed) windows_.erase(member);
  for (auto& [member, w] : touched) windows_[member] = std::move(w);
  pending_ = std::move(pend);
  std::make_heap(pending_.begin(), pending_.end(), PendingLater{});
  watermark_ = s.watermark;
  last_released_ts_ = s.last_released_ts;
  seq_ = s.seq;
  saw_any_ = s.saw_any;
  released_any_ = s.released_any;
  processed_ = s.processed;
  health_ = s.health;
  idle_index_.clear();
  if (params_.max_members != 0) {
    for (const auto& [member, w] : windows_) {
      idle_index_.insert({w.last_seen_ts, member});
    }
  }
  last_plane_epoch_ = plane_->epoch();
  clear_dirty();
  if (extra_out != nullptr) *extra_out = extra;
}

}  // namespace spoofscope::classify
