#include "analysis/streaming.hpp"

#include <algorithm>
#include <sstream>

#include "net/protocols.hpp"
#include "util/format.hpp"

namespace spoofscope::analysis {

namespace {

constexpr const char* kClassNames[] = {"bogon", "unrouted", "invalid", "regular"};

inline bool is_udp(std::uint8_t proto) {
  return proto == static_cast<std::uint8_t>(net::Proto::kUdp);
}

}  // namespace

ReportLimits ReportLimits::production() {
  ReportLimits l;
  l.max_members = 1 << 16;
  l.max_destinations = 1 << 16;
  l.max_sources_per_destination = 1 << 12;
  l.max_victims = 1 << 14;
  l.max_amplifiers_per_victim = 1 << 12;
  l.max_amplifiers = 1 << 16;
  l.max_pairs = 1 << 16;
  l.max_clusters = 1 << 14;
  l.max_counterparts_per_cluster = 1 << 12;
  l.sketch_k = 256;
  return l;
}

// ---------------------------------------------------------------- members

void MemberStatsBuilder::add(const net::FlowBatch& batch,
                             std::span<const Label> labels) {
  const auto member_in = batch.member_in();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& mc = members_.touch(member_in[i]);
    if (mc.member == net::kNoAsn) {
      mc.member = member_in[i];
      if (ixp_ != nullptr) {
        if (const auto* m = ixp_->find(member_in[i])) mc.type = m->type;
      }
    }
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx_));
    mc.packets[c] += packets[i];
    mc.bytes[c] += static_cast<double>(bytes[i]);
    mc.flows[c] += 1;
  }
}

std::vector<MemberClassCounts> MemberStatsBuilder::finish() const {
  std::vector<MemberClassCounts> out;
  out.reserve(members_.size());
  for (const Asn asn : members_.sorted_keys()) out.push_back(*members_.find(asn));
  return out;
}

// ------------------------------------------------------------------- venn

void VennBuilder::add(const net::FlowBatch& batch,
                      std::span<const Label> labels) {
  const auto member_in = batch.member_in();
  const auto packets = batch.packets();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& mask = members_.touch(member_in[i]);
    if (packets[i] == 0) continue;  // contributes() requires packets > 0
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx_));
    if (c != static_cast<int>(TrafficClass::kValid)) {
      mask = static_cast<std::uint8_t>(mask | (1u << c));
    }
  }
}

VennCounts VennBuilder::finish() const {
  VennCounts v;
  v.member_count = members_.size();
  if (v.member_count == 0) return v;

  double unrouted_members = 0, unrouted_with_other = 0;
  for (const Asn asn : members_.sorted_keys()) {
    const std::uint8_t mask = *members_.find(asn);
    const bool b = mask & (1u << static_cast<int>(TrafficClass::kBogon));
    const bool u = mask & (1u << static_cast<int>(TrafficClass::kUnrouted));
    const bool i = mask & (1u << static_cast<int>(TrafficClass::kInvalid));
    if (!b && !u && !i) v.clean += 1;
    if (b && !u && !i) v.only_bogon += 1;
    if (!b && u && !i) v.only_unrouted += 1;
    if (!b && !u && i) v.only_invalid += 1;
    if (b && u && !i) v.bogon_unrouted += 1;
    if (b && !u && i) v.bogon_invalid += 1;
    if (!b && u && i) v.unrouted_invalid += 1;
    if (b && u && i) v.all_three += 1;
    if (u) {
      unrouted_members += 1;
      if (b || i) unrouted_with_other += 1;
    }
  }
  const double n = static_cast<double>(v.member_count);
  for (double* f : {&v.clean, &v.only_bogon, &v.only_unrouted, &v.only_invalid,
                    &v.bogon_unrouted, &v.bogon_invalid, &v.unrouted_invalid,
                    &v.all_three}) {
    *f /= n;
  }
  v.unrouted_also_other =
      unrouted_members > 0 ? unrouted_with_other / unrouted_members : 0.0;
  return v;
}

// --------------------------------------------------------------- port mix

/// A perfect hash of the tracked ports into 16 slots. Every other slot
/// holds port 0 with bucket 0, so a port that is not tracked maps to
/// bucket 0 ("other") whichever slot it hashes to.
struct PortMixBuilder::BucketMap {
  std::uint32_t mul = 0;
  std::array<std::uint16_t, 16> port{};
  std::array<std::uint8_t, 16> bucket{};

  static constexpr std::size_t slot(std::uint16_t port, std::uint32_t mul) {
    return (port * mul) >> 28;
  }

  /// The first odd multiplier from the Fibonacci one up that sends the
  /// tracked ports to distinct slots.
  static consteval BucketMap build() {
    for (std::uint32_t mul = 0x9e3779b1u;; mul += 2) {
      BucketMap m;
      m.mul = mul;
      bool distinct = true;
      for (std::size_t b = 1; b < kPortBuckets.size() && distinct; ++b) {
        const std::size_t s = slot(kPortBuckets[b], mul);
        distinct = m.bucket[s] == 0;
        m.port[s] = kPortBuckets[b];
        m.bucket[s] = static_cast<std::uint8_t>(b);
      }
      if (distinct) return m;
    }
  }
};

/// Transport index by IP protocol, -1 for neither TCP nor UDP: a lookup,
/// so that the TCP/UDP mix costs no mispredicted branch.
constexpr auto kTransportOf = [] {
  std::array<std::int8_t, 256> t;
  t.fill(-1);
  t[static_cast<std::uint8_t>(net::Proto::kTcp)] =
      static_cast<std::int8_t>(Transport::kTcp);
  t[static_cast<std::uint8_t>(net::Proto::kUdp)] =
      static_cast<std::int8_t>(Transport::kUdp);
  return t;
}();

int PortMixBuilder::bucket_of(std::uint16_t port) {
  static constexpr BucketMap kMap = BucketMap::build();
  const std::size_t s = BucketMap::slot(port, kMap.mul);
  // A mask, not a conditional, so that no compiler makes it a branch.
  return kMap.bucket[s] & -static_cast<int>(kMap.port[s] == port);
}

void PortMixBuilder::add(const net::FlowBatch& batch,
                         std::span<const Label> labels) {
  const auto proto = batch.proto();
  const auto sport = batch.sport();
  const auto dport = batch.dport();
  const auto packets = batch.packets();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const int transport = kTransportOf[proto[i]];
    if (transport < 0) continue;  // Fig 9 covers TCP/UDP only
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx_));
    const auto count = [&](Direction dir, std::uint16_t port) {
      const int d = static_cast<int>(dir);
      const int b = bucket_of(port);
      counts_[c][transport][d][b] += packets[i];
      seen_[c][transport][d] |= static_cast<std::uint8_t>(1u << b);
    };
    count(Direction::kDst, dport[i]);
    count(Direction::kSrc, sport[i]);
  }
}

PortMix PortMixBuilder::finish() const {
  PortMix out;
  for (int c = 0; c < kNumClasses; ++c) {
    for (int t = 0; t < 2; ++t) {
      for (int d = 0; d < 2; ++d) {
        auto& dst = out.shares[c][t][d];
        // Integer-valued sums below 2^53: exact in any order, so this is
        // the packet total a running sum would hold.
        double total = 0.0;
        for (const double n : counts_[c][t][d]) total += n;
        for (std::size_t b = 0; b < kPortBuckets.size(); ++b) {
          if (total > 0 && (seen_[c][t][d] >> b & 1u) != 0) {
            dst.push_back({kPortBuckets[b], counts_[c][t][d][b] / total});
          }
        }
        std::sort(dst.begin(), dst.end(),
                  [](const PortShare& a, const PortShare& b) {
                    return a.fraction > b.fraction;
                  });
      }
    }
  }
  return out;
}

// ----------------------------------------------------- traffic character

namespace {

/// One empty sketch per class, all on `simd`. Built in place rather than
/// assigned over default-constructed ones, which would resolve kAuto
/// (and read SPOOFSCOPE_SIMD) whatever `simd` asks for.
std::array<util::QuantileSketch, kNumClasses> class_sketches(
    std::size_t k, util::SimdKernel simd) {
  static_assert(kNumClasses == 4);
  const util::QuantileSketch empty(k, simd);
  return {empty, empty, empty, empty};
}

}  // namespace

TrafficCharBuilder::TrafficCharBuilder(std::size_t space_idx,
                                       std::uint32_t window_seconds,
                                       std::uint32_t bin_seconds,
                                       std::size_t sketch_k,
                                       double small_threshold,
                                       util::SimdKernel simd)
    : space_idx_(space_idx),
      window_seconds_(window_seconds),
      bin_seconds_(bin_seconds),
      small_threshold_(small_threshold),
      sketches_(class_sketches(sketch_k, simd)) {
  if (window_seconds_ > 0) {
    const std::size_t bins = (window_seconds_ + bin_seconds_ - 1) / bin_seconds_;
    for (auto& s : series_) s.assign(bins, 0.0);
  }
}

std::size_t TrafficCharBuilder::bin_of(std::uint32_t ts) {
  if (window_seconds_ > 0) {
    return std::min<std::size_t>(ts / bin_seconds_, series_[0].size() - 1);
  }
  const std::size_t bin = ts / bin_seconds_;
  if (bin >= series_[0].size()) {
    for (auto& s : series_) s.resize(bin + 1, 0.0);
  }
  return bin;
}

void TrafficCharBuilder::add(const net::FlowBatch& batch,
                             std::span<const Label> labels) {
  const auto ts = batch.ts();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx_));
    series_[c][bin_of(ts[i])] += packets[i];
    if (packets[i] == 0) continue;
    const double mean = static_cast<double>(bytes[i]) / packets[i];
    total_[c] += packets[i];
    if (mean < small_threshold_) small_[c] += packets[i];
    // Weight by sampled packets, capped at 16 per flow.
    sketches_[c].add(mean, std::min(packets[i], 16u));
  }
}

TrafficCharSummary TrafficCharBuilder::finish() const {
  std::array<double, kNumClasses> small_fraction{};
  for (int c = 0; c < kNumClasses; ++c) {
    small_fraction[c] = total_[c] > 0 ? small_[c] / total_[c] : 0.0;
  }
  // Copy-initialised, never default-constructed: see class_sketches().
  return {.series = {.bin_seconds = bin_seconds_, .series = series_},
          .small_packet_fraction = small_fraction,
          .size_sketch = sketches_};
}

// --------------------------------------------------------- attack patterns

AttackPatternsBuilder::AttackPatternsBuilder(std::size_t space_idx,
                                             const ReportLimits& limits)
    : space_idx_(space_idx),
      limits_(limits),
      victims_(limits.max_victims),
      amplifiers_(limits.max_amplifiers) {
  for (auto& t : by_dst_) t.set_cap(limits.max_destinations);
}

void AttackPatternsBuilder::add(const net::FlowBatch& batch,
                                std::span<const Label> labels) {
  const auto src = batch.src();
  const auto dst = batch.dst();
  const auto proto = batch.proto();
  const auto dport = batch.dport();
  const auto packets = batch.packets();
  const auto member_in = batch.member_in();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx_));
    if (c == static_cast<int>(TrafficClass::kValid)) continue;

    // Fig 11a: per-destination source uniqueness.
    auto& info = by_dst_[c].touch(dst[i]);
    info.packets += packets[i];
    info.sources.insert(src[i], limits_.max_sources_per_destination);

    // NTP amplification: Invalid UDP towards port 123.
    if (c != static_cast<int>(TrafficClass::kInvalid)) continue;
    if (!is_udp(proto[i])) continue;
    invalid_udp_ += packets[i];
    if (dport[i] != net::ports::kNtp) continue;
    invalid_udp_ntp_ += packets[i];
    trigger_packets_ += packets[i];
    auto& v = victims_.touch(src[i]);
    v.per_amplifier.set_cap(limits_.max_amplifiers_per_victim);
    v.packets += packets[i];
    v.per_amplifier.touch(dst[i]) += packets[i];
    member_packets_[member_in[i]] += packets[i];
    amplifiers_.touch(dst[i]);
  }
}

SrcRatioHistogram AttackPatternsBuilder::ratio(std::uint32_t min_sampled_packets,
                                               std::size_t bins) const {
  SrcRatioHistogram out;
  out.bins = bins;
  for (int c = 0; c < kNumClasses; ++c) {
    out.fractions[c].assign(bins, 0.0);
    std::size_t qualifying = 0;
    // Each bin counts whole destinations (+1.0), exact in any order.
    by_dst_[c].for_each([&](std::uint32_t, const DstInfo& info) {
      if (info.packets < min_sampled_packets) return;
      ++qualifying;
      const double r = static_cast<double>(info.sources.size()) /
                       static_cast<double>(info.packets);
      const std::size_t bin = std::min(
          bins - 1, static_cast<std::size_t>(r * static_cast<double>(bins)));
      out.fractions[c][bin] += 1.0;
    });
    out.destinations[c] = qualifying;
    if (qualifying > 0) {
      for (auto& f : out.fractions[c]) f /= static_cast<double>(qualifying);
    }
  }
  return out;
}

NtpAnalysis AttackPatternsBuilder::ntp(std::size_t top_victims) const {
  NtpAnalysis out;
  out.trigger_packets = trigger_packets_;
  out.distinct_victims = victims_.size();
  out.contributing_members = member_packets_.size();
  out.amplifiers_contacted = amplifiers_.size();
  out.invalid_udp_ntp_share =
      invalid_udp_ > 0 ? invalid_udp_ntp_ / invalid_udp_ : 0.0;

  if (out.trigger_packets > 0 && !member_packets_.empty()) {
    std::vector<std::uint64_t> per_member;
    per_member.reserve(member_packets_.size());
    for (const auto& [asn, pkts] : member_packets_) per_member.push_back(pkts);
    std::sort(per_member.rbegin(), per_member.rend());
    out.top_member_share =
        static_cast<double>(per_member[0]) / out.trigger_packets;
    std::uint64_t top5 = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, per_member.size());
         ++i) {
      top5 += per_member[i];
    }
    out.top5_member_share = static_cast<double>(top5) / out.trigger_packets;
  }

  // (packets, address) pairs are distinct, so the sort fixes the order
  // whatever order the table is visited in.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  ranked.reserve(victims_.size());
  victims_.for_each([&](std::uint32_t addr, const VictimAgg& agg) {
    ranked.emplace_back(agg.packets, addr);
  });
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min(top_victims, ranked.size()); ++i) {
    const VictimAgg& agg = *victims_.find(ranked[i].second);
    NtpVictim v;
    v.victim = net::Ipv4Addr(ranked[i].second);
    v.trigger_packets = agg.packets;
    v.amplifiers = agg.per_amplifier.size();
    for (const std::uint32_t amp : agg.per_amplifier.sorted_keys()) {
      v.packets_per_amplifier.push_back(*agg.per_amplifier.find(amp));
    }
    std::sort(v.packets_per_amplifier.rbegin(), v.packets_per_amplifier.rend());
    std::vector<double> d(v.packets_per_amplifier.begin(),
                          v.packets_per_amplifier.end());
    v.concentration = util::gini(d);
    out.top_victims.push_back(std::move(v));
  }
  return out;
}

std::uint64_t AttackPatternsBuilder::evictions() const {
  std::uint64_t n = victims_.evictions() + amplifiers_.evictions();
  for (const auto& t : by_dst_) n += t.evictions();
  return n;
}

// ------------------------------------------------------ amplification effect

AmplificationBuilder::AmplificationBuilder(std::size_t space_idx,
                                           std::uint32_t window_seconds,
                                           std::uint32_t bin_seconds,
                                           std::size_t max_pairs)
    : space_idx_(space_idx),
      window_seconds_(window_seconds),
      bin_seconds_(bin_seconds),
      pairs_(max_pairs) {}

AmplificationBuilder::Bin& AmplificationBuilder::PairState::at(
    std::size_t bin) {
  if (!bins.empty() && bins.back().bin == bin) return bins.back();
  auto it = bins.end();
  if (!bins.empty() && bins.back().bin > bin) {
    it = std::lower_bound(bins.begin(), bins.end(), bin,
                          [](const Bin& b, std::size_t x) { return b.bin < x; });
    if (it->bin == bin) return *it;
  }
  return *bins.insert(it, Bin{bin});
}

std::size_t AmplificationBuilder::bin_of(std::uint32_t ts) const {
  const std::size_t bin = ts / bin_seconds_;
  if (window_seconds_ == 0) return bin;
  const std::size_t bins = (window_seconds_ + bin_seconds_ - 1) / bin_seconds_;
  return std::min(bin, bins - 1);
}

void AmplificationBuilder::add(const net::FlowBatch& batch,
                               std::span<const Label> labels) {
  const auto ts = batch.ts();
  const auto src = batch.src();
  const auto dst = batch.dst();
  const auto proto = batch.proto();
  const auto sport = batch.sport();
  const auto dport = batch.dport();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!is_udp(proto[i])) continue;
    const std::uint64_t fwd = (std::uint64_t(src[i]) << 32) | dst[i];
    const std::uint64_t rev = (std::uint64_t(dst[i]) << 32) | src[i];

    // Pair-qualification evidence.
    if (dport[i] == net::ports::kNtp &&
        classify::Classifier::unpack(labels[i], space_idx_) ==
            TrafficClass::kInvalid) {
      pairs_.touch(fwd).trigger = true;
    } else if (sport[i] == net::ports::kNtp) {
      pairs_.touch(rev).response = true;
    }

    // Volume lanes, which are label-agnostic. A flow with both ports
    // NTP contributes "to" if its forward pair qualifies, else "from"
    // if its reverse pair does — deferred to finish() via the dual
    // lanes.
    const std::size_t bin = bin_of(ts[i]);
    if (dport[i] == net::ports::kNtp) {
      Bin& b = pairs_.touch(fwd).at(bin);
      if (sport[i] == net::ports::kNtp) {
        b.dual_packets += packets[i];
        b.dual_bytes += static_cast<double>(bytes[i]);
      } else {
        b.to_packets += packets[i];
        b.to_bytes += static_cast<double>(bytes[i]);
      }
    } else if (sport[i] == net::ports::kNtp) {
      Bin& b = pairs_.touch(rev).at(bin);
      b.from_packets += packets[i];
      b.from_bytes += static_cast<double>(bytes[i]);
    }
  }
}

AmplificationTimeseries AmplificationBuilder::finish() const {
  AmplificationTimeseries out;
  out.bin_seconds = bin_seconds_;
  std::size_t bins = 0;
  if (window_seconds_ > 0) {
    bins = (window_seconds_ + bin_seconds_ - 1) / bin_seconds_;
  } else {
    for (const std::uint64_t key : pairs_.sorted_keys()) {
      const PairState& p = *pairs_.find(key);
      if (!p.bins.empty()) bins = std::max(bins, p.bins.back().bin + 1);
    }
  }
  out.packets_to_amplifier.assign(bins, 0.0);
  out.packets_from_amplifier.assign(bins, 0.0);
  out.bytes_to_amplifier.assign(bins, 0.0);
  out.bytes_from_amplifier.assign(bins, 0.0);

  const auto qualified = [this](std::uint64_t key) {
    const PairState* p = pairs_.find(key);
    return p != nullptr && p->trigger && p->response;
  };
  // Each output bin sums its pairs in key order, "to" before "dual";
  // an untouched lane adds +0.0, which changes no bit.
  for (const std::uint64_t key : pairs_.sorted_keys()) {
    const PairState& p = *pairs_.find(key);
    if (qualified(key)) {
      for (const Bin& b : p.bins) {
        out.packets_to_amplifier[b.bin] += b.to_packets;
        out.bytes_to_amplifier[b.bin] += b.to_bytes;
        out.packets_from_amplifier[b.bin] += b.from_packets;
        out.bytes_from_amplifier[b.bin] += b.from_bytes;
        out.packets_to_amplifier[b.bin] += b.dual_packets;
        out.bytes_to_amplifier[b.bin] += b.dual_bytes;
      }
    } else if (qualified((key << 32) | (key >> 32))) {
      // Dual-port flows stored on an unqualified forward pair fall back
      // to the reverse ("from") direction.
      for (const Bin& b : p.bins) {
        out.packets_from_amplifier[b.bin] += b.dual_packets;
        out.bytes_from_amplifier[b.bin] += b.dual_bytes;
      }
    }
  }
  return out;
}

// -------------------------------------------------------------- incidents

IncidentsBuilder::IncidentsBuilder(std::size_t space_idx, IncidentParams params,
                                   std::size_t max_clusters,
                                   std::size_t max_counterparts)
    : space_idx_(space_idx),
      params_(params),
      max_counterparts_(max_counterparts),
      by_dst_(max_clusters),
      by_trigger_src_(max_clusters) {}

void IncidentsBuilder::add(const net::FlowBatch& batch,
                           std::span<const Label> labels) {
  const auto ts = batch.ts();
  const auto src = batch.src();
  const auto dst = batch.dst();
  const auto proto = batch.proto();
  const auto dport = batch.dport();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  const auto member_in = batch.member_in();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto cls = classify::Classifier::unpack(labels[i], space_idx_);
    if (cls == TrafficClass::kValid) continue;
    const bool trigger_shaped =
        is_udp(proto[i]) && dport[i] == net::ports::kNtp;
    ClusterState& c = trigger_shaped ? by_trigger_src_.touch(src[i])
                                     : by_dst_.touch(dst[i]);
    c.start_ts = std::min(c.start_ts, ts[i]);
    c.end_ts = std::max(c.end_ts, ts[i]);
    c.packets += packets[i];
    c.bytes += bytes[i];
    c.counterparts.insert(trigger_shaped ? dst[i] : src[i], max_counterparts_);
    const auto at =
        std::lower_bound(c.members.begin(), c.members.end(), member_in[i]);
    if (at == c.members.end() || *at != member_in[i]) {
      c.members.insert(at, member_in[i]);
    }
  }
}

std::vector<Incident> IncidentsBuilder::finish() const {
  std::vector<Incident> out;
  const auto emit = [&](IncidentKind kind, std::uint32_t victim,
                        const ClusterState& c, bool counterparts_are_sources) {
    Incident inc;
    inc.kind = kind;
    inc.victim = net::Ipv4Addr(victim);
    inc.start_ts = c.start_ts;
    inc.end_ts = c.end_ts;
    inc.packets = c.packets;
    inc.bytes = c.bytes;
    if (counterparts_are_sources) {
      inc.distinct_sources = c.counterparts.size();
    } else {
      inc.distinct_destinations = c.counterparts.size();
    }
    inc.members = c.members;
    out.push_back(std::move(inc));
  };
  for (const std::uint32_t dst : by_dst_.sorted_keys()) {
    const ClusterState& c = *by_dst_.find(dst);
    if (c.packets < params_.min_packets) continue;
    const double uniqueness = static_cast<double>(c.counterparts.size()) /
                              static_cast<double>(c.packets);
    const IncidentKind kind = uniqueness >= params_.flood_uniqueness
                                  ? IncidentKind::kRandomSpoofFlood
                                  : IncidentKind::kOther;
    emit(kind, dst, c, /*counterparts_are_sources=*/true);
  }
  for (const std::uint32_t src : by_trigger_src_.sorted_keys()) {
    const ClusterState& c = *by_trigger_src_.find(src);
    if (c.packets < params_.min_packets) continue;
    emit(IncidentKind::kAmplification, src, c,
         /*counterparts_are_sources=*/false);
  }
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    return a.victim.value() < b.victim.value();
  });
  return out;
}

// -------------------------------------------------------- the full report

StreamingReport::StreamingReport(std::size_t space_count, ReportOptions opts)
    : opts_(opts),
      aggregate_(space_count),
      members_(opts.space_idx, opts.ixp, opts.limits.max_members),
      venn_(opts.space_idx, opts.limits.max_members),
      ports_(opts.space_idx),
      traffic_(opts.space_idx, opts.window_seconds, opts.bin_seconds,
               opts.limits.sketch_k, opts.small_packet_threshold, opts.simd),
      attacks_(opts.space_idx, opts.limits),
      amplification_(opts.space_idx, opts.window_seconds, opts.bin_seconds,
                     opts.limits.max_pairs),
      incidents_(opts.space_idx, opts.incident_params, opts.limits.max_clusters,
                 opts.limits.max_counterparts_per_cluster) {}

void StreamingReport::add(const net::FlowBatch& batch,
                          std::span<const classify::Label> labels) {
  aggregate_.add(batch, labels);
  members_.add(batch, labels);
  venn_.add(batch, labels);
  ports_.add(batch, labels);
  traffic_.add(batch, labels);
  attacks_.add(batch, labels);
  amplification_.add(batch, labels);
  incidents_.add(batch, labels);
  flows_ += batch.size();
}

std::uint64_t StreamingReport::evictions() const {
  return members_.evictions() + venn_.evictions() + attacks_.evictions() +
         amplification_.evictions() + incidents_.evictions();
}

ReportResult StreamingReport::finish() const {
  // Designated, so the traffic summary's sketches are never
  // default-constructed (see class_sketches()).
  ReportResult r{
      .aggregate = aggregate_.build(),
      .member_counts = members_.finish(),
      .venn = venn_.finish(),
      .strategy_counts = {},
      .ports = ports_.finish(),
      .traffic = traffic_.finish(),
      .src_ratio = attacks_.ratio(opts_.ratio_min_packets, opts_.ratio_bins),
      .ntp = attacks_.ntp(opts_.top_victims),
      .amplification = amplification_.finish(),
      .incidents = incidents_.finish(),
      .flows = flows_,
      .evictions = evictions(),
  };
  for (const auto& mc : r.member_counts) {
    ++r.strategy_counts[static_cast<int>(deduce_strategy(mc))];
  }
  return r;
}

ReportResult report_flows(std::size_t space_count,
                          std::span<const net::FlowRecord> flows,
                          std::span<const classify::Label> labels,
                          const ReportOptions& opts) {
  net::FlowBatch batch;
  batch.reserve(flows.size());
  for (const auto& f : flows) batch.push_back(f);
  StreamingReport report(space_count, opts);
  report.add(batch, labels);
  return report.finish();
}

std::string format_report(const ReportResult& r, std::size_t top_incidents) {
  std::ostringstream os;
  os << format_venn(r.venn);

  os << "Filtering strategies (Sec 5.1):\n";
  for (int s = 0; s < kNumStrategies; ++s) {
    os << "  "
       << util::pad_right(strategy_name(static_cast<FilteringStrategy>(s)), 28)
       << util::pad_left(std::to_string(r.strategy_counts[s]), 6) << "\n";
  }

  {
    std::vector<double> shares;
    shares.reserve(r.member_counts.size());
    for (const auto& mc : r.member_counts) {
      // A member with no sampled packets spoofed nothing (as in Fig 4's
      // bench), not everything.
      shares.push_back(mc.total_packets() == 0
                           ? 0.0
                           : 1.0 - mc.packet_share(TrafficClass::kValid));
    }
    os << "Per-member spoofed packet share (Fig 4): p50 "
       << util::percent(util::quantile(shares, 0.5)) << ", p90 "
       << util::percent(util::quantile(shares, 0.9)) << ", p99 "
       << util::percent(util::quantile(shares, 0.99)) << ", max "
       << util::percent(util::quantile(shares, 1.0)) << "\n";
  }

  os << "Traffic characteristics (Fig 8):\n";
  for (int c = 0; c < kNumClasses; ++c) {
    const auto& sk = r.traffic.size_sketch[c];
    os << "  " << util::pad_right(kClassNames[c], 9) << " median pkt size "
       << util::pad_left(util::fixed(sk.quantile(0.5), 1), 7) << " B, <60B "
       << util::pad_left(util::percent(r.traffic.small_packet_fraction[c]), 8)
       << ", burstiness "
       << util::fixed(burstiness(r.traffic.series.series[c]), 2)
       << ", diurnality "
       << util::fixed(
              diurnality(r.traffic.series.series[c], r.traffic.series.bin_seconds),
              2)
       << "\n";
  }

  os << format_port_mix(r.ports);

  os << "Src-per-dst uniqueness (Fig 11a), qualifying destinations:";
  for (int c = 0; c < kNumClasses; ++c) {
    if (c == static_cast<int>(TrafficClass::kValid)) continue;
    os << " " << kClassNames[c] << "=" << r.src_ratio.destinations[c];
  }
  os << "\n";

  os << "NTP amplification: " << r.ntp.trigger_packets << " trigger pkts from "
     << r.ntp.distinct_victims << " victim IPs towards "
     << r.ntp.amplifiers_contacted << " amplifiers; top member share "
     << util::percent(r.ntp.top_member_share) << "\n";
  os << "Amplification effect (Fig 11c): byte factor x"
     << util::fixed(r.amplification.amplification_factor(), 2)
     << ", packet ratio "
     << util::fixed(r.amplification.packet_ratio(), 2) << "\n";

  os << format_incidents(r.incidents, top_incidents);

  if (r.evictions > 0) {
    os << "note: " << r.evictions
       << " bounded-table evictions; tail entries are approximate\n";
  }
  return os.str();
}

}  // namespace spoofscope::analysis
