// Differential harness for the streaming analysis plane (DESIGN.md §12):
// with unbounded limits, every incremental report builder must reproduce
// the whole-trace reference functions defined below bit-identically —
// across seeds, classification engines, thread counts, batch sizes,
// arbitrary batch-boundary cuts and records out of time order — and the
// sketched packet-size quantiles must stay within their pinned
// rank-error bound. Also pins skip-mode streaming over corrupted
// traces to the clean-survivor-restricted oracle, determinism under
// finite caps, golden digests of whole (evicting and production)
// reports, and the BoundedTable LRU eviction discipline itself, against
// the map + recency-set table it replaced, which also stands as the
// reference for CappedDistinctSet's size().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/filtering_strategy.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table1.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "corruption.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace.hpp"
#include "net/trace_format.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::analysis {
namespace {

using classify::Label;

/// Scenario builds dominate the suite's runtime; the differential seeds
/// reuse one world per seed (tests only read from it).
scenario::Scenario& world(std::uint64_t seed) {
  static std::map<std::uint64_t, std::unique_ptr<scenario::Scenario>> cache;
  auto& slot = cache[seed];
  if (!slot) {
    auto params = scenario::ScenarioParams::small();
    params.seed = seed;
    slot = scenario::build_scenario(params);
  }
  return *slot;
}

/// Feeds `flows` through the report in batches of `batch_size`, so batch
/// boundaries land at every multiple of it — the boundary-cut sweep runs
/// this with sizes from 1 to the whole trace.
void feed(StreamingReport& report, std::span<const net::FlowRecord> flows,
          std::span<const Label> labels, std::size_t batch_size) {
  net::FlowBatch batch;
  std::size_t i = 0;
  while (i < flows.size()) {
    const std::size_t n = std::min(batch_size, flows.size() - i);
    batch.clear();
    for (std::size_t k = 0; k < n; ++k) batch.push_back(flows[i + k]);
    report.add(batch, labels.subspan(i, n));
    i += n;
  }
}

ReportOptions base_options(scenario::Scenario& w, std::size_t space_idx,
                           std::uint32_t window_seconds) {
  ReportOptions opts;
  opts.space_idx = space_idx;
  opts.window_seconds = window_seconds;
  opts.ixp = &w.ixp();
  return opts;
}

/// Caps small enough that every bounded table of a small world evicts.
ReportLimits capped_limits() {
  ReportLimits l;
  l.max_members = 8;
  l.max_destinations = 16;
  l.max_sources_per_destination = 8;
  l.max_victims = 8;
  l.max_amplifiers_per_victim = 8;
  l.max_amplifiers = 16;
  l.max_pairs = 16;
  l.max_clusters = 8;
  l.max_counterparts_per_cluster = 8;
  l.sketch_k = 64;
  return l;
}

// ---------------------------------------------------- whole-trace reference

// The whole-trace implementation each report builder replaced, kept as
// the reference the builders are compared against: one function per
// analysis, each walking every flow of a materialized trace with
// ordinary maps and sets. Nothing outside this test runs them.

std::vector<MemberClassCounts> per_member_counts(
    std::span<const net::FlowRecord> flows, std::span<const Label> labels,
    std::size_t space_idx, const ixp::Ixp& ixp) {
  std::map<Asn, MemberClassCounts> by_member;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    auto& mc = by_member[f.member_in];
    if (mc.member == net::kNoAsn) {
      mc.member = f.member_in;
      if (const auto* m = ixp.find(f.member_in)) mc.type = m->type;
    }
    const auto c = static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    mc.packets[c] += f.packets;
    mc.bytes[c] += static_cast<double>(f.bytes);
    mc.flows[c] += 1;
  }
  std::vector<MemberClassCounts> out;
  out.reserve(by_member.size());
  for (const auto& [asn, mc] : by_member) out.push_back(mc);
  return out;
}

VennCounts venn_membership(std::span<const MemberClassCounts> counts) {
  VennCounts v;
  v.member_count = counts.size();
  if (counts.empty()) return v;

  double unrouted_members = 0, unrouted_with_other = 0;
  for (const auto& mc : counts) {
    const bool b = mc.contributes(TrafficClass::kBogon);
    const bool u = mc.contributes(TrafficClass::kUnrouted);
    const bool i = mc.contributes(TrafficClass::kInvalid);
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
  const double n = static_cast<double>(counts.size());
  for (double* f : {&v.clean, &v.only_bogon, &v.only_unrouted, &v.only_invalid,
                    &v.bogon_unrouted, &v.bogon_invalid, &v.unrouted_invalid,
                    &v.all_three}) {
    *f /= n;
  }
  v.unrouted_also_other =
      unrouted_members > 0 ? unrouted_with_other / unrouted_members : 0.0;
  return v;
}

PortMix port_mix(std::span<const net::FlowRecord> flows,
                 std::span<const Label> labels, std::size_t space_idx) {
  // counts[class][transport][direction][port-bucket]
  std::map<std::uint16_t, double> counts[kNumClasses][2][2];
  double totals[kNumClasses][2][2] = {};

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    int transport;
    if (f.proto == net::Proto::kTcp) {
      transport = static_cast<int>(Transport::kTcp);
    } else if (f.proto == net::Proto::kUdp) {
      transport = static_cast<int>(Transport::kUdp);
    } else {
      continue;  // Fig 9 covers TCP/UDP only
    }
    const auto c = static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    const auto bucket = [](std::uint16_t port) -> std::uint16_t {
      return net::is_tracked_port(port) ? port : 0;
    };
    counts[c][transport][static_cast<int>(Direction::kDst)][bucket(f.dport)] +=
        f.packets;
    counts[c][transport][static_cast<int>(Direction::kSrc)][bucket(f.sport)] +=
        f.packets;
    totals[c][transport][static_cast<int>(Direction::kDst)] += f.packets;
    totals[c][transport][static_cast<int>(Direction::kSrc)] += f.packets;
  }

  PortMix out;
  for (int c = 0; c < kNumClasses; ++c) {
    for (int t = 0; t < 2; ++t) {
      for (int d = 0; d < 2; ++d) {
        auto& dst = out.shares[c][t][d];
        const double total = totals[c][t][d];
        for (const auto& [port, pkts] : counts[c][t][d]) {
          if (total > 0) dst.push_back({port, pkts / total});
        }
        std::sort(dst.begin(), dst.end(), [](const PortShare& a, const PortShare& b) {
          return a.fraction > b.fraction;
        });
      }
    }
  }
  return out;
}

std::array<std::vector<util::DistPoint>, kNumClasses> packet_size_cdfs(
    std::span<const net::FlowRecord> flows, std::span<const Label> labels,
    std::size_t space_idx) {
  std::array<std::vector<double>, kNumClasses> sizes;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto c = static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    if (flows[i].packets == 0) continue;
    // Weight by sampled packets, capped to keep memory in check.
    const std::uint32_t w = std::min(flows[i].packets, 16u);
    for (std::uint32_t k = 0; k < w; ++k) {
      sizes[c].push_back(flows[i].mean_packet_size());
    }
  }
  std::array<std::vector<util::DistPoint>, kNumClasses> out;
  for (int c = 0; c < kNumClasses; ++c) out[c] = util::empirical_cdf(sizes[c]);
  return out;
}

double small_packet_fraction(std::span<const net::FlowRecord> flows,
                             std::span<const Label> labels,
                             std::size_t space_idx, TrafficClass cls,
                             double threshold = 60.0) {
  double total = 0, small = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (classify::Classifier::unpack(labels[i], space_idx) != cls) continue;
    total += flows[i].packets;
    if (flows[i].mean_packet_size() < threshold) small += flows[i].packets;
  }
  return total > 0 ? small / total : 0.0;
}

ClassTimeSeries class_time_series(std::span<const net::FlowRecord> flows,
                                  std::span<const Label> labels,
                                  std::size_t space_idx,
                                  std::uint32_t window_seconds,
                                  std::uint32_t bin_seconds = 3600) {
  ClassTimeSeries out;
  out.bin_seconds = bin_seconds;
  const std::size_t bins = (window_seconds + bin_seconds - 1) / bin_seconds;
  for (auto& s : out.series) s.assign(bins, 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto c = static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    const std::size_t bin = std::min<std::size_t>(flows[i].ts / bin_seconds, bins - 1);
    out.series[c][bin] += flows[i].packets;
  }
  return out;
}

SrcRatioHistogram src_per_dst_ratio(std::span<const net::FlowRecord> flows,
                                    std::span<const Label> labels,
                                    std::size_t space_idx,
                                    std::uint32_t min_sampled_packets = 50,
                                    std::size_t bins = 10) {
  struct DstInfo {
    std::uint64_t packets = 0;
    std::unordered_set<std::uint32_t> sources;
  };
  std::array<std::unordered_map<std::uint32_t, DstInfo>, kNumClasses> by_dst;

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto c = static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    if (c == static_cast<int>(TrafficClass::kValid)) continue;
    auto& info = by_dst[c][flows[i].dst.value()];
    info.packets += flows[i].packets;
    info.sources.insert(flows[i].src.value());
  }

  SrcRatioHistogram out;
  out.bins = bins;
  for (int c = 0; c < kNumClasses; ++c) {
    out.fractions[c].assign(bins, 0.0);
    std::size_t qualifying = 0;
    for (const auto& [dst, info] : by_dst[c]) {
      if (info.packets < min_sampled_packets) continue;
      ++qualifying;
      const double ratio = static_cast<double>(info.sources.size()) /
                           static_cast<double>(info.packets);
      const std::size_t bin = std::min(
          bins - 1, static_cast<std::size_t>(ratio * static_cast<double>(bins)));
      out.fractions[c][bin] += 1.0;
    }
    out.destinations[c] = qualifying;
    if (qualifying > 0) {
      for (auto& f : out.fractions[c]) f /= static_cast<double>(qualifying);
    }
  }
  return out;
}

NtpAnalysis analyze_ntp(std::span<const net::FlowRecord> flows,
                        std::span<const Label> labels, std::size_t space_idx,
                        std::size_t top_victims = 10) {
  NtpAnalysis out;

  struct VictimAgg {
    std::uint64_t packets = 0;
    std::map<std::uint32_t, std::uint64_t> per_amplifier;
  };
  std::unordered_map<std::uint32_t, VictimAgg> victims;
  std::map<Asn, std::uint64_t> member_packets;
  std::set<std::uint32_t> amplifiers;
  double invalid_udp = 0, invalid_udp_ntp = 0;

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    if (classify::Classifier::unpack(labels[i], space_idx) !=
        TrafficClass::kInvalid) {
      continue;
    }
    if (f.proto != net::Proto::kUdp) continue;
    invalid_udp += f.packets;
    if (f.dport != net::ports::kNtp) continue;
    invalid_udp_ntp += f.packets;

    out.trigger_packets += f.packets;
    auto& v = victims[f.src.value()];
    v.packets += f.packets;
    v.per_amplifier[f.dst.value()] += f.packets;
    member_packets[f.member_in] += f.packets;
    amplifiers.insert(f.dst.value());
  }

  out.distinct_victims = victims.size();
  out.contributing_members = member_packets.size();
  out.amplifiers_contacted = amplifiers.size();
  out.invalid_udp_ntp_share = invalid_udp > 0 ? invalid_udp_ntp / invalid_udp : 0.0;

  if (out.trigger_packets > 0 && !member_packets.empty()) {
    std::vector<std::uint64_t> per_member;
    per_member.reserve(member_packets.size());
    for (const auto& [asn, pkts] : member_packets) per_member.push_back(pkts);
    std::sort(per_member.rbegin(), per_member.rend());
    out.top_member_share =
        static_cast<double>(per_member[0]) / out.trigger_packets;
    std::uint64_t top5 = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, per_member.size()); ++i) {
      top5 += per_member[i];
    }
    out.top5_member_share = static_cast<double>(top5) / out.trigger_packets;
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [addr, agg] : victims) ranked.emplace_back(agg.packets, addr);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min(top_victims, ranked.size()); ++i) {
    const auto& agg = victims.at(ranked[i].second);
    NtpVictim v;
    v.victim = net::Ipv4Addr(ranked[i].second);
    v.trigger_packets = agg.packets;
    v.amplifiers = agg.per_amplifier.size();
    for (const auto& [amp, pkts] : agg.per_amplifier) {
      v.packets_per_amplifier.push_back(pkts);
    }
    std::sort(v.packets_per_amplifier.rbegin(), v.packets_per_amplifier.rend());
    std::vector<double> d(v.packets_per_amplifier.begin(),
                          v.packets_per_amplifier.end());
    v.concentration = util::gini(d);
    out.top_victims.push_back(std::move(v));
  }
  return out;
}

AmplificationTimeseries amplification_effect(
    std::span<const net::FlowRecord> flows, std::span<const Label> labels,
    std::size_t space_idx, std::uint32_t window_seconds,
    std::uint32_t bin_seconds = 3600) {
  AmplificationTimeseries out;
  out.bin_seconds = bin_seconds;
  const std::size_t bins = (window_seconds + bin_seconds - 1) / bin_seconds;
  out.packets_to_amplifier.assign(bins, 0.0);
  out.packets_from_amplifier.assign(bins, 0.0);
  out.bytes_to_amplifier.assign(bins, 0.0);
  out.bytes_from_amplifier.assign(bins, 0.0);

  // Pass 1: identify (victim, amplifier) pairs for which *both* the
  // Invalid NTP trigger and the amplifier's response cross the fabric —
  // the paper isolates exactly these pairs to measure the effect.
  std::unordered_set<std::uint64_t> trigger_pairs;
  std::unordered_set<std::uint64_t> response_pairs;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    if (f.proto != net::Proto::kUdp) continue;
    if (f.dport == net::ports::kNtp &&
        classify::Classifier::unpack(labels[i], space_idx) ==
            TrafficClass::kInvalid) {
      trigger_pairs.insert((std::uint64_t(f.src.value()) << 32) | f.dst.value());
    } else if (f.sport == net::ports::kNtp) {
      response_pairs.insert((std::uint64_t(f.dst.value()) << 32) | f.src.value());
    }
  }
  std::unordered_set<std::uint64_t> pairs;
  for (const std::uint64_t p : trigger_pairs) {
    if (response_pairs.count(p)) pairs.insert(p);
  }

  // Pass 2: accumulate both directions for pairs seen as triggers.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    if (f.proto != net::Proto::kUdp) continue;
    const std::size_t bin = std::min<std::size_t>(f.ts / bin_seconds, bins - 1);
    if (f.dport == net::ports::kNtp &&
        pairs.count((std::uint64_t(f.src.value()) << 32) | f.dst.value())) {
      out.packets_to_amplifier[bin] += f.packets;
      out.bytes_to_amplifier[bin] += static_cast<double>(f.bytes);
    } else if (f.sport == net::ports::kNtp &&
               pairs.count((std::uint64_t(f.dst.value()) << 32) |
                           f.src.value())) {
      out.packets_from_amplifier[bin] += f.packets;
      out.bytes_from_amplifier[bin] += static_cast<double>(f.bytes);
    }
  }
  return out;
}

struct Cluster {
  std::uint32_t start_ts = ~0u;
  std::uint32_t end_ts = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::unordered_set<std::uint32_t> counterparts;  // srcs or dsts
  std::unordered_set<Asn> members;

  void add(const net::FlowRecord& f, std::uint32_t counterpart) {
    start_ts = std::min(start_ts, f.ts);
    end_ts = std::max(end_ts, f.ts);
    packets += f.packets;
    bytes += f.bytes;
    counterparts.insert(counterpart);
    members.insert(f.member_in);
  }
};

Incident to_incident(IncidentKind kind, net::Ipv4Addr victim, const Cluster& c,
                     bool counterparts_are_sources) {
  Incident inc;
  inc.kind = kind;
  inc.victim = victim;
  inc.start_ts = c.start_ts;
  inc.end_ts = c.end_ts;
  inc.packets = c.packets;
  inc.bytes = c.bytes;
  if (counterparts_are_sources) {
    inc.distinct_sources = c.counterparts.size();
  } else {
    inc.distinct_destinations = c.counterparts.size();
  }
  inc.members.assign(c.members.begin(), c.members.end());
  std::sort(inc.members.begin(), inc.members.end());
  return inc;
}

std::vector<Incident> extract_incidents(std::span<const net::FlowRecord> flows,
                                        std::span<const Label> labels,
                                        std::size_t space_idx,
                                        const IncidentParams& params = {}) {
  // Flood candidates: flagged flows grouped by destination (counterparts
  // are the spoofed sources). Amplification candidates: flagged UDP/123
  // flows grouped by *source* (the reflection victim; counterparts are
  // the amplifiers).
  std::unordered_map<std::uint32_t, Cluster> by_dst;
  std::unordered_map<std::uint32_t, Cluster> by_trigger_src;

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto cls = classify::Classifier::unpack(labels[i], space_idx);
    if (cls == TrafficClass::kValid) continue;
    const auto& f = flows[i];
    const bool trigger_shaped =
        f.proto == net::Proto::kUdp && f.dport == net::ports::kNtp;
    if (trigger_shaped) {
      by_trigger_src[f.src.value()].add(f, f.dst.value());
    } else {
      by_dst[f.dst.value()].add(f, f.src.value());
    }
  }

  std::vector<Incident> out;
  for (const auto& [dst, c] : by_dst) {
    if (c.packets < params.min_packets) continue;
    const double uniqueness =
        static_cast<double>(c.counterparts.size()) / static_cast<double>(c.packets);
    const IncidentKind kind = uniqueness >= params.flood_uniqueness
                                  ? IncidentKind::kRandomSpoofFlood
                                  : IncidentKind::kOther;
    out.push_back(to_incident(kind, net::Ipv4Addr(dst), c,
                              /*counterparts_are_sources=*/true));
  }
  for (const auto& [src, c] : by_trigger_src) {
    if (c.packets < params.min_packets) continue;
    // Trigger traffic is selective by construction of the grouping (one
    // spoofed source); classify it as amplification.
    out.push_back(to_incident(IncidentKind::kAmplification, net::Ipv4Addr(src),
                              c, /*counterparts_are_sources=*/false));
  }
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    return a.victim.value() < b.victim.value();
  });
  return out;
}

// ----------------------------------------------------- oracle computation

/// Every analysis of one report, computed by the whole-trace reference
/// functions above.
struct OracleReport {
  classify::Aggregate aggregate;
  std::vector<MemberClassCounts> member_counts;
  VennCounts venn;
  std::array<std::size_t, kNumStrategies> strategy_counts{};
  PortMix ports;
  ClassTimeSeries series;
  std::array<double, kNumClasses> small_fraction{};
  SrcRatioHistogram src_ratio;
  NtpAnalysis ntp;
  AmplificationTimeseries amplification;
  std::vector<Incident> incidents;
};

OracleReport oracle_report(std::span<const net::FlowRecord> flows,
                           std::span<const Label> labels,
                           std::size_t space_count, std::size_t space_idx,
                           const ixp::Ixp& ixp, std::uint32_t window_seconds) {
  OracleReport o;
  o.aggregate = classify::aggregate_classes(space_count, flows, labels);
  o.member_counts = per_member_counts(flows, labels, space_idx, ixp);
  o.venn = venn_membership(o.member_counts);
  for (const auto& mc : o.member_counts) {
    ++o.strategy_counts[static_cast<int>(deduce_strategy(mc))];
  }
  o.ports = port_mix(flows, labels, space_idx);
  o.series = class_time_series(flows, labels, space_idx, window_seconds);
  for (int c = 0; c < kNumClasses; ++c) {
    o.small_fraction[c] = small_packet_fraction(
        flows, labels, space_idx, static_cast<TrafficClass>(c));
  }
  o.src_ratio = src_per_dst_ratio(flows, labels, space_idx);
  o.ntp = analyze_ntp(flows, labels, space_idx);
  o.amplification =
      amplification_effect(flows, labels, space_idx, window_seconds);
  o.incidents = extract_incidents(flows, labels, space_idx);
  return o;
}

/// Ground-truth weighted packet-size samples per class — the exact input
/// packet_size_cdfs() materializes, against which the sketch is judged.
struct RankOracle {
  std::vector<double> values;       ///< sorted distinct sample values
  std::vector<std::uint64_t> cum;   ///< cumulative weight up to values[i]

  void build(std::vector<std::pair<double, std::uint64_t>> samples) {
    std::sort(samples.begin(), samples.end());
    for (const auto& [v, w] : samples) {
      if (!values.empty() && values.back() == v) {
        cum.back() += w;
      } else {
        values.push_back(v);
        cum.push_back((cum.empty() ? 0 : cum.back()) + w);
      }
    }
  }
  std::uint64_t rank(double x) const {
    const auto it = std::upper_bound(values.begin(), values.end(), x);
    return it == values.begin() ? 0
                                : cum[static_cast<std::size_t>(
                                      it - values.begin() - 1)];
  }
  std::uint64_t total() const { return cum.empty() ? 0 : cum.back(); }
};

/// The (flow, label) pairs in one seeded random order: records out of
/// time order, as real exports deliver them (generated traces come
/// sorted by timestamp).
std::pair<std::vector<net::FlowRecord>, std::vector<Label>> shuffled(
    std::span<const net::FlowRecord> flows, std::span<const Label> labels,
    std::uint64_t seed) {
  std::vector<net::FlowRecord> f(flows.begin(), flows.end());
  std::vector<Label> l(labels.begin(), labels.end());
  util::Rng rng(seed);
  for (std::size_t i = f.size(); i > 1; --i) {
    const std::size_t j = rng.index(i);
    std::swap(f[i - 1], f[j]);
    std::swap(l[i - 1], l[j]);
  }
  return {std::move(f), std::move(l)};
}

std::array<RankOracle, kNumClasses> size_rank_oracles(
    std::span<const net::FlowRecord> flows, std::span<const Label> labels,
    std::size_t space_idx) {
  std::array<std::vector<std::pair<double, std::uint64_t>>, kNumClasses> raw;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].packets == 0) continue;  // same skip as packet_size_cdfs
    const auto c =
        static_cast<int>(classify::Classifier::unpack(labels[i], space_idx));
    const double mean =
        static_cast<double>(flows[i].bytes) / flows[i].packets;
    raw[c].emplace_back(mean, std::min<std::uint64_t>(flows[i].packets, 16));
  }
  std::array<RankOracle, kNumClasses> out;
  for (int c = 0; c < kNumClasses; ++c) out[c].build(std::move(raw[c]));
  return out;
}

// ------------------------------------------------------------ comparators

void expect_same_aggregate(const classify::Aggregate& a,
                           const classify::Aggregate& b, const char* what) {
  EXPECT_EQ(a.total_flows, b.total_flows) << what;
  EXPECT_EQ(a.total_packets, b.total_packets) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  ASSERT_EQ(a.totals.size(), b.totals.size()) << what;
  for (std::size_t s = 0; s < a.totals.size(); ++s) {
    for (int c = 0; c < kNumClasses; ++c) {
      EXPECT_EQ(a.totals[s][c].flows, b.totals[s][c].flows)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].packets, b.totals[s][c].packets)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].bytes, b.totals[s][c].bytes)
          << what << " space=" << s << " class=" << c;
      EXPECT_EQ(a.totals[s][c].members, b.totals[s][c].members)
          << what << " space=" << s << " class=" << c;
    }
  }
}

void expect_same_member_counts(std::span<const MemberClassCounts> a,
                               std::span<const MemberClassCounts> b,
                               const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].member, b[i].member) << what << " i=" << i;
    EXPECT_EQ(a[i].type, b[i].type) << what << " i=" << i;
    for (int c = 0; c < kNumClasses; ++c) {
      EXPECT_EQ(a[i].packets[c], b[i].packets[c])
          << what << " member=" << a[i].member << " class=" << c;
      EXPECT_EQ(a[i].bytes[c], b[i].bytes[c])
          << what << " member=" << a[i].member << " class=" << c;
      EXPECT_EQ(a[i].flows[c], b[i].flows[c])
          << what << " member=" << a[i].member << " class=" << c;
    }
  }
}

void expect_same_venn(const VennCounts& a, const VennCounts& b,
                      const char* what) {
  EXPECT_EQ(a.member_count, b.member_count) << what;
  EXPECT_EQ(a.clean, b.clean) << what;
  EXPECT_EQ(a.only_bogon, b.only_bogon) << what;
  EXPECT_EQ(a.only_unrouted, b.only_unrouted) << what;
  EXPECT_EQ(a.only_invalid, b.only_invalid) << what;
  EXPECT_EQ(a.bogon_unrouted, b.bogon_unrouted) << what;
  EXPECT_EQ(a.bogon_invalid, b.bogon_invalid) << what;
  EXPECT_EQ(a.unrouted_invalid, b.unrouted_invalid) << what;
  EXPECT_EQ(a.all_three, b.all_three) << what;
  EXPECT_EQ(a.unrouted_also_other, b.unrouted_also_other) << what;
}

void expect_same_port_mix(const PortMix& a, const PortMix& b,
                          const char* what) {
  for (int c = 0; c < kNumClasses; ++c) {
    for (int t = 0; t < 2; ++t) {
      for (int d = 0; d < 2; ++d) {
        const auto& xa = a.shares[c][t][d];
        const auto& xb = b.shares[c][t][d];
        ASSERT_EQ(xa.size(), xb.size())
            << what << " c=" << c << " t=" << t << " d=" << d;
        for (std::size_t i = 0; i < xa.size(); ++i) {
          EXPECT_EQ(xa[i].port, xb[i].port)
              << what << " c=" << c << " t=" << t << " d=" << d << " i=" << i;
          EXPECT_EQ(xa[i].fraction, xb[i].fraction)
              << what << " c=" << c << " t=" << t << " d=" << d << " i=" << i;
        }
      }
    }
  }
}

void expect_same_series(const ClassTimeSeries& a, const ClassTimeSeries& b,
                        const char* what) {
  EXPECT_EQ(a.bin_seconds, b.bin_seconds) << what;
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(a.series[c], b.series[c]) << what << " class=" << c;
  }
}

void expect_same_ratio(const SrcRatioHistogram& a, const SrcRatioHistogram& b,
                       const char* what) {
  EXPECT_EQ(a.bins, b.bins) << what;
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(a.destinations[c], b.destinations[c]) << what << " class=" << c;
    EXPECT_EQ(a.fractions[c], b.fractions[c]) << what << " class=" << c;
  }
}

void expect_same_ntp(const NtpAnalysis& a, const NtpAnalysis& b,
                     const char* what) {
  EXPECT_EQ(a.trigger_packets, b.trigger_packets) << what;
  EXPECT_EQ(a.distinct_victims, b.distinct_victims) << what;
  EXPECT_EQ(a.contributing_members, b.contributing_members) << what;
  EXPECT_EQ(a.amplifiers_contacted, b.amplifiers_contacted) << what;
  EXPECT_EQ(a.top_member_share, b.top_member_share) << what;
  EXPECT_EQ(a.top5_member_share, b.top5_member_share) << what;
  EXPECT_EQ(a.invalid_udp_ntp_share, b.invalid_udp_ntp_share) << what;
  ASSERT_EQ(a.top_victims.size(), b.top_victims.size()) << what;
  for (std::size_t i = 0; i < a.top_victims.size(); ++i) {
    const auto& va = a.top_victims[i];
    const auto& vb = b.top_victims[i];
    EXPECT_EQ(va.victim, vb.victim) << what << " victim=" << i;
    EXPECT_EQ(va.trigger_packets, vb.trigger_packets) << what << " victim=" << i;
    EXPECT_EQ(va.amplifiers, vb.amplifiers) << what << " victim=" << i;
    EXPECT_EQ(va.packets_per_amplifier, vb.packets_per_amplifier)
        << what << " victim=" << i;
    EXPECT_EQ(va.concentration, vb.concentration) << what << " victim=" << i;
  }
}

void expect_same_amplification(const AmplificationTimeseries& a,
                               const AmplificationTimeseries& b,
                               const char* what) {
  EXPECT_EQ(a.bin_seconds, b.bin_seconds) << what;
  EXPECT_EQ(a.packets_to_amplifier, b.packets_to_amplifier) << what;
  EXPECT_EQ(a.packets_from_amplifier, b.packets_from_amplifier) << what;
  EXPECT_EQ(a.bytes_to_amplifier, b.bytes_to_amplifier) << what;
  EXPECT_EQ(a.bytes_from_amplifier, b.bytes_from_amplifier) << what;
}

void expect_same_incidents(std::span<const Incident> a,
                           std::span<const Incident> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << what << " i=" << i;
    EXPECT_EQ(a[i].victim, b[i].victim) << what << " i=" << i;
    EXPECT_EQ(a[i].start_ts, b[i].start_ts) << what << " i=" << i;
    EXPECT_EQ(a[i].end_ts, b[i].end_ts) << what << " i=" << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << what << " i=" << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << what << " i=" << i;
    EXPECT_EQ(a[i].distinct_sources, b[i].distinct_sources) << what << " i=" << i;
    EXPECT_EQ(a[i].distinct_destinations, b[i].distinct_destinations)
        << what << " i=" << i;
    EXPECT_EQ(a[i].members, b[i].members) << what << " i=" << i;
  }
}

/// Streaming result vs the retained oracle — everything but the sketches
/// (handled separately, they have no oracle counterpart to be equal to).
void expect_matches_oracle(const ReportResult& r, const OracleReport& o,
                           const char* what) {
  expect_same_aggregate(r.aggregate, o.aggregate, what);
  expect_same_member_counts(r.member_counts, o.member_counts, what);
  expect_same_venn(r.venn, o.venn, what);
  EXPECT_EQ(r.strategy_counts, o.strategy_counts) << what;
  expect_same_port_mix(r.ports, o.ports, what);
  expect_same_series(r.traffic.series, o.series, what);
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(r.traffic.small_packet_fraction[c], o.small_fraction[c])
        << what << " class=" << c;
  }
  expect_same_ratio(r.src_ratio, o.src_ratio, what);
  expect_same_ntp(r.ntp, o.ntp, what);
  expect_same_amplification(r.amplification, o.amplification, what);
  expect_same_incidents(r.incidents, o.incidents, what);
}

constexpr double kSketchProbes[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

/// Streaming result vs another streaming result. `exact_sketches` demands
/// bit-identical sketch quantiles (true whenever both sides saw the same
/// per-record insertion sequence, regardless of batch boundaries).
void expect_same_report(const ReportResult& a, const ReportResult& b,
                        bool exact_sketches, const char* what) {
  EXPECT_EQ(a.flows, b.flows) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  expect_same_aggregate(a.aggregate, b.aggregate, what);
  expect_same_member_counts(a.member_counts, b.member_counts, what);
  expect_same_venn(a.venn, b.venn, what);
  EXPECT_EQ(a.strategy_counts, b.strategy_counts) << what;
  expect_same_port_mix(a.ports, b.ports, what);
  expect_same_series(a.traffic.series, b.traffic.series, what);
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(a.traffic.small_packet_fraction[c],
              b.traffic.small_packet_fraction[c])
        << what << " class=" << c;
    EXPECT_EQ(a.traffic.size_sketch[c].count(),
              b.traffic.size_sketch[c].count())
        << what << " class=" << c;
    if (exact_sketches) {
      for (const double q : kSketchProbes) {
        EXPECT_EQ(a.traffic.size_sketch[c].quantile(q),
                  b.traffic.size_sketch[c].quantile(q))
            << what << " class=" << c << " q=" << q;
      }
    }
  }
  expect_same_ratio(a.src_ratio, b.src_ratio, what);
  expect_same_ntp(a.ntp, b.ntp, what);
  expect_same_amplification(a.amplification, b.amplification, what);
  expect_same_incidents(a.incidents, b.incidents, what);
}

/// Every rank estimate of the sketch must be within its self-reported
/// error bound of the ground truth, and the bound itself must be a small
/// fraction of the stream.
void expect_sketch_within_bound(const util::QuantileSketch& sketch,
                                const RankOracle& truth, const char* what) {
  ASSERT_EQ(sketch.count(), truth.total()) << what;
  if (truth.total() == 0) return;
  // Probe every distinct sample value (strided down for very long lists).
  const std::size_t stride = std::max<std::size_t>(1, truth.values.size() / 2000);
  for (std::size_t i = 0; i < truth.values.size(); i += stride) {
    const double x = truth.values[i];
    const std::uint64_t est = sketch.rank(x);
    const std::uint64_t exact = truth.rank(x);
    const std::uint64_t diff = est > exact ? est - exact : exact - est;
    EXPECT_LE(diff, sketch.rank_error_bound()) << what << " value=" << x;
  }
  if (truth.total() >= 4096) {
    EXPECT_LT(static_cast<double>(sketch.rank_error_bound()) /
                  static_cast<double>(truth.total()),
              0.10)
        << what;
  }
}

/// FNV-1a-64 over every field of a ReportResult: doubles by bit pattern,
/// containers with their lengths, each sketch by count, retained size,
/// error bound and a 101-point quantile grid.
class ReportDigest {
 public:
  explicit ReportDigest(const ReportResult& r) {
    const auto& agg = r.aggregate;
    f64(agg.total_flows);
    f64(agg.total_packets);
    f64(agg.total_bytes);
    u64(agg.totals.size());
    for (const auto& space : agg.totals) {
      for (const auto& t : space) {
        f64(t.flows);
        f64(t.packets);
        f64(t.bytes);
        u64(t.members);
      }
    }
    u64(r.member_counts.size());
    for (const auto& mc : r.member_counts) {
      u64(mc.member);
      u64(static_cast<std::uint64_t>(mc.type));
      for (int c = 0; c < kNumClasses; ++c) {
        f64(mc.packets[c]);
        f64(mc.bytes[c]);
        f64(mc.flows[c]);
      }
    }
    const auto& v = r.venn;
    u64(v.member_count);
    for (const double f : {v.clean, v.only_bogon, v.only_unrouted,
                           v.only_invalid, v.bogon_unrouted, v.bogon_invalid,
                           v.unrouted_invalid, v.all_three,
                           v.unrouted_also_other}) {
      f64(f);
    }
    for (const std::size_t n : r.strategy_counts) u64(n);
    for (const auto& by_transport : r.ports.shares) {
      for (const auto& by_direction : by_transport) {
        for (const auto& shares : by_direction) {
          u64(shares.size());
          for (const auto& s : shares) {
            u64(s.port);
            f64(s.fraction);
          }
        }
      }
    }
    u64(r.traffic.series.bin_seconds);
    for (const auto& s : r.traffic.series.series) series(s);
    for (const double f : r.traffic.small_packet_fraction) f64(f);
    for (const auto& sk : r.traffic.size_sketch) {
      u64(sk.count());
      u64(sk.retained());
      u64(sk.rank_error_bound());
      for (int q = 0; q <= 100; ++q) f64(sk.quantile(q / 100.0));
    }
    u64(r.src_ratio.bins);
    for (int c = 0; c < kNumClasses; ++c) {
      u64(r.src_ratio.destinations[c]);
      series(r.src_ratio.fractions[c]);
    }
    const auto& ntp = r.ntp;
    u64(ntp.trigger_packets);
    u64(ntp.distinct_victims);
    u64(ntp.contributing_members);
    u64(ntp.amplifiers_contacted);
    f64(ntp.top_member_share);
    f64(ntp.top5_member_share);
    f64(ntp.invalid_udp_ntp_share);
    u64(ntp.top_victims.size());
    for (const auto& tv : ntp.top_victims) {
      u64(tv.victim.value());
      u64(tv.trigger_packets);
      u64(tv.amplifiers);
      u64(tv.packets_per_amplifier.size());
      for (const std::uint64_t p : tv.packets_per_amplifier) u64(p);
      f64(tv.concentration);
    }
    const auto& amp = r.amplification;
    u64(amp.bin_seconds);
    series(amp.packets_to_amplifier);
    series(amp.packets_from_amplifier);
    series(amp.bytes_to_amplifier);
    series(amp.bytes_from_amplifier);
    u64(r.incidents.size());
    for (const auto& inc : r.incidents) {
      u64(static_cast<std::uint64_t>(inc.kind));
      u64(inc.victim.value());
      u64(inc.start_ts);
      u64(inc.end_ts);
      u64(inc.packets);
      u64(inc.bytes);
      u64(inc.distinct_sources);
      u64(inc.distinct_destinations);
      u64(inc.members.size());
      for (const Asn m : inc.members) u64(m);
    }
    u64(r.flows);
    u64(r.evictions);
  }

  std::uint64_t value() const { return h_; }

 private:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void series(const std::vector<double>& s) {
    u64(s.size());
    for (const double x : s) f64(x);
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ------------------------------------------------------------------ tests

class StreamingOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

// Tentpole claim: for every inference space, the streaming report equals
// the whole-trace reference bit-for-bit, no matter where batch
// boundaries fall — including degenerate one-record batches and a single
// whole-trace batch — or in which order the records arrive. The sketched
// quantiles are additionally batch-cut independent (identical insertion
// sequence => identical sketch) and within their rank-error bound of the
// ground truth.
TEST_P(StreamingOracleTest, MatchesOracleAcrossBatchCutsAndSpaces) {
  auto& w = world(GetParam());
  const auto& flows = w.trace().flows;
  const auto& labels = w.labels();
  const std::size_t space_count = w.classifier().space_count();
  const std::uint32_t window = w.params().workload.window_seconds;
  const auto [mixed_flows, mixed_labels] =
      shuffled(flows, labels, GetParam() ^ 0xd15041du);

  const std::size_t batch_sizes[] = {1, 7, 64, 4096, flows.size()};
  for (const std::size_t space : {std::size_t{0}, space_count - 1}) {
    const auto oracle =
        oracle_report(flows, labels, space_count, space, w.ixp(), window);
    const auto truth = size_rank_oracles(flows, labels, space);

    // The rank oracle weighs exactly the samples packet_size_cdfs() ranks.
    const auto cdfs = packet_size_cdfs(flows, labels, space);
    for (int c = 0; c < kNumClasses; ++c) {
      ASSERT_EQ(cdfs[c].size(), truth[c].values.size()) << "class=" << c;
      for (std::size_t i = 0; i < cdfs[c].size(); ++i) {
        EXPECT_EQ(cdfs[c][i].x, truth[c].values[i]) << "class=" << c;
        EXPECT_EQ(cdfs[c][i].y, static_cast<double>(truth[c].cum[i]) /
                                    static_cast<double>(truth[c].total()))
            << "class=" << c;
      }
    }

    ReportResult reference;
    bool have_reference = false;
    for (const std::size_t bs : batch_sizes) {
      StreamingReport report(space_count, base_options(w, space, window));
      feed(report, flows, labels, bs);
      const auto result = report.finish();
      const std::string what =
          "space=" + std::to_string(space) + " batch=" + std::to_string(bs);

      EXPECT_EQ(result.flows, flows.size()) << what;
      EXPECT_EQ(result.evictions, 0u) << what;
      expect_matches_oracle(result, oracle, what.c_str());
      for (int c = 0; c < kNumClasses; ++c) {
        expect_sketch_within_bound(result.traffic.size_sketch[c], truth[c],
                                   what.c_str());
      }
      if (!have_reference) {
        reference = result;
        have_reference = true;
      } else {
        expect_same_report(result, reference, /*exact_sketches=*/true,
                           what.c_str());
      }
    }

    // Out of time order: every exact field equals both the reference over
    // the shuffled flows and the time-sorted pass.
    StreamingReport report(space_count, base_options(w, space, window));
    feed(report, mixed_flows, mixed_labels, 64);
    const auto result = report.finish();
    const std::string what = "space=" + std::to_string(space) + " shuffled";
    expect_matches_oracle(result,
                          oracle_report(mixed_flows, mixed_labels, space_count,
                                        space, w.ixp(), window),
                          what.c_str());
    expect_same_report(result, reference, /*exact_sketches=*/false,
                       what.c_str());
    for (int c = 0; c < kNumClasses; ++c) {
      expect_sketch_within_bound(result.traffic.size_sketch[c], truth[c],
                                 what.c_str());
    }
  }
}

// Table 1 is a pure function of the aggregate, so the streaming pass must
// feed it the exact same columns the retained path would.
TEST_P(StreamingOracleTest, Table1FromStreamingAggregateMatchesOracle) {
  auto& w = world(GetParam());
  const auto& flows = w.trace().flows;
  const auto& labels = w.labels();
  const std::size_t space_count = w.classifier().space_count();
  ASSERT_GE(space_count, 5u);  // table1 wants all five method spaces

  StreamingReport report(
      space_count, base_options(w, 0, w.params().workload.window_seconds));
  feed(report, flows, labels, 1024);
  const auto result = report.finish();

  const auto oracle_agg = classify::aggregate_classes(space_count, flows, labels);
  const double scale = 1000.0;
  const std::size_t members = w.ixp().member_asns().size();
  const auto got = table1_columns(result.aggregate, scale, members);
  const auto want = table1_columns(oracle_agg, scale, members);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << "col=" << i;
    EXPECT_EQ(got[i].members, want[i].members) << "col=" << i;
    EXPECT_EQ(got[i].member_fraction, want[i].member_fraction) << "col=" << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "col=" << i;
    EXPECT_EQ(got[i].bytes_fraction, want[i].bytes_fraction) << "col=" << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << "col=" << i;
    EXPECT_EQ(got[i].packets_fraction, want[i].packets_fraction) << "col=" << i;
  }
}

// With window_seconds == 0 the time series grows with the observed
// timestamps; sized to what it grew to, the oracle must agree exactly.
// The amplification ratios are binning-independent totals, so they must
// match the fixed-window oracle too. A shuffled pass must match the
// sorted one.
TEST_P(StreamingOracleTest, DynamicWindowSeriesMatchesSizedOracle) {
  auto& w = world(GetParam());
  const auto& flows = w.trace().flows;
  const auto& labels = w.labels();
  const std::size_t space_count = w.classifier().space_count();

  StreamingReport report(space_count, base_options(w, 0, /*window=*/0));
  feed(report, flows, labels, 512);
  const auto result = report.finish();

  std::uint32_t max_ts = 0;
  for (const auto& f : flows) max_ts = std::max(max_ts, f.ts);
  const std::uint32_t grown_bins = max_ts / 3600 + 1;
  ASSERT_EQ(result.traffic.series.series[0].size(), grown_bins);
  const auto oracle_series =
      class_time_series(flows, labels, 0, grown_bins * 3600);
  expect_same_series(result.traffic.series, oracle_series, "dynamic window");

  const auto oracle_amp = amplification_effect(
      flows, labels, 0, w.params().workload.window_seconds);
  EXPECT_EQ(result.amplification.amplification_factor(),
            oracle_amp.amplification_factor());
  EXPECT_EQ(result.amplification.packet_ratio(), oracle_amp.packet_ratio());

  // Out of time order the bins grow, and each pair's bins fill, in
  // another order; not one exact bit may move.
  const auto [mixed_flows, mixed_labels] =
      shuffled(flows, labels, GetParam() ^ 0xd15041du);
  StreamingReport mixed(space_count, base_options(w, 0, /*window=*/0));
  feed(mixed, mixed_flows, mixed_labels, 512);
  expect_same_report(mixed.finish(), result, /*exact_sketches=*/false,
                     "dynamic window, shuffled");
}

// finish() is a snapshot: flushing mid-stream (and mid-time-bin) must
// yield exactly the oracle over the prefix, and the builder must keep
// accumulating afterwards as if the flush never happened.
TEST_P(StreamingOracleTest, MidStreamFlushIsPrefixOracleAndNonDestructive) {
  auto& w = world(GetParam());
  const std::span<const net::FlowRecord> flows = w.trace().flows;
  const std::span<const Label> labels = w.labels();
  const std::size_t space_count = w.classifier().space_count();
  const std::uint32_t window = w.params().workload.window_seconds;
  const std::size_t half = flows.size() / 2;

  StreamingReport report(space_count, base_options(w, 0, window));
  feed(report, flows.first(half), labels.first(half), 7);
  const auto mid = report.finish();
  const auto prefix_oracle = oracle_report(
      flows.first(half), labels.first(half), space_count, 0, w.ixp(), window);
  EXPECT_EQ(mid.flows, half);
  expect_matches_oracle(mid, prefix_oracle, "mid-stream flush");

  feed(report, flows.subspan(half), labels.subspan(half), 7);
  StreamingReport sequential(space_count, base_options(w, 0, window));
  feed(sequential, flows, labels, 4096);
  expect_same_report(report.finish(), sequential.finish(),
                     /*exact_sketches=*/true, "after flush");
}

// Labels from the trie oracle, and from the plane on any thread count,
// must drive the report to the same result as the scenario's own labels.
TEST_P(StreamingOracleTest, EnginesAndThreadCountsProduceIdenticalReports) {
  auto& w = world(GetParam());
  const auto& flows = w.trace().flows;
  const std::size_t space_count = w.classifier().space_count();
  const auto opts = base_options(w, 0, w.params().workload.window_seconds);
  const auto flat = classify::FlatClassifier::compile(w.classifier());

  StreamingReport reference(space_count, opts);
  feed(reference, flows, w.labels(), 1024);
  const auto want = reference.finish();

  constexpr std::size_t kThreadCounts[] = {1, 2, 0};
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    for (const bool use_flat : {false, true}) {
      // The trie oracle classifies sequentially; only the plane has a
      // pooled batch path.
      if (!use_flat && threads != 1) continue;
      StreamingReport report(space_count, opts);
      net::FlowBatch batch;
      std::vector<Label> labels;
      std::size_t i = 0;
      while (i < flows.size()) {
        const std::size_t n = std::min<std::size_t>(1024, flows.size() - i);
        batch.clear();
        for (std::size_t k = 0; k < n; ++k) batch.push_back(flows[i + k]);
        labels.resize(batch.size());
        if (use_flat) {
          flat.classify_batch(batch, labels, pool);
        } else {
          w.classifier().classify_batch(batch, labels);
        }
        report.add(batch, labels);
        i += n;
      }
      const std::string what = std::string(use_flat ? "flat" : "trie") +
                               " threads=" + std::to_string(threads);
      expect_same_report(report.finish(), want, /*exact_sketches=*/true,
                         what.c_str());
    }
  }
}

// Corruption differential: a skip-mode streaming report over a damaged
// trace must equal the oracle restricted to the records a whole-stream
// skip-mode read survives; strict mode must refuse the stream.
TEST_P(StreamingOracleTest, CorruptedSkipModeMatchesSurvivorOracle) {
  auto& w = world(GetParam());
  const std::size_t space_count = w.classifier().space_count();
  const std::uint32_t window = w.params().workload.window_seconds;
  const auto flat = classify::FlatClassifier::compile(w.classifier());

  std::stringstream ss;
  net::write_trace(ss, w.trace());
  const std::string clean = ss.str();

  util::Rng flip_rng(GetParam() ^ 0x5eedau);
  util::Rng splice_rng(GetParam() ^ 0x9a11u);
  const std::string corrupted[] = {
      testing::flip_bits(clean, flip_rng, 3, net::format::kHeaderSizeV2),
      testing::splice_garbage(clean, splice_rng, net::format::kHeaderSizeV2),
  };
  for (const auto& bytes : corrupted) {
    // Reference: whole-stream skip-mode survivors through the oracle.
    std::istringstream in(bytes, std::ios::binary);
    util::IngestStats ref_stats;
    const auto survivors =
        net::read_trace(in, util::ErrorPolicy::kSkip, &ref_stats).flows;
    ASSERT_LT(survivors.size(), w.trace().flows.size());  // damage landed
    const auto labels = classify::classify_trace(flat, survivors);
    const auto oracle = oracle_report(survivors, labels, space_count, 0,
                                      w.ixp(), window);

    // Streaming: mmap-style skip-mode batches straight into the report.
    const net::MappedTrace trace = net::MappedTrace::from_buffer(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    util::IngestStats stream_stats;
    net::MappedTraceReader mapped(trace, util::ErrorPolicy::kSkip,
                                  &stream_stats);
    util::ThreadPool pool(2);
    StreamingReport report(space_count, base_options(w, 0, window));
    net::FlowBatch batch;
    std::vector<Label> batch_labels;
    while (mapped.next_batch(batch, 512) > 0) {
      batch_labels.resize(batch.size());
      flat.classify_batch(batch, batch_labels, pool);
      report.add(batch, batch_labels);
    }

    EXPECT_EQ(stream_stats, ref_stats);
    const auto result = report.finish();
    EXPECT_EQ(result.flows, survivors.size());
    expect_matches_oracle(result, oracle, "corrupted/skip");

    // Strict mode refuses the same bytes.
    net::MappedTraceReader strict(trace, util::ErrorPolicy::kStrict);
    EXPECT_THROW(
        {
          net::FlowBatch b;
          while (strict.next_batch(b, 512) > 0) {
          }
        },
        std::exception);
  }
}

// Under finite caps the results degrade but stay a pure function of the
// record sequence: identical across batch cuts, evictions visible, and
// tables bounded. Production limits are far above the small-world sizes,
// so they must reproduce the unbounded result exactly.
TEST_P(StreamingOracleTest, BoundedCapsAreDeterministicAcrossBatchCuts) {
  auto& w = world(GetParam());
  const auto& flows = w.trace().flows;
  const auto& labels = w.labels();
  const std::size_t space_count = w.classifier().space_count();
  const std::uint32_t window = w.params().workload.window_seconds;

  auto opts = base_options(w, 0, window);
  opts.limits = capped_limits();

  ReportResult reference;
  bool have_reference = false;
  for (const std::size_t bs : {std::size_t{1}, std::size_t{64}, flows.size()}) {
    StreamingReport report(space_count, opts);
    feed(report, flows, labels, bs);
    const auto result = report.finish();
    const std::string what = "capped batch=" + std::to_string(bs);
    EXPECT_GT(result.evictions, 0u) << what;
    EXPECT_LE(result.member_counts.size(), opts.limits.max_members) << what;
    if (!have_reference) {
      reference = result;
      have_reference = true;
    } else {
      expect_same_report(result, reference, /*exact_sketches=*/true,
                         what.c_str());
    }
  }

  // Production caps dwarf the small world: no evictions, oracle-exact.
  auto prod = base_options(w, 0, window);
  prod.limits = ReportLimits::production();
  StreamingReport bounded(space_count, prod);
  feed(bounded, flows, labels, 4096);
  StreamingReport unbounded(space_count, base_options(w, 0, window));
  feed(unbounded, flows, labels, 4096);
  const auto bounded_result = bounded.finish();
  EXPECT_EQ(bounded_result.evictions, 0u);
  expect_same_report(bounded_result, unbounded.finish(),
                     /*exact_sketches=*/true, "production limits");
}

/// Report digests (ReportDigest) and eviction totals recorded with the
/// previous table and sketch implementations: an unordered_map plus a
/// std::set recency index, and a compactor fed one sample at a time that
/// std::sort-ed every full level. The capped report evicts from every
/// bounded table, so a changed eviction order changes its digest.
struct GoldenReport {
  std::uint64_t seed;
  std::uint64_t capped_evictions;
  std::uint64_t capped_digest;
  std::uint64_t production_digest;
};
constexpr GoldenReport kGoldenReports[] = {
    {1, 51268, 0x9c02732867f00656ull, 0x289d50bf2154d1e7ull},
    {7, 54701, 0xdfc31c1a120cc21eull, 0x601fcd770cf13f0full},
    {20170205, 22934, 0x1c72ba8286219307ull, 0x44d6b0f3ef7c2edaull},
};

TEST_P(StreamingOracleTest, GoldenReportDigestsHold) {
  auto& w = world(GetParam());
  const auto* golden =
      std::find_if(std::begin(kGoldenReports), std::end(kGoldenReports),
                   [&](const GoldenReport& g) { return g.seed == GetParam(); });
  ASSERT_NE(golden, std::end(kGoldenReports));
  const std::uint32_t window = w.params().workload.window_seconds;
  // Every sketch kernel must produce the same bytes.
  for (const util::SimdKernel kernel : util::usable_simd_kernels()) {
    const auto run = [&](const ReportLimits& limits) {
      auto opts = base_options(w, 0, window);
      opts.limits = limits;
      opts.simd = kernel;
      StreamingReport report(w.classifier().space_count(), opts);
      feed(report, w.trace().flows, w.labels(), 4096);
      return report.finish();
    };

    SCOPED_TRACE(util::simd_kernel_name(kernel));
    const auto capped = run(capped_limits());
    const auto production = run(ReportLimits::production());
    EXPECT_EQ(capped.evictions, golden->capped_evictions);
    EXPECT_EQ(ReportDigest(capped).value(), golden->capped_digest);
    EXPECT_EQ(production.evictions, 0u);
    EXPECT_EQ(ReportDigest(production).value(), golden->production_digest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingOracleTest,
                         ::testing::Values(1, 7, 20170205));

// The LRU discipline itself: least-recently-touched eviction, refresh on
// touch, visible eviction counts and live re-capping.
TEST(BoundedTableTest, LruEvictionDiscipline) {
  BoundedTable<int, int> table(2);
  table.touch(1) = 10;
  table.touch(2) = 20;
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 0u);

  table.touch(1);     // refresh: 2 becomes least-recently-touched
  table.touch(3) = 30;  // evicts 2
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_EQ(*table.find(1), 10);
  EXPECT_EQ(table.find(2), nullptr);
  ASSERT_NE(table.find(3), nullptr);
  EXPECT_EQ(table.sorted_keys(), (std::vector<int>{1, 3}));

  // A re-inserted key counts as fresh — its old recency is gone.
  table.touch(2) = 21;  // evicts 1: touch order is now 1 (refresh), 3, 2
  EXPECT_EQ(table.evictions(), 2u);
  EXPECT_EQ(table.find(1), nullptr);

  // Shrinking the cap evicts down immediately, oldest first.
  table.set_cap(1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.evictions(), 3u);
  ASSERT_NE(table.find(2), nullptr);  // 2 was touched last

  // Cap 0 = unbounded.
  table.set_cap(0);
  for (int k = 10; k < 20; ++k) table.touch(k) = k;
  EXPECT_EQ(table.size(), 11u);
  EXPECT_EQ(table.evictions(), 3u);
}

// A member whose only flow carries 0 sampled packets spoofed nothing: its
// Fig 4 share is 0, not 1 - 0.
TEST(FormatReportTest, MemberWithoutPacketsHasZeroSpoofedShare) {
  net::FlowBatch batch;
  net::FlowRecord clean;
  clean.packets = 10;
  clean.bytes = 4000;
  clean.member_in = 100;
  batch.push_back(clean);
  net::FlowRecord empty;
  empty.member_in = 200;
  batch.push_back(empty);
  const Label labels[] = {static_cast<Label>(TrafficClass::kValid),
                          static_cast<Label>(TrafficClass::kInvalid)};

  StreamingReport report(1);
  report.add(batch, labels);
  const auto result = report.finish();
  ASSERT_EQ(result.member_counts.size(), 2u);
  EXPECT_EQ(result.member_counts[1].total_packets(), 0.0);
  EXPECT_NE(format_report(result).find(
                "Per-member spoofed packet share (Fig 4): p50 0.00%, p90 "
                "0.00%, p99 0.00%, max 0.00%\n"),
            std::string::npos)
      << format_report(result);
}

/// The table BoundedTable replaced, kept as its reference: a hash map of
/// entries plus a std::set of (last touch, key) recency pairs.
template <typename Key, typename Value>
class ReferenceTable {
 public:
  ReferenceTable() = default;
  explicit ReferenceTable(std::size_t max_entries)
      : max_entries_(max_entries) {}

  Value& touch(const Key& key) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      recency_.erase({it->second.last_touch, key});
      it->second.last_touch = ++seq_;
      recency_.insert({it->second.last_touch, key});
      return it->second.value;
    }
    if (max_entries_ != 0 && entries_.size() >= max_entries_) evict_oldest();
    Entry fresh;
    fresh.last_touch = ++seq_;
    const auto ins = entries_.emplace(key, std::move(fresh)).first;
    recency_.insert({ins->second.last_touch, key});
    return ins->second.value;
  }

  const Value* find(const Key& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.value;
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }

  void set_cap(std::size_t max_entries) {
    max_entries_ = max_entries;
    while (max_entries_ != 0 && entries_.size() > max_entries_) evict_oldest();
  }

  std::vector<Key> sorted_keys() const {
    std::vector<Key> keys;
    for (const auto& [k, e] : entries_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  void evict_oldest() {
    const auto victim = *recency_.begin();
    recency_.erase(recency_.begin());
    entries_.erase(victim.second);
    ++evictions_;
  }

  struct Entry {
    Value value{};
    std::uint64_t last_touch = 0;
  };
  std::size_t max_entries_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t evictions_ = 0;
  std::unordered_map<Key, Entry> entries_;
  std::set<std::pair<std::uint64_t, Key>> recency_;
};

::testing::AssertionResult same_value(std::uint64_t a, std::uint64_t b) {
  if (a == b) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " != " << b;
}

template <typename Key, typename Got, typename Want>
::testing::AssertionResult same_value(const BoundedTable<Key, Got>& got,
                                      const ReferenceTable<Key, Want>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  if (got.evictions() != want.evictions()) {
    return ::testing::AssertionFailure()
           << "evictions " << got.evictions() << " != " << want.evictions();
  }
  const auto keys = want.sorted_keys();
  if (got.sorted_keys() != keys) {
    return ::testing::AssertionFailure() << "sorted_keys differ";
  }
  for (const Key k : keys) {
    const auto* g = got.find(k);
    if (g == nullptr) return ::testing::AssertionFailure() << "missing " << k;
    const auto inner = same_value(*g, *want.find(k));
    if (!inner) {
      return ::testing::AssertionFailure() << "key " << k << ": "
                                           << inner.message();
    }
  }
  return ::testing::AssertionSuccess();
}

/// One random step on a table pair: mostly touches that add to the
/// value over a small key domain, sometimes a re-cap (shrink, grow or
/// unbounded) or a lookup.
template <typename Key>
struct RandomTableOps {
  util::Rng rng;
  std::uint64_t domain;

  Key key() {
    const std::uint64_t k = rng.uniform_u64(0, domain - 1);
    // Spread u64 keys over both halves, like the (src, dst) pair keys.
    if constexpr (sizeof(Key) == 8) {
      return static_cast<Key>((k % 7) << 32 | k);
    }
    return static_cast<Key>(k);
  }
  std::size_t cap() {
    constexpr std::size_t kCaps[] = {0, 1, 2, 3, 5, 8, 13, 64, 300};
    return kCaps[rng.index(std::size(kCaps))];
  }

  template <typename Got, typename Want>
  void step(Got& got, Want& want) {
    const std::uint64_t op = rng.index(100);
    if (op < 88) {
      const Key k = key();
      const std::uint64_t w = 1 + rng.index(1000);
      got.touch(k) += w;
      want.touch(k) += w;
    } else if (op < 94) {
      const std::size_t c = cap();
      got.set_cap(c);
      want.set_cap(c);
    } else {
      const Key k = key();
      ASSERT_EQ(got.find(k) == nullptr, want.find(k) == nullptr);
    }
  }
};

// Differential: the slab table evicts and re-caps exactly like the
// map + recency-set table it replaced, for u32 and u64 keys, over small
// key domains (constant eviction) and large ones (index growth).
TEST(BoundedTableTest, SlabTableMatchesReferenceTable) {
  const auto run = [](auto key_tag, std::uint64_t seed, std::uint64_t domain) {
    using Key = decltype(key_tag);
    RandomTableOps<Key> ops{util::Rng(seed), domain};
    const std::size_t cap0 = ops.cap();
    BoundedTable<Key, std::uint64_t> got(cap0);
    ReferenceTable<Key, std::uint64_t> want(cap0);
    for (int i = 0; i < 4000; ++i) {
      ops.step(got, want);
      ASSERT_TRUE(same_value(got, want))
          << "seed=" << seed << " domain=" << domain << " step=" << i;
    }
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::uint64_t domain : {4u, 40u, 3000u}) {
      run(std::uint32_t{}, seed, domain);
      run(std::uint64_t{}, seed, domain);
    }
  }
}

// Tables nested as values, re-capped on every touch as the report
// builders do; the outer table evicts whole inner tables.
TEST(BoundedTableTest, NestedSlabTablesMatchReferenceTables) {
  using Inner = BoundedTable<std::uint32_t, std::uint64_t>;
  using InnerRef = ReferenceTable<std::uint32_t, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomTableOps<std::uint32_t> outer_keys{util::Rng(seed), 24};
    RandomTableOps<std::uint32_t> inner_keys{util::Rng(seed ^ 0xabcdu), 50};
    const std::size_t outer_cap = 1 + seed % 6;
    const std::size_t inner_cap = seed % 3 == 0 ? 0 : 4 + seed;
    BoundedTable<std::uint32_t, Inner> got(outer_cap);
    ReferenceTable<std::uint32_t, InnerRef> want(outer_cap);
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 150; ++i) {
        const std::uint32_t k = outer_keys.key();
        auto& gi = got.touch(k);
        auto& wi = want.touch(k);
        gi.set_cap(inner_cap);
        wi.set_cap(inner_cap);
        inner_keys.step(gi, wi);
      }
      ASSERT_TRUE(same_value(got, want))
          << "seed=" << seed << " round=" << round;
      const std::size_t recap = round % 4 == 3 ? 0 : 1 + (round + seed) % 7;
      got.set_cap(recap);
      want.set_cap(recap);
      ASSERT_TRUE(same_value(got, want))
          << "seed=" << seed << " round=" << round << " recapped";
    }
  }
}

// An entry evicted at the cap is recycled in place: a nested table comes
// back as BoundedTable{} (unbounded, no evictions, empty) whatever its
// cap and evictions were, and keeps working as a fresh one would.
TEST(BoundedTableTest, RecycledNestedTableEqualsFreshOne) {
  BoundedTable<std::uint32_t, BoundedTable<std::uint32_t, std::uint64_t>> outer(1);
  auto& first = outer.touch(1);
  first.set_cap(2);
  for (std::uint32_t k = 0; k < 5; ++k) first.touch(k) = k;
  ASSERT_EQ(first.evictions(), 3u);

  auto& recycled = outer.touch(2);  // evicts key 1, recycling its table
  EXPECT_EQ(outer.evictions(), 1u);
  EXPECT_EQ(recycled.size(), 0u);
  EXPECT_EQ(recycled.cap(), 0u);
  EXPECT_EQ(recycled.evictions(), 0u);
  EXPECT_TRUE(recycled.sorted_keys().empty());
  for (std::uint32_t k = 0; k < 5; ++k) EXPECT_EQ(recycled.find(k), nullptr);
  for (std::uint32_t k = 10; k < 40; ++k) recycled.touch(k) = k;
  EXPECT_EQ(recycled.size(), 30u);
  EXPECT_EQ(recycled.evictions(), 0u);
  ASSERT_NE(recycled.find(39), nullptr);
  EXPECT_EQ(*recycled.find(39), 39u);
}

/// Random steps on a CappedDistinctSet and the capped reference table
/// whose size() it stands for: inserts over a key domain that holds 0
/// and 0xFFFFFFFF, and now and then recycling. Checks size() after
/// every step and counts the steps that leave the set saturated.
struct DistinctSetOps {
  using Ref = ReferenceTable<std::uint32_t, char>;
  util::Rng rng;
  std::size_t cap;
  std::uint64_t domain;
  std::size_t saturated_steps = 0;

  std::uint32_t key() {
    const std::uint64_t k = rng.uniform_u64(0, domain - 1);
    if (k == 0) return 0;
    if (k == 1) return 0xFFFFFFFFu;
    return static_cast<std::uint32_t>(k * 0x9e3779b9u);  // spread over u32
  }

  void run(CappedDistinctSet& got, Ref& want, std::size_t steps) {
    for (std::size_t i = 0; i < steps; ++i) {
      if (rng.index(100) != 0) {
        const std::uint32_t k = key();
        got.insert(k, cap);
        want.touch(k);
      } else {
        got.clear();  // recycled, as BoundedTable recycles an evicted value
        want = Ref(cap);
      }
      ASSERT_EQ(got.size(), want.size())
          << "cap=" << cap << " domain=" << domain << " step=" << i;
      saturated_steps += cap != 0 && want.size() == cap;
    }
  }
};

// Differential: size() equals the capped LRU table's size() at every
// step, for caps {0, 1, 2, 8, 64} over key domains that stay below the
// cap, cross it and dwarf it; every capped run over a domain larger
// than its cap saturates.
TEST(CappedDistinctSetTest, SizeMatchesCappedReferenceTable) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t cap : {0u, 1u, 2u, 8u, 64u}) {
      for (const std::uint64_t domain : {3u, 12u, 100u, 1000u}) {
        DistinctSetOps ops{util::Rng(seed * 131 + cap * 7 + domain), cap, domain};
        CappedDistinctSet got;
        DistinctSetOps::Ref want(cap);
        ops.run(got, want, 1500);
        if (HasFatalFailure()) return;
        if (cap != 0 && domain > cap) {
          EXPECT_GT(ops.saturated_steps, 0u) << cap << " " << domain;
        }
      }
    }
  }
}

// Inserts saturate a set at the cap, whatever keys come after (0 and
// 0xFFFFFFFF included); a recycled set counts from zero again; cap 0
// never saturates.
TEST(CappedDistinctSetTest, SaturationAndRecycling) {
  constexpr std::size_t kCap = 8;
  CappedDistinctSet full;
  for (std::uint32_t k = 0; k < 20; ++k) full.insert(k, kCap);
  EXPECT_EQ(full.size(), kCap);
  full.insert(0xFFFFFFFFu, kCap);
  full.insert(0, kCap);
  EXPECT_EQ(full.size(), kCap);

  CappedDistinctSet below;
  for (const std::uint32_t k : {0u, 3u, 3u, 0xFFFFFFFFu, 5u}) below.insert(k, kCap);
  EXPECT_EQ(below.size(), 4u);  // below the cap, exact

  full.clear();
  EXPECT_EQ(full.size(), 0u);
  for (const std::uint32_t k : {0u, 0xFFFFFFFFu, 7u, 7u, 0u}) full.insert(k, kCap);
  EXPECT_EQ(full.size(), 3u);

  CappedDistinctSet unbounded;
  for (std::uint32_t k = 0; k < 5000; ++k) unbounded.insert(k * 2654435761u, 0);
  EXPECT_EQ(unbounded.size(), 5000u);
}

}  // namespace
}  // namespace spoofscope::analysis
