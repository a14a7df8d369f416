// Bounded-memory streaming analysis builders (DESIGN.md §12): the one
// implementation of every Sec 5-7 analysis — member stats, Venn,
// filtering strategies, port mix, traffic characteristics, attack
// patterns, NTP amplification, incidents — plus the Table 1 aggregate
// through classify::AggregateBuilder. Each is an incremental builder
// with an `add(batch, labels)` / `finish()` shape, fed straight from
// net::MappedTrace + net::FlowBatch lanes; StreamingReport runs them
// all, and report_flows() runs it over flows already in memory. State
// is bounded:
//
//  - per-key accumulators (members, destinations, victims, amplifier
//    sets, incident clusters) live in BoundedTable, which applies the
//    same deterministic LRU discipline StreamingDetector uses for
//    member windows: at the cap, the least-recently-touched entry is
//    evicted, and every eviction is counted;
//  - distinct counts that nothing reads but their size (sources per
//    destination, an incident's counterparts) use CappedDistinctSet,
//    whose size() is the one the capped LRU table would report;
//  - distribution summaries (packet-size CDFs) use util::QuantileSketch
//    instead of materialized sample vectors;
//  - the global time series bins are fixed by the window length (or
//    grow with the observed timestamps — O(duration / bin), not
//    O(flows)); each amplification pair keeps only the bins it touched.
//
// Determinism contract: every builder is a pure function of the record
// sequence it was fed — no hash-order or wall-clock dependence — so
// results are bit-identical regardless of where batch boundaries fall,
// and finish() may be called mid-stream (the builder stays usable).
// With unbounded limits (the default), every exact analysis reproduces
// the whole-trace reference in tests/analysis_streaming_oracle_test.cpp
// bit-identically; sketched quantiles carry a pinned rank-error bound.
// That test pins all of this differentially.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/attack_patterns.hpp"
#include "analysis/filtering_strategy.hpp"
#include "analysis/incidents.hpp"
#include "analysis/member_stats.hpp"
#include "analysis/portmix.hpp"
#include "analysis/traffic_char.hpp"
#include "analysis/venn.hpp"
#include "classify/pipeline.hpp"
#include "net/flow_batch.hpp"
#include "net/protocols.hpp"
#include "util/stats.hpp"

namespace spoofscope::analysis {

/// Deterministic bounded key->value accumulator table. Mirrors the
/// StreamingDetector member-window discipline: admitting a new key at
/// the cap evicts the least-recently-touched entry (recency is a pure
/// function of the touch sequence), and evictions are counted so
/// degraded results are visible rather than silent. max_entries == 0
/// means unbounded (the oracle-exact configuration).
///
/// Layout: an index and two dense arrays by slab position.
///  - index_: open-addressed {key, slab position} slots (Fibonacci
///    hashing, linear probing, load <= 1/2, backward-shift delete), so
///    probing and deletion compare keys without reading a slab entry;
///  - nodes_: each entry's key and its links in the doubly-linked
///    recency list (head = least recently touched), apart from the
///    values so a splice touches no value;
///  - values_: the values themselves.
/// A touch of a present key is one probe plus a list splice; nothing
/// allocates once the arrays have grown to the table's working size.
/// A new key at the cap takes over the list head's slab position and
/// recycles its value in place: a Value with a clear() member is
/// cleared (which must leave it equal to Value{} while keeping its
/// storage, so a nested table or vector is not freed and allocated
/// again); any other Value is assigned Value{}.
///
/// A reference returned by touch() (or a pointer from find()) stays
/// valid only until the next touch() or set_cap() on the same table:
/// those may grow the slab or move an entry into a freed slot.
/// Touching a table nested inside the referenced value is fine.
template <typename Key, typename Value>
class BoundedTable {
  static_assert(std::is_integral_v<Key>, "BoundedTable hashes integer keys");

 public:
  BoundedTable() = default;  // unbounded; non-explicit so Value types
                             // holding a table aggregate-initialize
  explicit BoundedTable(std::size_t max_entries)
      : max_entries_(max_entries) {}

  /// The entry for `key`, created (default-constructed) if absent,
  /// marked most-recently-used either way. May evict another entry.
  Value& touch(const Key& key) {
    if (index_.empty()) grow_index();
    std::size_t slot = probe(key);
    if (index_[slot].pos != kNil) {
      const std::uint32_t pos = index_[slot].pos;
      if (pos != tail_) {
        unlink(pos);
        link_back(pos);
      }
      return values_[pos];
    }
    if (max_entries_ != 0 && nodes_.size() >= max_entries_) {
      // Recycle the victim's slab position and value for the new key.
      const std::uint32_t pos = head_;
      unindex(pos);
      unlink(pos);
      ++evictions_;
      nodes_[pos].key = key;
      recycle(values_[pos]);
      index_[probe(key)] = {key, pos};
      link_back(pos);
      return values_[pos];
    }
    if (2 * (nodes_.size() + 1) > index_.size()) {
      grow_index();
      slot = probe(key);
    }
    const auto pos = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({key, kNil, kNil});
    values_.emplace_back();
    index_[slot] = {key, pos};
    link_back(pos);
    return values_[pos];
  }

  const Value* find(const Key& key) const {
    if (index_.empty()) return nullptr;
    const std::uint32_t pos = index_[probe(key)].pos;
    return pos == kNil ? nullptr : &values_[pos];
  }

  std::size_t size() const { return nodes_.size(); }
  std::size_t cap() const { return max_entries_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Re-caps the table; shrinking below the current size evicts the
  /// least-recently-touched entries immediately.
  void set_cap(std::size_t max_entries) {
    max_entries_ = max_entries;
    while (max_entries_ != 0 && nodes_.size() > max_entries_) {
      erase(head_);
      ++evictions_;
    }
  }

  /// Back to the state of BoundedTable{} (unbounded, no evictions),
  /// keeping the storage: what touch() does to a nested table it
  /// recycles.
  void clear() {
    for (Slot& s : index_) s.pos = kNil;
    nodes_.clear();
    values_.clear();
    head_ = tail_ = kNil;
    evictions_ = 0;
    max_entries_ = 0;
  }

  /// Keys in ascending order — the deterministic iteration order of
  /// every finish() whose result depends on the order.
  std::vector<Key> sorted_keys() const {
    std::vector<Key> keys;
    keys.reserve(nodes_.size());
    for (const Node& n : nodes_) keys.push_back(n.key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Calls fn(key, value) for every entry in slab order: deterministic,
  /// but not key order, so only for folds whose result does not depend
  /// on the order (counts, exact sums, input to a total-order sort).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t pos = 0; pos < nodes_.size(); ++pos) {
      fn(nodes_[pos].key, values_[pos]);
    }
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    Key key{};
    std::uint32_t pos = kNil;  ///< slab position; kNil: empty slot
  };
  struct Node {
    Key key{};
    std::uint32_t prev = kNil;  ///< towards the least recently touched
    std::uint32_t next = kNil;  ///< towards the most recently touched
  };

  static void recycle(Value& v) {
    if constexpr (requires { v.clear(); }) {
      v.clear();
    } else {
      v = Value{};  // value-initialize: Value may be a bare scalar
    }
  }

  /// Home slot of `key`: Fibonacci hashing of the folded key bits.
  std::size_t home(const Key& key) const {
    auto x = static_cast<std::uint64_t>(key);
    x ^= x >> 32;
    return static_cast<std::size_t>((x * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(const Key& key) const {
    std::size_t s = home(key);
    while (index_[s].pos != kNil && index_[s].key != key) {
      s = (s + 1) & (index_.size() - 1);
    }
    return s;
  }

  /// The slot holding slab position `pos`.
  std::size_t slot_of(std::uint32_t pos) const {
    std::size_t s = home(nodes_[pos].key);
    while (index_[s].pos != pos) s = (s + 1) & (index_.size() - 1);
    return s;
  }

  void grow_index() {
    const std::size_t size = std::max<std::size_t>(16, 2 * index_.size());
    shift_ = 64 - std::countr_zero(size);
    index_.assign(size, Slot{});
    for (std::uint32_t pos = 0; pos < nodes_.size(); ++pos) {
      std::size_t s = home(nodes_[pos].key);
      while (index_[s].pos != kNil) s = (s + 1) & (size - 1);
      index_[s] = {nodes_[pos].key, pos};
    }
  }

  /// Removes `pos` from the index, shifting later members of its probe
  /// run back so every lookup still ends at the first empty slot.
  void unindex(std::uint32_t pos) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = slot_of(pos);
    for (std::size_t j = (hole + 1) & mask; index_[j].pos != kNil;
         j = (j + 1) & mask) {
      // Movable iff the hole lies on the path from its home slot to j.
      const std::size_t h = home(index_[j].key);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole].pos = kNil;
  }

  void unlink(std::uint32_t pos) {
    const Node& n = nodes_[pos];
    (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
    (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
  }

  void link_back(std::uint32_t pos) {
    Node& n = nodes_[pos];
    n.prev = tail_;
    n.next = kNil;
    (tail_ == kNil ? head_ : nodes_[tail_].next) = pos;
    tail_ = pos;
  }

  /// Drops the entry at `pos`, moving the last slab entry into its slot.
  void erase(std::uint32_t pos) {
    unindex(pos);
    unlink(pos);
    const auto last = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (pos != last) {
      index_[slot_of(last)].pos = pos;
      nodes_[pos] = nodes_[last];
      values_[pos] = std::move(values_[last]);
      const Node& n = nodes_[pos];
      (n.prev == kNil ? head_ : nodes_[n.prev].next) = pos;
      (n.next == kNil ? tail_ : nodes_[n.next].prev) = pos;
    }
    nodes_.pop_back();
    values_.pop_back();
  }

  std::size_t max_entries_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<Slot> index_;  ///< size a power of 2
  std::vector<Node> nodes_;  ///< by slab position
  std::vector<Value> values_;  ///< by slab position
  int shift_ = 64;             ///< 64 - log2(index_.size())
  std::uint32_t head_ = kNil;  ///< least recently touched
  std::uint32_t tail_ = kNil;  ///< most recently touched
};

/// The number of distinct u32 keys inserted, saturating at a cap: what
/// size() of a BoundedTable<std::uint32_t, char> capped at `cap` reports
/// after the same inserts (touches), without its recency list. That
/// table's size never falls under a fixed cap: below it nothing is
/// evicted, and at it each new key evicts one and admits one. So the
/// set stores keys until it holds `cap` of them, and from then on
/// size() stays at `cap` and nothing more is stored. For sets that
/// nothing reads but size() and whose evictions are counted nowhere
/// (Fig 11a's sources per destination, an incident's counterparts).
/// cap 0 = unbounded; every call on one set must pass the same cap.
///
/// Layout: one open-addressed array of keys (Fibonacci hashing, linear
/// probing, load <= 1/2, no deletion); kEmpty marks a free slot, and
/// the key equal to kEmpty is held by a flag.
class CappedDistinctSet {
 public:
  void insert(std::uint32_t key, std::size_t cap) {
    if (cap != 0 && size_ >= cap) return;  // saturated
    if (key == kEmpty) {
      size_ += has_empty_key_ ? 0 : 1;
      has_empty_key_ = true;
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();  // load <= 1/2
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home(key);
    while (slots_[s] != kEmpty) {
      if (slots_[s] == key) return;
      s = (s + 1) & mask;
    }
    slots_[s] = key;
    ++size_;
  }

  std::size_t size() const { return size_; }

  /// Back to empty, keeping the storage (recycled by BoundedTable).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
    has_empty_key_ = false;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;

  std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void grow() {
    std::vector<std::uint32_t> old(std::max<std::size_t>(8, 2 * slots_.size()),
                                   kEmpty);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint32_t k : old) {
      if (k == kEmpty) continue;
      std::size_t s = home(k);
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = k;
    }
  }

  std::vector<std::uint32_t> slots_;  ///< size 0 or a power of 2
  std::size_t size_ = 0;              ///< keys stored, the flag's included
  int shift_ = 64;                    ///< 64 - log2(slots_.size())
  bool has_empty_key_ = false;        ///< key kEmpty inserted
};

/// State caps for one streaming report. 0 = unbounded. unbounded() is
/// the differential-test configuration (bit-identical to the oracle);
/// production() bounds every table so peak memory is independent of
/// trace length even under adversarial traffic.
struct ReportLimits {
  std::size_t max_members = 0;
  std::size_t max_destinations = 0;             ///< src-ratio dst table, per class
  std::size_t max_sources_per_destination = 0;  ///< distinct-src sets
  std::size_t max_victims = 0;                  ///< NTP reflection victims
  std::size_t max_amplifiers_per_victim = 0;
  std::size_t max_amplifiers = 0;               ///< distinct amplifier set
  std::size_t max_pairs = 0;                    ///< (victim, amplifier) pairs
  std::size_t max_clusters = 0;                 ///< incident clusters per table
  std::size_t max_counterparts_per_cluster = 0;
  std::size_t sketch_k = 256;                   ///< QuantileSketch accuracy knob

  static ReportLimits unbounded() { return {}; }
  static ReportLimits production();
};

// ---------------------------------------------------------------- members

/// Per-member sampled packets, bytes and flows per class under one
/// inference method (Figs 4 and 6, Sec 4.5 and 5.1). finish() returns
/// every member that injected traffic in ascending ASN order; members
/// unknown to the IXP (or with no IXP given) get type kOther.
class MemberStatsBuilder {
 public:
  explicit MemberStatsBuilder(std::size_t space_idx = 0,
                              const ixp::Ixp* ixp = nullptr,
                              std::size_t max_members = 0)
      : space_idx_(space_idx), ixp_(ixp), members_(max_members) {}

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  std::vector<MemberClassCounts> finish() const;

  std::size_t tracked() const { return members_.size(); }
  std::uint64_t evictions() const { return members_.evictions(); }

 private:
  std::size_t space_idx_;
  const ixp::Ixp* ixp_;
  BoundedTable<Asn, MemberClassCounts> members_;
};

// ------------------------------------------------------------------- venn

/// Fig 5: the fraction of members in each region of the {Bogon,
/// Unrouted, Invalid} Venn diagram. A member contributes a class when
/// one of its flows in that class carries sampled packets; state is
/// three contribution bits per member.
class VennBuilder {
 public:
  explicit VennBuilder(std::size_t space_idx = 0, std::size_t max_members = 0)
      : space_idx_(space_idx), members_(max_members) {}

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  VennCounts finish() const;

  std::uint64_t evictions() const { return members_.evictions(); }

 private:
  std::size_t space_idx_;
  BoundedTable<Asn, std::uint8_t> members_;  ///< bit c set: contributes class c
};

// --------------------------------------------------------------- port mix

/// Fig 9: each class's TCP and UDP packets split by DST and by SRC port
/// over the six tracked ports plus "other". Flows of other protocols
/// are skipped. State is inherently bounded (seven buckets per class x
/// transport x direction).
class PortMixBuilder {
 public:
  explicit PortMixBuilder(std::size_t space_idx = 0) : space_idx_(space_idx) {}

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  PortMix finish() const;

 private:
  /// Bucket b counts port kPortBuckets[b]; bucket 0 ("other") stands in
  /// for every untracked port. Ascending: finish() sorts the shares from
  /// ascending port order, which fixes the order of ties.
  static constexpr std::array<std::uint16_t, 7> kPortBuckets = {
      0,
      net::ports::kHttp,
      net::ports::kNtp,
      net::ports::kHttps,
      net::ports::kItalkGame,
      net::ports::kSteam,
      net::ports::kCod};
  struct BucketMap;
  /// kPortBuckets' index of `port`, 0 if untracked: one branch-free
  /// table lookup (it runs twice per TCP or UDP flow).
  static int bucket_of(std::uint16_t port);

  std::size_t space_idx_;
  double counts_[kNumClasses][2][2][kPortBuckets.size()] = {};
  /// Bit b set: bucket b has seen a flow (a 0-packet flow included),
  /// which is what gives the port an entry in finish().
  std::uint8_t seen_[kNumClasses][2][2] = {};
};

// ----------------------------------------------------- traffic character

/// Streaming traffic-characteristics summary (Fig 8): per-class
/// packet-size distributions as quantile sketches, small-packet
/// fractions and the class time series.
struct TrafficCharSummary {
  ClassTimeSeries series;
  std::array<double, kNumClasses> small_packet_fraction{};
  std::array<util::QuantileSketch, kNumClasses> size_sketch;
};

class TrafficCharBuilder {
 public:
  /// window_seconds == 0: the series grows with the observed
  /// timestamps; > 0: fixed bins, later timestamps clamped into the
  /// last one.
  explicit TrafficCharBuilder(std::size_t space_idx = 0,
                              std::uint32_t window_seconds = 0,
                              std::uint32_t bin_seconds = 3600,
                              std::size_t sketch_k = 256,
                              double small_threshold = 60.0,
                              util::SimdKernel simd = util::SimdKernel::kAuto);

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  TrafficCharSummary finish() const;

  const util::QuantileSketch& size_sketch(int cls) const {
    return sketches_[cls];
  }

 private:
  std::size_t bin_of(std::uint32_t ts);

  std::size_t space_idx_;
  std::uint32_t window_seconds_;
  std::uint32_t bin_seconds_;
  double small_threshold_;
  std::array<util::QuantileSketch, kNumClasses> sketches_;
  double small_[kNumClasses] = {};
  double total_[kNumClasses] = {};
  std::array<std::vector<double>, kNumClasses> series_;
};

// --------------------------------------------------------- attack patterns

/// Fig 11a and 11b: per-destination source uniqueness of flagged traffic
/// (ratio() histograms #distinct sources / #packets over destinations
/// with enough sampled packets) and the NTP analysis of Invalid UDP/123
/// triggers — victims, amplifiers, member shares (ntp()). All keyed
/// state sits behind bounded tables.
class AttackPatternsBuilder {
 public:
  explicit AttackPatternsBuilder(std::size_t space_idx = 0,
                                 const ReportLimits& limits = {});

  void add(const net::FlowBatch& batch, std::span<const Label> labels);

  SrcRatioHistogram ratio(std::uint32_t min_sampled_packets = 50,
                          std::size_t bins = 10) const;
  NtpAnalysis ntp(std::size_t top_victims = 10) const;

  std::uint64_t evictions() const;

 private:
  // clear() recycles an evicted entry in place (BoundedTable).
  struct DstInfo {
    std::uint64_t packets = 0;
    CappedDistinctSet sources;
    void clear() {
      packets = 0;
      sources.clear();
    }
  };
  struct VictimAgg {
    std::uint64_t packets = 0;
    BoundedTable<std::uint32_t, std::uint64_t> per_amplifier;
    void clear() {
      packets = 0;
      per_amplifier.clear();
    }
  };

  std::size_t space_idx_;
  ReportLimits limits_;
  std::array<BoundedTable<std::uint32_t, DstInfo>, kNumClasses> by_dst_;
  BoundedTable<std::uint32_t, VictimAgg> victims_;
  BoundedTable<std::uint32_t, char> amplifiers_;
  std::map<Asn, std::uint64_t> member_packets_;
  std::uint64_t trigger_packets_ = 0;
  double invalid_udp_ = 0;
  double invalid_udp_ntp_ = 0;
};

// ------------------------------------------------------ amplification effect

/// Fig 11c: trigger and response volume over time for the (victim,
/// amplifier) pairs seen in both directions — an Invalid UDP/123
/// trigger towards the amplifier and a UDP sport-123 response back.
/// One pass accumulates time-binned volumes for every candidate pair;
/// finish() keeps the pairs with both kinds of evidence.
class AmplificationBuilder {
 public:
  explicit AmplificationBuilder(std::size_t space_idx = 0,
                                std::uint32_t window_seconds = 0,
                                std::uint32_t bin_seconds = 3600,
                                std::size_t max_pairs = 0);

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  AmplificationTimeseries finish() const;

  std::uint64_t evictions() const { return pairs_.evictions(); }

 private:
  /// One touched time bin of a pair.
  struct Bin {
    std::size_t bin = 0;
    double to_packets = 0, to_bytes = 0, from_packets = 0, from_bytes = 0;
    /// Flows with both ports NTP: direction resolved at finish() (to
    /// the amplifier if this pair qualifies, else from it if the
    /// reverse pair does).
    double dual_packets = 0, dual_bytes = 0;
  };
  struct PairState {
    bool trigger = false;   ///< Invalid UDP/123 towards the amplifier seen
    bool response = false;  ///< UDP sport 123 back towards the victim seen
    /// Touched bins only, ascending: a record costs O(1) memory whatever
    /// its timestamp.
    std::vector<Bin> bins;
    Bin& at(std::size_t bin);
    void clear() {  // recycles an evicted pair in place (BoundedTable)
      trigger = response = false;
      bins.clear();
    }
  };
  std::size_t bin_of(std::uint32_t ts) const;

  std::size_t space_idx_;
  std::uint32_t window_seconds_;
  std::uint32_t bin_seconds_;
  BoundedTable<std::uint64_t, PairState> pairs_;
};

// -------------------------------------------------------------- incidents

/// Sec 7 incidents: flagged flows clustered by destination (random-spoof
/// floods, or "other" below the uniqueness threshold) and flagged
/// UDP/123 flows by source, the reflection victim (amplification).
/// finish() returns clusters of at least min_packets, by packets
/// descending.
class IncidentsBuilder {
 public:
  explicit IncidentsBuilder(std::size_t space_idx = 0,
                            IncidentParams params = {},
                            std::size_t max_clusters = 0,
                            std::size_t max_counterparts = 0);

  void add(const net::FlowBatch& batch, std::span<const Label> labels);
  std::vector<Incident> finish() const;

  std::uint64_t evictions() const {
    return by_dst_.evictions() + by_trigger_src_.evictions();
  }

 private:
  struct ClusterState {
    std::uint32_t start_ts = ~0u;
    std::uint32_t end_ts = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    CappedDistinctSet counterparts;
    std::vector<Asn> members;  ///< ascending, distinct
    void clear() {  // recycles an evicted cluster in place (BoundedTable)
      start_ts = ~0u;
      end_ts = 0;
      packets = bytes = 0;
      counterparts.clear();
      members.clear();
    }
  };

  std::size_t space_idx_;
  IncidentParams params_;
  std::size_t max_counterparts_;
  BoundedTable<std::uint32_t, ClusterState> by_dst_;
  BoundedTable<std::uint32_t, ClusterState> by_trigger_src_;
};

// -------------------------------------------------------- the full report

/// Everything `spoofscope report` computes, assembled by one streaming
/// pass.
struct ReportOptions {
  std::size_t space_idx = 0;
  std::uint32_t window_seconds = 0;  ///< 0: series bins grow with ts
  std::uint32_t bin_seconds = 3600;
  ReportLimits limits;               ///< default: unbounded (oracle-exact)
  IncidentParams incident_params;
  std::uint32_t ratio_min_packets = 50;
  std::size_t ratio_bins = 10;
  std::size_t top_victims = 10;
  double small_packet_threshold = 60.0;
  const ixp::Ixp* ixp = nullptr;     ///< member types (nullptr: kOther)
  /// Packet-size sketch compaction kernel (every kernel leaves the same
  /// sketch state, so the report does not depend on it).
  util::SimdKernel simd = util::SimdKernel::kAuto;
};

struct ReportResult {
  classify::Aggregate aggregate;     ///< Table-1 totals, all spaces
  std::vector<MemberClassCounts> member_counts;
  VennCounts venn;
  std::array<std::size_t, kNumStrategies> strategy_counts{};
  PortMix ports;
  TrafficCharSummary traffic;
  SrcRatioHistogram src_ratio;
  NtpAnalysis ntp;
  AmplificationTimeseries amplification;
  std::vector<Incident> incidents;
  std::uint64_t flows = 0;
  std::uint64_t evictions = 0;       ///< total across all bounded tables
};

class StreamingReport {
 public:
  explicit StreamingReport(std::size_t space_count, ReportOptions opts = {});

  /// Accumulates one classified batch; labels[i] belongs to record i.
  void add(const net::FlowBatch& batch, std::span<const classify::Label> labels);

  /// Snapshot of the report so far; the builder stays usable.
  ReportResult finish() const;

  std::uint64_t flows() const { return flows_; }
  std::uint64_t evictions() const;
  const ReportOptions& options() const { return opts_; }

 private:
  ReportOptions opts_;
  classify::AggregateBuilder aggregate_;
  MemberStatsBuilder members_;
  VennBuilder venn_;
  PortMixBuilder ports_;
  TrafficCharBuilder traffic_;
  AttackPatternsBuilder attacks_;
  AmplificationBuilder amplification_;
  IncidentsBuilder incidents_;
  std::uint64_t flows_ = 0;
};

/// One StreamingReport pass over flows held in memory: packs them into
/// one FlowBatch and returns its finish(). labels[i] belongs to flows[i].
ReportResult report_flows(std::size_t space_count,
                          std::span<const net::FlowRecord> flows,
                          std::span<const classify::Label> labels,
                          const ReportOptions& opts = {});

/// Human-readable rendering of the full report (the CLI's analysis
/// sections; the totals table is printed by the caller from
/// ReportResult::aggregate).
std::string format_report(const ReportResult& r, std::size_t top_incidents = 10);

}  // namespace spoofscope::analysis
