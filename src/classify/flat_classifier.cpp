#include "classify/flat_classifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/bogon.hpp"
#include "net/flow_batch.hpp"

namespace spoofscope::classify {

namespace {

/// Blocks (/24 indices) per paint stripe: each stripe is one /8.
constexpr std::size_t kStripeBlocks = std::size_t{1} << 16;
constexpr std::size_t kNumStripes = std::size_t{1} << 8;

/// One base-table paint: /24 blocks [begin, end] (inclusive, both inside
/// a single stripe) take `entry`. Stored per stripe in global paint
/// order, so applying a stripe's ops sequentially reproduces exactly what
/// the historical single-pass paint produced there.
struct PaintOp {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t entry = 0;
};

/// Read-only prefetch hint; no-op on toolchains without the builtin.
#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_ro(const void* p) { __builtin_prefetch(p, 0, 1); }
#else
inline void prefetch_ro(const void*) {}
#endif

/// How many records ahead the batch kernels request the base-table line.
/// Far enough that the miss resolves before use, near enough to stay
/// inside any realistic batch.
constexpr std::size_t kPrefetchDistance = 16;

/// Little-endian 8-byte lane load; folds to a plain load on LE hosts
/// while keeping the digest host-independent.
std::uint64_t load_lane64(const std::uint8_t* p) {
  std::uint64_t w = 0;
  for (int b = 7; b >= 0; --b) w = w << 8 | p[b];
  return w;
}

/// FNV-1a-64 over four interleaved stripes of little-endian 8-byte
/// lanes. Per stripe step, xor + odd multiply stay bijective and every
/// input byte lands in exactly one stripe, and the final fold is
/// bijective in each stripe, so any single damaged byte changes the
/// digest; the stripes break the serial multiply dependency chain, so
/// the test oracles that digest whole ~90 MiB planes stay fast. Fed in
/// pieces, it hashes their concatenation: a patched plane's record rows
/// hash exactly like a compiled plane's contiguous ones. A whole digest is
/// one stream: chaining short streams through their seeds is not
/// sound, because an input too short to reach stripes 1-3 folds the
/// seed away (one zero byte maps every seed to the same digest).
class Fnv64 {
 public:
  Fnv64()
      : s0_(14695981039346656037ull),
        s1_(s0_ * kPrime),
        s2_(s1_ * kPrime),
        s3_(s2_ * kPrime) {}

  void update(const void* data, std::size_t n) {
    if (n == 0) return;  // `data` may then be null
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_ += n;
    if (pending_ > 0) {
      const std::size_t take = std::min(n, sizeof pending_bytes_ - pending_);
      std::memcpy(pending_bytes_ + pending_, p, take);
      pending_ += take;
      p += take;
      n -= take;
      if (pending_ < sizeof pending_bytes_) return;
      absorb(pending_bytes_, sizeof pending_bytes_);
      pending_ = 0;
    }
    const std::size_t done = absorb(p, n);
    std::memcpy(pending_bytes_, p + done, n - done);
    pending_ = n - done;
  }

  std::uint64_t finish() const {
    std::uint64_t s0 = s0_;
    std::size_t i = 0;
    for (; i + 8 <= pending_; i += 8) {
      s0 = (s0 ^ load_lane64(pending_bytes_ + i)) * kPrime;
    }
    for (; i < pending_; ++i) s0 = (s0 ^ pending_bytes_[i]) * kPrime;
    std::uint64_t out = (s0 ^ s1_) * kPrime;
    out = (out ^ s2_) * kPrime;
    out = (out ^ s3_) * kPrime;
    return (out ^ total_) * kPrime;
  }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  /// Folds the whole 32-byte blocks of p[0, n) into the stripes (held in
  /// locals: `p` may alias anything) and returns the bytes consumed.
  std::size_t absorb(const std::uint8_t* p, std::size_t n) {
    std::uint64_t s0 = s0_, s1 = s1_, s2 = s2_, s3 = s3_;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      s0 = (s0 ^ load_lane64(p + i)) * kPrime;
      s1 = (s1 ^ load_lane64(p + i + 8)) * kPrime;
      s2 = (s2 ^ load_lane64(p + i + 16)) * kPrime;
      s3 = (s3 ^ load_lane64(p + i + 24)) * kPrime;
    }
    s0_ = s0;
    s1_ = s1;
    s2_ = s2;
    s3_ = s3;
    return i;
  }

  std::uint64_t s0_, s1_, s2_, s3_;
  std::uint64_t total_ = 0;
  std::uint8_t pending_bytes_[32] = {};
  std::size_t pending_ = 0;
};

}  // namespace

Label FlatClassifier::uniform_label(std::size_t num_spaces, TrafficClass c) {
  Label label = 0;
  for (std::size_t i = 0; i < num_spaces; ++i) {
    label |= static_cast<Label>(c) << (2 * i);
  }
  return label;
}

void FlatClassifier::rebuild_probe() {
  std::size_t probe_cap = 16;
  while (probe_cap < members_.size() * 2) probe_cap <<= 1;
  probe_mask_ = static_cast<std::uint32_t>(probe_cap - 1);
  probe_keys_.assign(probe_cap, 0);
  probe_slots_.assign(probe_cap, MemberView::kNoSlot);
  for (std::size_t slot = 0; slot < members_.size(); ++slot) {
    std::uint32_t h =
        (static_cast<std::uint32_t>(members_[slot]) * 2654435761u) &
        probe_mask_;
    while (probe_slots_[h] != MemberView::kNoSlot) {
      h = (h + 1) & probe_mask_;
    }
    probe_keys_[h] = members_[slot];
    probe_slots_[h] = static_cast<std::uint32_t>(slot);
  }
}

FlatClassifier FlatClassifier::compile(const Classifier& source) {
  return compile_impl(source, nullptr);
}

FlatClassifier FlatClassifier::compile(const Classifier& source,
                                       util::ThreadPool& pool) {
  return compile_impl(source, &pool);
}

FlatClassifier FlatClassifier::compile_impl(const Classifier& source,
                                            util::ThreadPool* pool) {
  FlatClassifier flat;
  flat.table_ = &source.table();
  flat.spaces_.reserve(source.space_count());
  for (std::size_t i = 0; i < source.space_count(); ++i) {
    flat.spaces_.push_back(source.shared_space(i));
  }
  flat.all_bogon_ = uniform_label(flat.spaces_.size(), TrafficClass::kBogon);
  flat.all_unrouted_ = uniform_label(flat.spaces_.size(), TrafficClass::kUnrouted);
  flat.all_invalid_ = uniform_label(flat.spaces_.size(), TrafficClass::kInvalid);

  const bgp::RoutingTable& table = *flat.table_;

  // --- base-class table ------------------------------------------------
  // Paint routed prefixes in ascending length order so more-specifics
  // overwrite their covering blocks (the DIR-24-8 full expansion of the
  // FIB), then the bogon ranges (the classification cascade checks bogons
  // first, and every /8–/24 bogon covers whole /24 blocks). Prefixes
  // longer than /24 break per-/24 homogeneity: their blocks become
  // overflow entries that re-run the exact trie lookups per address.
  //
  // The paint is organized as per-/8-stripe op lists: stripes are
  // disjoint, so they fan out across the pool, and because every op lands
  // in exactly one stripe in global paint order, the painted bytes are
  // bit-identical to the historical sequential single-pass fill. The
  // table memory starts uninitialized; each stripe zero-fills only the
  // lanes no op paints (zero == kKindUnrouted), so no entry is ever
  // written twice just to satisfy initialization.
  std::vector<std::pair<net::Prefix, std::uint32_t>> routed;
  routed.reserve(table.prefix_count());
  table.visit_prefixes([&](bgp::RoutingTable::PrefixId pid,
                           const net::Prefix& p) { routed.emplace_back(p, pid); });
  std::sort(routed.begin(), routed.end(),
            [](const auto& a, const auto& b) {
              return a.first.length() < b.first.length();
            });

  std::vector<std::vector<PaintOp>> stripe_ops(kNumStripes);
  const auto add_op = [&](std::size_t first_block, std::size_t last_block,
                          std::uint32_t entry) {
    for (std::size_t s = first_block / kStripeBlocks;
         s <= last_block / kStripeBlocks; ++s) {
      const std::size_t lo = std::max(first_block, s * kStripeBlocks);
      const std::size_t hi = std::min(last_block, (s + 1) * kStripeBlocks - 1);
      stripe_ops[s].push_back({static_cast<std::uint32_t>(lo),
                               static_cast<std::uint32_t>(hi), entry});
    }
  };
  for (const auto& [p, pid] : routed) {
    if (p.length() <= 24) {
      add_op(p.first() >> 8, p.last() >> 8, (kKindRouted << kKindShift) | pid);
    } else {
      ++flat.stats_.overflow_prefixes;
      add_op(p.first() >> 8, p.first() >> 8, kKindOverflow << kKindShift);
    }
  }
  for (const auto& p : net::bogon_prefixes()) {
    flat.bogons_.insert(p);
    if (p.length() <= 24) {
      add_op(p.first() >> 8, p.last() >> 8, kKindBogon << kKindShift);
    } else {
      ++flat.stats_.overflow_prefixes;
      add_op(p.first() >> 8, p.first() >> 8, kKindOverflow << kKindShift);
    }
  }

  static_assert(kBaseEntries == kNumStripes * kStripeBlocks);
  flat.base_.resize(kBaseEntries);
  std::array<std::size_t, kNumStripes> overflow_per_stripe{};
  const auto paint_stripes = [&](std::size_t stripe_begin,
                                 std::size_t stripe_end) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> covered;
    std::vector<std::uint32_t> overflow_blocks;
    for (std::size_t s = stripe_begin; s < stripe_end; ++s) {
      std::uint32_t* stripe = flat.base_.data() + s * kStripeBlocks;
      const auto& ops = stripe_ops[s];
      if (ops.empty()) {
        std::fill(stripe, stripe + kStripeBlocks, 0u);
        continue;
      }
      // Zero exactly the gaps between painted ranges, then apply the ops
      // in paint order (later ops overwrite earlier ones, as before).
      covered.clear();
      covered.reserve(ops.size());
      const std::uint32_t stripe_base = static_cast<std::uint32_t>(s * kStripeBlocks);
      for (const auto& op : ops) {
        covered.emplace_back(op.begin - stripe_base, op.end - stripe_base);
      }
      std::sort(covered.begin(), covered.end());
      std::size_t next = 0;
      for (const auto& [lo, hi] : covered) {
        if (lo > next) std::fill(stripe + next, stripe + lo, 0u);
        if (std::size_t{hi} + 1 > next) next = std::size_t{hi} + 1;
      }
      if (next < kStripeBlocks) std::fill(stripe + next, stripe + kStripeBlocks, 0u);
      overflow_blocks.clear();
      for (const auto& op : ops) {
        std::fill(stripe + (op.begin - stripe_base),
                  stripe + (op.end - stripe_base) + 1, op.entry);
        if ((op.entry >> kKindShift) == kKindOverflow) {
          overflow_blocks.push_back(op.begin - stripe_base);
        }
      }
      // Only an overflow op writes an overflow entry, and each marks one
      // block: the stripe's overflow slots are the distinct marked
      // blocks that no later op painted over.
      std::sort(overflow_blocks.begin(), overflow_blocks.end());
      overflow_blocks.erase(
          std::unique(overflow_blocks.begin(), overflow_blocks.end()),
          overflow_blocks.end());
      std::size_t overflow = 0;
      for (const std::uint32_t b : overflow_blocks) {
        if ((stripe[b] >> kKindShift) == kKindOverflow) ++overflow;
      }
      overflow_per_stripe[s] = overflow;
    }
  };
  if (pool) {
    pool->parallel_for(0, kNumStripes, paint_stripes);
  } else {
    paint_stripes(0, kNumStripes);
  }
  for (const std::size_t c : overflow_per_stripe) flat.stats_.overflow_slots += c;

  // --- per (member, prefix) membership records --------------------------
  // Slot order is the sorted union of every space's members, so the
  // compiled plane is independent of hash-map iteration order.
  for (const auto& space : flat.spaces_) {
    const auto asns = space->members();
    flat.members_.insert(flat.members_.end(), asns.begin(), asns.end());
  }
  std::sort(flat.members_.begin(), flat.members_.end());
  flat.members_.erase(std::unique(flat.members_.begin(), flat.members_.end()),
                      flat.members_.end());

  flat.rebuild_probe();

  const std::size_t num_spaces = flat.spaces_.size();
  flat.num_prefixes_ = table.prefix_count();
  flat.record_stride_ = flat.num_prefixes_;
  // One zeroed element of tail padding keeps the vector kernels' 32-bit
  // record gathers in bounds at the last real record; every size that
  // shapes behaviour (digest, snapshot save, stats) counts
  // members * prefixes explicitly. The rows start unwritten: each lane
  // of the row build zeroes its own rows.
  const std::size_t record_count = flat.members_.size() * flat.num_prefixes_;
  flat.records_.resize(record_count + 1);
  flat.records_[record_count] = 0;
  flat.fallback_.assign(flat.members_.size() * num_spaces, nullptr);

  // Each (member, space) row is built from the member's intervals, not
  // by visiting every prefix. Prefixes sit in tree pre-order (first
  // address ascending, the covering prefix before the more-specifics
  // that share its first address), each linked to its nearest covering
  // prefix. A prefix is full when one interval contains it and partial
  // when intervals overlap it but none contains it (intervals are
  // disjoint and non-adjacent, so at most one interval can contain it).
  // For an interval [lo, hi] the prefixes it touches are
  //   - those starting inside it: full if they also end inside it,
  //     partial otherwise;
  //   - those starting before lo and reaching lo: partial. They all
  //     contain lo, so they lie on the parent chain of the last prefix
  //     starting before lo.
  // A row costs O(intervals * log prefixes + overlaps), not O(prefixes).
  struct PrefixRange {
    std::uint32_t first;
    std::uint32_t last;
    std::uint32_t pid;
  };
  std::vector<PrefixRange> ordered;
  ordered.reserve(flat.num_prefixes_);
  table.visit_prefixes([&](bgp::RoutingTable::PrefixId pid, const net::Prefix& p) {
    ordered.push_back({p.first(), p.last(), pid});
  });
  std::sort(ordered.begin(), ordered.end(),
            [](const PrefixRange& a, const PrefixRange& b) {
              return a.first != b.first ? a.first < b.first : a.last > b.last;
            });
  constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  struct PrefixNode {
    std::uint32_t last;
    std::uint32_t pid;
    std::uint32_t parent;  ///< index of the nearest covering prefix
  };
  std::vector<std::uint32_t> firsts(ordered.size());
  std::vector<PrefixNode> nodes(ordered.size());
  std::vector<std::uint32_t> open;  // the prefixes covering the current one
  for (std::uint32_t i = 0; i < ordered.size(); ++i) {
    const PrefixRange& pr = ordered[i];
    while (!open.empty() && nodes[open.back()].last < pr.first) open.pop_back();
    firsts[i] = pr.first;
    nodes[i] = {pr.last, pr.pid, open.empty() ? kNoParent : open.back()};
    open.push_back(i);
  }

  // Each member's record row (all methods interleaved) is written by
  // exactly one lane, so the fan-out is race-free and deterministic.
  const auto build_rows = [&](std::size_t slot_begin, std::size_t slot_end) {
    for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
      const Asn member = flat.members_[slot];
      std::uint16_t* row = flat.records_.data() + slot * flat.num_prefixes_;
      std::fill(row, row + flat.num_prefixes_, std::uint16_t{0});
      for (std::size_t s = 0; s < num_spaces; ++s) {
        const trie::IntervalSet* space = flat.spaces_[s]->space_of(member);
        if (!space || space->empty()) continue;
        const std::uint16_t full_bit = static_cast<std::uint16_t>(1u << s);
        const std::uint16_t part_bit = static_cast<std::uint16_t>(1u << (8 + s));
        bool partial = false;
        // Intervals ascend, so each search starts where the last ended.
        auto from = firsts.begin();
        for (const auto& iv : space->intervals()) {
          const auto begin = std::lower_bound(from, firsts.end(), iv.lo);
          const auto end = std::upper_bound(begin, firsts.end(), iv.hi);
          if (begin != firsts.begin()) {
            for (std::uint32_t k = static_cast<std::uint32_t>(
                     begin - firsts.begin() - 1);
                 k != kNoParent; k = nodes[k].parent) {
              if (nodes[k].last >= iv.lo) {
                row[nodes[k].pid] |= part_bit;
                partial = true;
              }
            }
          }
          for (auto it = begin; it != end; ++it) {
            const PrefixNode& n = nodes[it - firsts.begin()];
            if (n.last <= iv.hi) {
              row[n.pid] |= full_bit;
            } else {
              row[n.pid] |= part_bit;
              partial = true;
            }
          }
          from = end;
        }
        if (partial) flat.fallback_[slot * num_spaces + s] = space;
      }
    }
  };
  if (pool) {
    pool->parallel_for(0, flat.members_.size(), build_rows);
  } else {
    build_rows(0, flat.members_.size());
  }

  for (const auto* fb : flat.fallback_) {
    if (fb) ++flat.stats_.partial_rows;
  }
  flat.stats_.table_bytes = kBaseEntries * sizeof(std::uint32_t);
  flat.stats_.bitset_bytes = record_count * sizeof(std::uint16_t);
  flat.stats_.prefixes = flat.num_prefixes_;
  flat.stats_.members = flat.members_.size();
  return flat;
}

FlatClassifier::MemberView FlatClassifier::member_view(Asn member) const {
  return view_for(member, slot_of(member));
}

TrafficClass FlatClassifier::class_in_space(net::Ipv4Addr src,
                                            std::uint32_t pid,
                                            std::uint32_t slot,
                                            std::size_t space_idx) const {
  const std::uint16_t rec = records_[slot * record_stride_ + pid];
  if (rec & (1u << space_idx)) return TrafficClass::kValid;
  if ((rec & (1u << (8 + space_idx))) &&
      fallback_[slot * spaces_.size() + space_idx]->contains(src)) {
    return TrafficClass::kValid;
  }
  return TrafficClass::kInvalid;
}

Label FlatClassifier::classify_routed(net::Ipv4Addr src, std::uint32_t pid,
                                      const MemberView& view) const {
  if (!view.known()) return all_invalid_;
  const std::uint16_t rec = records_[view.slot_ * record_stride_ + pid];
  std::uint32_t valid = rec & 0xFFu;
  if (std::uint32_t partial = rec >> 8; partial != 0) [[unlikely]] {
    const trie::IntervalSet* const* fb =
        fallback_.data() + view.slot_ * spaces_.size();
    do {
      const int s = std::countr_zero(partial);
      if (fb[s]->contains(src)) valid |= 1u << s;
      partial &= partial - 1;
    } while (partial != 0);
  }
  // Spread the valid mask's bit m to bit 2m; ORed over the all-Invalid
  // pattern this flips Invalid (0b10) to Valid (0b11) per method.
  std::uint32_t x = valid;
  x = (x | (x << 4)) & 0x0F0Fu;
  x = (x | (x << 2)) & 0x3333u;
  x = (x | (x << 1)) & 0x5555u;
  return static_cast<Label>(all_invalid_ | x);
}

Label FlatClassifier::classify_overflow(net::Ipv4Addr src,
                                        const MemberView& view) const {
  // Exact lane for /24 blocks broken by a longer-than-/24 prefix: re-run
  // the cascade's trie lookups per address. A live (patched) plane
  // resolves against its own route set — the source table is stale once
  // apply_updates has run.
  if (bogons_.covers(src)) return all_bogon_;
  const auto pid = live_ ? live_covering_prefix(src)
                         : table_->covering_prefix(src);
  if (!pid) return all_unrouted_;
  return classify_routed(src, *pid, view);
}

Label FlatClassifier::classify_all(net::Ipv4Addr src,
                                   const MemberView& view) const {
  const std::uint32_t entry = base_[src.value() >> 8];
  switch (entry >> kKindShift) {
    case kKindUnrouted: return all_unrouted_;
    case kKindBogon: return all_bogon_;
    case kKindRouted: return classify_routed(src, entry & kPayloadMask, view);
    default: return classify_overflow(src, view);
  }
}

TrafficClass FlatClassifier::classify(net::Ipv4Addr src, const MemberView& view,
                                      std::size_t space_idx) const {
  const std::uint32_t entry = base_[src.value() >> 8];
  switch (entry >> kKindShift) {
    case kKindUnrouted: return TrafficClass::kUnrouted;
    case kKindBogon: return TrafficClass::kBogon;
    case kKindRouted:
      return view.known() ? class_in_space(src, entry & kPayloadMask,
                                           view.slot_, space_idx)
                          : TrafficClass::kInvalid;
    default:
      return Classifier::unpack(classify_overflow(src, view), space_idx);
  }
}

void FlatClassifier::kernel_scalar(const std::uint32_t* src, const Asn* member,
                                   std::size_t n, Label* out,
                                   std::size_t prefetch_distance) const {
  // Member views are memoized per distinct ASN (unordered_map values are
  // pointer-stable), with a last-member fast path for runs; base-table
  // reads are prefetched a fixed distance ahead so consecutive random
  // /24 lookups overlap instead of serializing on memory latency.
  std::unordered_map<Asn, MemberView> views;
  const std::uint32_t* base = base_.data();
  Asn last_member = net::kNoAsn;
  const MemberView* last_view = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + prefetch_distance < n && prefetch_distance != 0) {
      prefetch_ro(base + (src[i + prefetch_distance] >> 8));
    }
    const Asn asn = member[i];
    if (asn != last_member || last_view == nullptr) {
      auto it = views.find(asn);
      if (it == views.end()) it = views.emplace(asn, member_view(asn)).first;
      last_member = asn;
      last_view = &it->second;
    }
    out[i] = classify_all(net::Ipv4Addr(src[i]), *last_view);
  }
}

void FlatClassifier::resolve_pending(const std::uint32_t* src,
                                     const Asn* member,
                                     const std::uint32_t* entry,
                                     const std::uint32_t* slot,
                                     const std::uint32_t* pending,
                                     std::size_t n_pending, Label* out) const {
  for (std::size_t p = 0; p < n_pending; ++p) {
    const std::uint32_t i = pending[p];
    const MemberView view = view_for(member[i], slot[i]);
    const std::uint32_t e = entry[i];
    out[i] = (e >> kKindShift) == kKindOverflow
                 ? classify_overflow(net::Ipv4Addr(src[i]), view)
                 : classify_routed(net::Ipv4Addr(src[i]), e & kPayloadMask,
                                   view);
  }
}

SimdKernel FlatClassifier::effective_kernel(SimdKernel requested) const {
  const SimdKernel kernel = resolve_simd_kernel(requested);
  if (kernel == SimdKernel::kAvx2 &&
      members_.size() * record_stride_ >= (std::size_t{1} << 31)) {
    return SimdKernel::kScalar;
  }
  return kernel;
}

void FlatClassifier::run_kernel(SimdKernel kernel, const std::uint32_t* src,
                                const Asn* member, std::size_t n,
                                Label* out) const {
  switch (kernel) {
#if SPOOFSCOPE_KERNEL_AVX2
    case SimdKernel::kAvx2:
      kernel_avx2(src, member, n, out);
      return;
#endif
#if SPOOFSCOPE_KERNEL_NEON
    case SimdKernel::kNeon:
      kernel_neon(src, member, n, out);
      return;
#endif
    default:
      kernel_scalar(src, member, n, out, kPrefetchDistance);
      return;
  }
}

void FlatClassifier::classify_batch(const net::FlowBatch& batch,
                                    std::span<Label> out) const {
  classify_batch(batch, out, SimdKernel::kAuto);
}

void FlatClassifier::classify_batch(const net::FlowBatch& batch,
                                    std::span<Label> out,
                                    SimdKernel kernel) const {
  if (out.size() != batch.size()) {
    throw std::invalid_argument("classify_batch: label span size mismatch");
  }
  run_kernel(effective_kernel(kernel), batch.src().data(),
             batch.member_in().data(), batch.size(), out.data());
}

void FlatClassifier::classify_batch(const net::FlowBatch& batch,
                                    std::span<Label> out,
                                    util::ThreadPool& pool) const {
  classify_batch(batch, out, pool, SimdKernel::kAuto);
}

void FlatClassifier::classify_batch(const net::FlowBatch& batch,
                                    std::span<Label> out,
                                    util::ThreadPool& pool,
                                    SimdKernel kernel) const {
  if (out.size() != batch.size()) {
    throw std::invalid_argument("classify_batch: label span size mismatch");
  }
  const SimdKernel resolved = effective_kernel(kernel);
  const std::uint32_t* src = batch.src().data();
  const Asn* member = batch.member_in().data();
  Label* labels = out.data();
  pool.parallel_for(0, batch.size(), [&](std::size_t b, std::size_t e) {
    run_kernel(resolved, src + b, member + b, e - b, labels + b);
  });
}

void FlatClassifier::classify_batch_scalar(const net::FlowBatch& batch,
                                           std::span<Label> out,
                                           std::size_t prefetch_distance) const {
  if (out.size() != batch.size()) {
    throw std::invalid_argument("classify_batch: label span size mismatch");
  }
  kernel_scalar(batch.src().data(), batch.member_in().data(), batch.size(),
                out.data(), prefetch_distance);
}

std::vector<Label> FlatClassifier::classify_batch(
    const net::FlowBatch& batch) const {
  std::vector<Label> labels(batch.size());
  classify_batch(batch, labels);
  return labels;
}

std::uint64_t FlatClassifier::plane_digest() const {
  Fnv64 f;
  f.update(base_.data(), kBaseEntries * sizeof(std::uint32_t));
  for (std::size_t slot = 0; slot < members_.size(); ++slot) {
    f.update(records_.data() + slot * record_stride_,
             num_prefixes_ * sizeof(std::uint16_t));
  }
  f.update(members_.data(), members_.size() * sizeof(Asn));
  const std::uint64_t np = num_prefixes_;
  f.update(&np, sizeof np);
  for (const auto* fb : fallback_) {
    // Pointer values vary run to run; only presence shapes behaviour.
    const std::uint8_t present = fb != nullptr ? 1 : 0;
    f.update(&present, 1);
  }
  const std::uint64_t ov = stats_.overflow_slots;
  f.update(&ov, sizeof ov);
  return f.finish();
}

std::vector<Label> classify_trace(const FlatClassifier& classifier,
                                  std::span<const net::FlowRecord> flows,
                                  SimdKernel kernel) {
  net::FlowBatch batch;
  batch.reserve(flows.size());
  for (const auto& f : flows) batch.push_back(f);
  std::vector<Label> labels(flows.size());
  classifier.classify_batch(batch, labels, kernel);
  return labels;
}

}  // namespace spoofscope::classify
