// Live routing churn: FlatClassifier::apply_updates and its helpers.
//
// The patch path must reproduce, byte for byte, what compile() would
// paint for the post-update route set ingested in PrefixId order —
// plane_digest() equality against exactly that compile is the oracle
// the churn suites assert. The paint rules being reproduced (see
// compile_impl):
//
//   1. routed prefixes paint in ascending length order, so for any /24
//      block the most specific <=24 live cover wins;
//   2. >24 routed prefixes paint kKindOverflow over their first block,
//      after every <=24 routed paint;
//   3. bogons paint last, in bogon_prefixes() order (<=24 -> kKindBogon
//      over the whole range, >24 -> kKindOverflow over the first block).
//
// A /24 block's final entry is therefore a pure function of the live set
// restricted to that block plus the static bogon list — which is what
// compute_block_entry evaluates, so only blocks inside an added or
// removed prefix's range need repainting.
//
// PrefixIds stay where they are. A withdrawn prefix's id is filled by
// the current last id (swap-remove), and an announced prefix takes the
// next free id at the end. So a batch touches only:
//
//   - the /24 ranges of its added and removed prefixes (repainted), and
//     the range of each prefix that moved into a hole (its routed|last
//     entries become routed|hole; a prefix longer than /24 paints no id);
//   - per member row, the holes (row[hole] = row[last]) and the added
//     columns (fresh_record_bits). partial_counts_ follows from the
//     removed and added columns alone, and the fallback lane from it.
//
// The row stride only grows: a batch that nets more live prefixes than
// the stride holds restrides every row once; a shrinking batch leaves
// unused columns past num_prefixes_ that nothing reads, hashes or counts.

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "classify/flat_classifier.hpp"
#include "net/bogon.hpp"
#include "util/fault_injection.hpp"

namespace spoofscope::classify {

void FlatClassifier::rebuild_live_index() {
  live_index_.clear();
  live_index_.reserve(live_prefixes_.size() * 2);
  live_lengths_ = 0;
  live_length_counts_.fill(0);
  live_overflow_blocks_.clear();
  live_overflow_prefixes_ = 0;
  for (std::uint32_t pid = 0; pid < live_prefixes_.size(); ++pid) {
    const net::Prefix& p = live_prefixes_[pid];
    live_index_.emplace(live_key(p), pid);
    live_lengths_ |= std::uint64_t{1} << p.length();
    ++live_length_counts_[p.length()];
    if (p.length() > 24) {
      ++live_overflow_prefixes_;
      ++live_overflow_blocks_[p.first() >> 8];
    }
  }
  if (bogon_block_ops_.empty()) {
    bogon_overflow_prefixes_ = 0;
    for (const auto& p : net::bogon_prefixes()) {
      if (p.length() <= 24) {
        bogon_block_ops_.push_back(
            {p.first() >> 8, p.last() >> 8, kKindBogon << kKindShift});
      } else {
        ++bogon_overflow_prefixes_;
        bogon_block_ops_.push_back(
            {p.first() >> 8, p.first() >> 8, kKindOverflow << kKindShift});
      }
    }
  }
}

std::optional<std::uint32_t> FlatClassifier::live_covering_prefix(
    net::Ipv4Addr a) const {
  const std::uint32_t v = a.value();
  for (int len = 32; len >= 0; --len) {
    if (((live_lengths_ >> len) & 1) == 0) continue;
    const std::uint64_t key =
        std::uint64_t{v & net::Prefix::mask_for(static_cast<std::uint8_t>(len))}
            << 6 |
        static_cast<std::uint64_t>(len);
    if (auto it = live_index_.find(key); it != live_index_.end()) {
      return it->second;
    }
  }
  return std::nullopt;
}

std::uint32_t FlatClassifier::compute_block_entry(std::uint32_t block) const {
  // Bogons paint last: the last bogon op covering the block is final.
  for (auto it = bogon_block_ops_.rbegin(); it != bogon_block_ops_.rend();
       ++it) {
    if (it->begin <= block && block <= it->end) return it->entry;
  }
  // >24 overflow marks paint over every <=24 routed cover.
  if (auto it = live_overflow_blocks_.find(block);
      it != live_overflow_blocks_.end() && it->second > 0) {
    return kKindOverflow << kKindShift;
  }
  // Most specific <=24 live cover; any <=24 prefix covering one address
  // of a /24 block covers (and is aligned to) the whole block.
  const std::uint32_t addr = block << 8;
  for (int len = 24; len >= 0; --len) {
    if (((live_lengths_ >> len) & 1) == 0) continue;
    const std::uint64_t key =
        std::uint64_t{addr &
                      net::Prefix::mask_for(static_cast<std::uint8_t>(len))}
            << 6 |
        static_cast<std::uint64_t>(len);
    if (auto it = live_index_.find(key); it != live_index_.end()) {
      return (kKindRouted << kKindShift) | it->second;
    }
  }
  return kKindUnrouted << kKindShift;
}

std::uint16_t FlatClassifier::fresh_record_bits(
    const trie::IntervalSet* const* member_spaces, const net::Prefix& p) const {
  // Same decision the compile's row build makes for one (row, prefix)
  // pair, reached from the prefix side: the first interval ending at or
  // after the prefix start is the only one that can fully contain it;
  // any overlap short of full containment is partial.
  std::uint16_t bits = 0;
  for (std::size_t s = 0; s < spaces_.size(); ++s) {
    const trie::IntervalSet* space = member_spaces[s];
    if (space == nullptr) continue;
    const auto& ivs = space->intervals();
    const auto it = std::lower_bound(
        ivs.begin(), ivs.end(), p.first(),
        [](const auto& iv, std::uint32_t v) { return iv.hi < v; });
    if (it == ivs.end() || it->lo > p.last()) continue;
    if (it->lo <= p.first() && it->hi >= p.last()) {
      bits |= static_cast<std::uint16_t>(1u << s);
    } else {
      bits |= static_cast<std::uint16_t>(1u << (8 + s));
    }
  }
  return bits;
}

FlatClassifier::UpdateApplyStats FlatClassifier::apply_updates(
    std::span<const bgp::UpdateMessage> batch, const UpdateApplyOptions& opts) {
  using util::FaultInjector;
  using util::FaultKind;
  if (FaultInjector* inj = FaultInjector::current()) {
    // Consulted before any mutation: a crash here models dying with the
    // batch unapplied — the plane must still be the pre-batch plane.
    if (inj->at("plane.apply_updates", {FaultKind::kCrash}) ==
        FaultKind::kCrash) {
      throw util::InjectedCrash("plane.apply_updates");
    }
  }
  if (opts.min_length > opts.max_length || opts.max_length > 32) {
    throw std::invalid_argument("apply_updates: bad length window");
  }

  // The first call adopts the source table's ids as they are; from then
  // on the overflow lane resolves against the live set.
  if (!live_) {
    live_prefixes_ = table_->prefixes();
    rebuild_live_index();
    live_ = true;
  }

  // Net effect of the batch: presence semantics with in-batch
  // cancellation (announce+withdraw of the same prefix is a wash).
  UpdateApplyStats result;
  std::unordered_map<std::uint64_t, net::Prefix> added;
  std::unordered_set<std::uint64_t> removed;
  for (const bgp::UpdateMessage& u : batch) {
    const std::uint8_t len = u.prefix.length();
    if (len < opts.min_length || len > opts.max_length) {
      ++result.out_of_range;
      continue;
    }
    const std::uint64_t key = live_key(u.prefix);
    const bool live = live_index_.contains(key);
    if (u.kind == bgp::UpdateMessage::Kind::kAnnounce) {
      if (live) {
        removed.erase(key);
      } else {
        added.emplace(key, u.prefix);
      }
    } else {
      if (live) {
        removed.insert(key);
      } else {
        added.erase(key);
      }
    }
  }
  // Counters reflect the batch's NET effect: a cancelled announce+
  // withdraw pair lands in redundant, not in announced/withdrawn.
  result.announced = added.size();
  result.withdrawn = removed.size();
  result.redundant =
      batch.size() - result.out_of_range - result.announced - result.withdrawn;
  result.changed = !added.empty() || !removed.empty();
  if (!result.changed) return result;

  const std::size_t num_spaces = spaces_.size();
  if (partial_counts_.empty()) {
    // One-time census of the live columns: per (row, space), how many
    // set the partial bit.
    partial_counts_.assign(members_.size() * num_spaces, 0);
    const auto census = [&](std::size_t slot_begin, std::size_t slot_end) {
      for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
        const std::uint16_t* row = records_.data() + slot * record_stride_;
        std::uint32_t* counts = partial_counts_.data() + slot * num_spaces;
        for (std::size_t j = 0; j < num_prefixes_; ++j) {
          const std::uint16_t v = row[j];
          if ((v & 0xFF00u) == 0) continue;
          for (std::size_t s = 0; s < num_spaces; ++s) {
            counts[s] += (v >> (8 + s)) & 1u;
          }
        }
      }
    };
    if (opts.pool != nullptr) {
      opts.pool->parallel_for(0, members_.size(), census);
    } else {
      census(0, members_.size());
    }
  }

  // --- live set: swap-remove withdrawals, append announcements ---------
  // Descending id order, so the last id that fills a hole is never one
  // this batch withdraws. A moved prefix's own painted entries follow it
  // from routed|last to routed|hole; a chained move (the filler is later
  // the last id again) simply moves it twice, in order.
  struct Removal {
    std::uint32_t hole;
    std::uint32_t last;  ///< == hole when the last id itself was withdrawn
  };
  std::vector<std::uint32_t> removed_ids;
  removed_ids.reserve(removed.size());
  for (const std::uint64_t key : removed) {
    removed_ids.push_back(live_index_.find(key)->second);
  }
  std::sort(removed_ids.begin(), removed_ids.end(), std::greater<>());
  std::vector<Removal> removals;
  removals.reserve(removed_ids.size());
  std::vector<net::Prefix> touched;  // added and removed prefixes
  touched.reserve(removed.size() + added.size());
  for (const std::uint32_t hole : removed_ids) {
    const net::Prefix gone = live_prefixes_[hole];
    touched.push_back(gone);
    live_index_.erase(live_key(gone));
    --live_length_counts_[gone.length()];
    if (gone.length() > 24) {
      --live_overflow_prefixes_;
      const auto it = live_overflow_blocks_.find(gone.first() >> 8);
      if (--(it->second) == 0) live_overflow_blocks_.erase(it);
    }
    const auto last = static_cast<std::uint32_t>(live_prefixes_.size() - 1);
    removals.push_back({hole, last});
    if (hole != last) {
      const net::Prefix moved = live_prefixes_[last];
      live_prefixes_[hole] = moved;
      live_index_[live_key(moved)] = hole;
      if (moved.length() <= 24) {
        const std::uint32_t from = (kKindRouted << kKindShift) | last;
        const std::uint32_t to = (kKindRouted << kKindShift) | hole;
        const std::uint32_t end = moved.last() >> 8;
        for (std::uint32_t b = moved.first() >> 8; b <= end; ++b) {
          if (base_[b] == from) base_[b] = to;
        }
      }
    }
    live_prefixes_.pop_back();
  }
  const std::size_t kept = live_prefixes_.size();
  std::vector<net::Prefix> added_sorted;
  added_sorted.reserve(added.size());
  for (const auto& entry : added) added_sorted.push_back(entry.second);
  // (address, length) order makes the new ids deterministic.
  std::sort(added_sorted.begin(), added_sorted.end());
  for (const net::Prefix& p : added_sorted) {
    touched.push_back(p);
    live_index_.emplace(live_key(p),
                        static_cast<std::uint32_t>(live_prefixes_.size()));
    live_prefixes_.push_back(p);
    ++live_length_counts_[p.length()];
    if (p.length() > 24) {
      ++live_overflow_prefixes_;
      ++live_overflow_blocks_[p.first() >> 8];
    }
  }
  live_lengths_ = 0;
  for (int len = 0; len <= 32; ++len) {
    if (live_length_counts_[len] != 0) live_lengths_ |= std::uint64_t{1} << len;
  }

  // --- repaint of the added and removed prefixes' ranges ----------------
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  ranges.reserve(touched.size());
  for (const net::Prefix& p : touched) {
    const std::uint32_t first = p.first() >> 8;
    ranges.emplace_back(first, p.length() <= 24 ? p.last() >> 8 : first);
  }
  std::sort(ranges.begin(), ranges.end());
  // Merge overlapping/adjacent ranges so no block is repainted (and its
  // overflow delta counted) twice.
  std::size_t merged = 0;
  for (const auto& r : ranges) {
    if (merged > 0 && r.first <= ranges[merged - 1].second + 1) {
      ranges[merged - 1].second = std::max(ranges[merged - 1].second, r.second);
    } else {
      ranges[merged++] = r;
    }
  }
  ranges.resize(merged);

  std::vector<std::int64_t> overflow_delta(ranges.size(), 0);
  const auto repaint_ranges = [&](std::size_t range_begin,
                                  std::size_t range_end) {
    for (std::size_t ri = range_begin; ri < range_end; ++ri) {
      std::int64_t delta = 0;
      for (std::uint32_t b = ranges[ri].first; b <= ranges[ri].second; ++b) {
        const std::uint32_t old_e = base_[b];
        const std::uint32_t new_e = compute_block_entry(b);
        if ((old_e >> kKindShift) == kKindOverflow) --delta;
        if ((new_e >> kKindShift) == kKindOverflow) ++delta;
        if (new_e != old_e) base_[b] = new_e;
      }
      overflow_delta[ri] = delta;
    }
  };
  if (opts.pool != nullptr && ranges.size() > 1) {
    opts.pool->parallel_for(0, ranges.size(), repaint_ranges);
  } else {
    repaint_ranges(0, ranges.size());
  }
  std::int64_t overflow_total = 0;
  for (const std::int64_t d : overflow_delta) overflow_total += d;

  // --- membership records: one loop per member row ---------------------
  // A record depends only on (member spaces, prefix), so moved columns
  // keep their values and only added columns need fresh_record_bits.
  const std::size_t new_count = live_prefixes_.size();
  const bool restride = new_count > record_stride_;
  util::HugePageVector<std::uint16_t> restrided;
  if (restride) restrided.resize(members_.size() * new_count + 1);
  const auto count_bits = [num_spaces](std::uint32_t* counts, std::uint16_t v,
                                       std::int32_t dir) {
    if ((v & 0xFF00u) == 0) return;
    for (std::size_t s = 0; s < num_spaces; ++s) {
      counts[s] += static_cast<std::uint32_t>(dir * ((v >> (8 + s)) & 1));
    }
  };
  const auto patch_rows = [&](std::size_t slot_begin, std::size_t slot_end) {
    std::array<const trie::IntervalSet*, 8> member_spaces{};
    for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
      for (std::size_t s = 0; s < num_spaces; ++s) {
        const trie::IntervalSet* space = spaces_[s]->space_of(members_[slot]);
        member_spaces[s] =
            (space != nullptr && !space->empty()) ? space : nullptr;
      }
      std::uint16_t* row = records_.data() + slot * record_stride_;
      std::uint32_t* counts = partial_counts_.data() + slot * num_spaces;
      for (const Removal& r : removals) {
        count_bits(counts, row[r.hole], -1);
        row[r.hole] = row[r.last];
      }
      if (restride) {
        std::uint16_t* wide = restrided.data() + slot * new_count;
        std::memcpy(wide, row, kept * sizeof(std::uint16_t));
        row = wide;
      }
      for (std::size_t a = 0; a < added_sorted.size(); ++a) {
        const std::uint16_t v =
            fresh_record_bits(member_spaces.data(), added_sorted[a]);
        row[kept + a] = v;
        count_bits(counts, v, +1);
      }
      for (std::size_t s = 0; s < num_spaces; ++s) {
        fallback_[slot * num_spaces + s] =
            counts[s] > 0 ? member_spaces[s] : nullptr;
      }
    }
  };
  if (opts.pool != nullptr) {
    opts.pool->parallel_for(0, members_.size(), patch_rows);
  } else {
    patch_rows(0, members_.size());
  }
  if (restride) {
    restrided[members_.size() * new_count] = 0;  // gather sentinel
    records_ = std::move(restrided);
    record_stride_ = new_count;
  }
  num_prefixes_ = new_count;

  stats_.prefixes = new_count;
  stats_.bitset_bytes =
      members_.size() * record_stride_ * sizeof(std::uint16_t);
  stats_.overflow_slots = static_cast<std::size_t>(
      static_cast<std::int64_t>(stats_.overflow_slots) + overflow_total);
  stats_.overflow_prefixes =
      live_overflow_prefixes_ + bogon_overflow_prefixes_;
  stats_.partial_rows = 0;
  for (const auto* fb : fallback_) {
    if (fb != nullptr) ++stats_.partial_rows;
  }

  ++epoch_;
  return result;
}

}  // namespace spoofscope::classify
