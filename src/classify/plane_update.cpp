// Live routing churn: FlatClassifier::apply_updates and its helpers.
//
// The patch path must reproduce, byte for byte, what compile() would
// paint for the post-update route set — plane_digest() equality against
// exactly that compile is the oracle the churn suites assert. The paint
// rules being reproduced (see compile_impl):
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
// Everything else is renumbering: canonical PrefixIds are ranks in the
// (address, length)-sorted live set, so an insertion or removal shifts
// every later rank. The patch pays for that shift only where it can
// matter:
//
//   - a prefix's id is painted nowhere outside its own blocks, and the
//     canonical order is address-sorted, so shifted ids only occur in
//     base entries at or above the first shifted prefix's first block —
//     the remap scan starts there and is skipped entirely when no rank
//     moved (e.g. a withdraw+announce pair on the same address);
//   - a membership record depends only on (member spaces, prefix), so
//     surviving columns move as contiguous run memcpys — or, when the
//     batch preserves every rank, are not touched at all and only the
//     swapped columns are recomputed in place;
//   - the fallback lane needs "does any column set this partial bit",
//     which partial_counts_ maintains incrementally from the removed and
//     added columns alone.

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "classify/flat_classifier.hpp"
#include "net/bogon.hpp"
#include "net/mapped_trace.hpp"
#include "util/fault_injection.hpp"

namespace spoofscope::classify {

namespace {

constexpr std::uint32_t kNoPid = 0xFFFFFFFFu;
constexpr std::size_t kStripeBlocksU = std::size_t{1} << 16;
constexpr std::size_t kNumStripesU = std::size_t{1} << 8;

}  // namespace

void FlatClassifier::ensure_owned() {
  if (base_.empty()) {
    base_.assign(base_view_, base_view_ + kBaseEntries);
    base_view_ = base_.data();
  }
  if (records_.empty()) {
    const std::size_t record_count = members_.size() * num_prefixes_;
    records_.resize(record_count + 1);
    std::copy(records_view_, records_view_ + record_count, records_.data());
    records_[record_count] = 0;  // gather sentinel
    records_view_ = records_.data();
    records_gather_safe_ = true;
  }
  plane_mapping_.reset();
}

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
  // Same decision the compile merge scan makes for one (row, prefix)
  // pair: the first interval ending at or after the prefix start is the
  // only one that can fully contain it; any overlap short of full
  // containment is partial.
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

  UpdateApplyStats result;

  // The pre-batch live view. After the first call the canonical set and
  // its index are maintained in place; the first call collects the
  // source table's ingest-order prefixes (ids need not be sorted yet).
  const bool first = !live_;
  std::vector<net::Prefix> first_prefixes;
  std::unordered_map<std::uint64_t, std::uint32_t> first_index;
  if (first) {
    first_prefixes.resize(num_prefixes_);
    table_->visit_prefixes(
        [&](bgp::RoutingTable::PrefixId pid, const net::Prefix& p) {
          first_prefixes[pid] = p;
        });
    first_index.reserve(first_prefixes.size() * 2);
    for (std::uint32_t pid = 0; pid < first_prefixes.size(); ++pid) {
      first_index.emplace(live_key(first_prefixes[pid]), pid);
    }
  }
  const std::vector<net::Prefix>& old_prefixes =
      first ? first_prefixes : live_prefixes_;
  const auto& old_index = first ? first_index : live_index_;
  const std::size_t old_count = old_prefixes.size();

  // Net effect of the batch: presence semantics with in-batch
  // cancellation (announce+withdraw of the same prefix is a wash).
  std::unordered_map<std::uint64_t, net::Prefix> added;
  std::unordered_set<std::uint64_t> removed;
  for (const bgp::UpdateMessage& u : batch) {
    const std::uint8_t len = u.prefix.length();
    if (len < opts.min_length || len > opts.max_length) {
      ++result.out_of_range;
      continue;
    }
    const std::uint64_t key = live_key(u.prefix);
    const bool in_old = old_index.contains(key);
    if (u.kind == bgp::UpdateMessage::Kind::kAnnounce) {
      if (in_old) {
        removed.erase(key);
      } else {
        added.emplace(key, u.prefix);
      }
    } else {
      if (in_old) {
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

  // Removals by old PrefixId (ascending), additions sorted canonically.
  std::vector<std::uint32_t> removed_pids;
  removed_pids.reserve(removed.size());
  for (const std::uint64_t key : removed) {
    removed_pids.push_back(old_index.find(key)->second);
  }
  std::sort(removed_pids.begin(), removed_pids.end());
  std::vector<net::Prefix> added_sorted;
  added_sorted.reserve(added.size());
  for (const auto& [key, p] : added) {
    (void)key;
    added_sorted.push_back(p);
  }
  std::sort(added_sorted.begin(), added_sorted.end());

  // New canonical order: survivors + additions, sorted (address, length);
  // each entry remembers its old PrefixId (kNoPid for additions). After
  // the first call the survivors are already canonically ordered, so a
  // linear merge replaces the full sort.
  struct NewEntry {
    net::Prefix p;
    std::uint32_t old_pid;
  };
  std::vector<NewEntry> order;
  order.reserve(old_count - removed_pids.size() + added_sorted.size());
  if (first) {
    for (std::uint32_t pid = 0; pid < old_count; ++pid) {
      if (!removed.contains(live_key(old_prefixes[pid]))) {
        order.push_back({old_prefixes[pid], pid});
      }
    }
    for (const net::Prefix& p : added_sorted) order.push_back({p, kNoPid});
    std::sort(order.begin(), order.end(),
              [](const NewEntry& a, const NewEntry& b) { return a.p < b.p; });
  } else {
    std::size_t r = 0;
    std::size_t a = 0;
    for (std::uint32_t pid = 0; pid < old_count; ++pid) {
      if (r < removed_pids.size() && removed_pids[r] == pid) {
        ++r;
        continue;
      }
      while (a < added_sorted.size() && added_sorted[a] < old_prefixes[pid]) {
        order.push_back({added_sorted[a++], kNoPid});
      }
      order.push_back({old_prefixes[pid], pid});
    }
    while (a < added_sorted.size()) order.push_back({added_sorted[a++], kNoPid});
  }

  std::vector<std::uint32_t> old2new(old_count, kNoPid);
  std::vector<std::pair<std::uint32_t, net::Prefix>> added_ranked;
  added_ranked.reserve(added_sorted.size());
  bool renumbered = false;
  std::uint32_t remap_from_block = 0;
  for (std::uint32_t j = 0; j < order.size(); ++j) {
    if (order[j].old_pid == kNoPid) {
      added_ranked.emplace_back(j, order[j].p);
      continue;
    }
    old2new[order[j].old_pid] = j;
    if (order[j].old_pid != j && !renumbered) {
      renumbered = true;
      // Shifted ids belong to survivors at or after this one in the old
      // canonical order; their painted blocks all start at or after this
      // prefix's first block, so the remap scan starts there. The first
      // call has ingest-order ids with no such bound: scan everything.
      remap_from_block = first ? 0 : order[j].p.first() >> 8;
    }
  }

  const bool net_change = !added.empty() || !removed.empty();
  result.changed = net_change || renumbered;
  if (!result.changed) {
    // Plane bytes are already exactly the canonical compile of the live
    // set. First call still takes ownership (overflow lane switches to
    // the live lookup — same answers), without an epoch bump.
    if (first) {
      live_prefixes_ = std::move(first_prefixes);
      rebuild_live_index();
      live_ = true;
      stats_.overflow_prefixes =
          live_overflow_prefixes_ + bogon_overflow_prefixes_;
    }
    return result;
  }

  ensure_owned();

  // What the repaint needs from the pre-batch set, saved before the live
  // metadata mutates under the old_prefixes reference.
  std::vector<net::Prefix> removed_prefixes;
  removed_prefixes.reserve(removed_pids.size());
  for (const std::uint32_t pid : removed_pids) {
    removed_prefixes.push_back(old_prefixes[pid]);
  }

  // Commit the new live metadata first: compute_block_entry resolves
  // against the NEW index during the repaint below. The maintained index
  // only re-ranks survivors when ranks actually shifted.
  if (first) {
    live_prefixes_.clear();
    live_prefixes_.reserve(order.size());
    for (const NewEntry& e : order) live_prefixes_.push_back(e.p);
    rebuild_live_index();
  } else {
    for (const net::Prefix& p : removed_prefixes) {
      live_index_.erase(live_key(p));
      --live_length_counts_[p.length()];
      if (p.length() > 24) {
        --live_overflow_prefixes_;
        const auto it = live_overflow_blocks_.find(p.first() >> 8);
        if (--(it->second) == 0) live_overflow_blocks_.erase(it);
      }
    }
    if (renumbered) {
      for (auto& [key, pid] : live_index_) pid = old2new[pid];
    }
    for (const auto& [rank, p] : added_ranked) {
      live_index_.emplace(live_key(p), rank);
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
    live_prefixes_.clear();
    live_prefixes_.reserve(order.size());
    for (const NewEntry& e : order) live_prefixes_.push_back(e.p);
  }

  // Affected /24 ranges: everything an added or removed prefix painted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  ranges.reserve(added_sorted.size() + removed_prefixes.size());
  const auto add_range = [&](const net::Prefix& p) {
    if (p.length() <= 24) {
      ranges.emplace_back(p.first() >> 8, p.last() >> 8);
    } else {
      ranges.emplace_back(p.first() >> 8, p.first() >> 8);
    }
  };
  for (const net::Prefix& p : added_sorted) add_range(p);
  for (const net::Prefix& p : removed_prefixes) add_range(p);
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

  // --- base-table remap: shifted PrefixIds only ------------------------
  // Removed ids can only appear inside the repaint ranges (a prefix's id
  // is painted nowhere outside its own blocks), so the remap leaves them
  // for the repaint to overwrite. When no rank shifted this whole pass
  // vanishes — the win that makes rank-preserving churn cheap.
  if (renumbered) {
    const auto remap_stripes = [&](std::size_t stripe_begin,
                                   std::size_t stripe_end) {
      for (std::size_t s = stripe_begin; s < stripe_end; ++s) {
        const std::uint32_t stripe_lo =
            static_cast<std::uint32_t>(s * kStripeBlocksU);
        const std::uint32_t stripe_hi =
            static_cast<std::uint32_t>((s + 1) * kStripeBlocksU - 1);
        const std::uint32_t b0 = std::max(remap_from_block, stripe_lo);
        for (std::uint32_t b = b0; b <= stripe_hi; ++b) {
          const std::uint32_t e = base_[b];
          if ((e >> kKindShift) != kKindRouted) continue;
          const std::uint32_t np = old2new[e & kPayloadMask];
          if (np != kNoPid && np != (e & kPayloadMask)) {
            base_[b] = (kKindRouted << kKindShift) | np;
          }
        }
      }
    };
    const std::size_t stripe_begin = remap_from_block / kStripeBlocksU;
    if (opts.pool != nullptr) {
      opts.pool->parallel_for(stripe_begin, kNumStripesU, remap_stripes);
    } else {
      remap_stripes(stripe_begin, kNumStripesU);
    }
  }

  // --- repaint of the affected ranges ----------------------------------
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

  // --- membership records ----------------------------------------------
  // A record depends only on (member spaces, prefix): surviving columns
  // keep their values at new ranks, added columns get the merge-scan
  // decision via fresh_record_bits. partial_counts_ tracks per (row,
  // space) how many columns set the partial bit, so the fallback lane
  // follows from the removed/added columns without re-scanning rows.
  const std::size_t new_count = order.size();
  const std::size_t num_spaces = spaces_.size();

  if (!partial_counts_ready_) {
    // One-time census of the pre-batch records (value multiset, so the
    // ingest-order layout of a first call counts the same).
    partial_counts_.assign(members_.size() * num_spaces, 0);
    const auto census = [&](std::size_t slot_begin, std::size_t slot_end) {
      for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
        const std::uint16_t* row = records_.data() + slot * old_count;
        std::uint32_t* counts = partial_counts_.data() + slot * num_spaces;
        for (std::size_t j = 0; j < old_count; ++j) {
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
    partial_counts_ready_ = true;
  }

  const auto count_bits = [num_spaces](std::uint32_t* counts, std::uint16_t v,
                                       std::int32_t dir) {
    if ((v & 0xFF00u) == 0) return;
    for (std::size_t s = 0; s < num_spaces; ++s) {
      counts[s] += static_cast<std::uint32_t>(dir * ((v >> (8 + s)) & 1));
    }
  };

  const bool in_place = !first && !renumbered && new_count == old_count;
  if (in_place) {
    // Rank-preserving swap batch (each addition took exactly one removed
    // rank): only the swapped columns change, in place.
    const auto patch_rows = [&](std::size_t slot_begin, std::size_t slot_end) {
      std::array<const trie::IntervalSet*, 8> member_spaces{};
      for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
        const Asn member = members_[slot];
        bool any_space = false;
        for (std::size_t s = 0; s < num_spaces; ++s) {
          const trie::IntervalSet* space = spaces_[s]->space_of(member);
          member_spaces[s] =
              (space != nullptr && !space->empty()) ? space : nullptr;
          any_space |= member_spaces[s] != nullptr;
        }
        std::uint16_t* row = records_.data() + slot * new_count;
        std::uint32_t* counts = partial_counts_.data() + slot * num_spaces;
        for (const auto& [rank, p] : added_ranked) {
          count_bits(counts, row[rank], -1);
          const std::uint16_t v =
              any_space ? fresh_record_bits(member_spaces.data(), p) : 0;
          row[rank] = v;
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
  } else {
    // Copy mode: surviving columns move as contiguous run memcpys into
    // recycled scratch (rank shifts preserve relative order, so runs of
    // consecutive old ids land at consecutive new ranks).
    struct Run {
      std::uint32_t new_begin;
      std::uint32_t old_begin;
      std::uint32_t len;
    };
    std::vector<Run> runs;
    for (std::uint32_t j = 0; j < order.size(); ++j) {
      if (order[j].old_pid == kNoPid) continue;
      if (!runs.empty() &&
          runs.back().old_begin + runs.back().len == order[j].old_pid &&
          runs.back().new_begin + runs.back().len == j) {
        ++runs.back().len;
      } else {
        runs.push_back({j, order[j].old_pid, 1});
      }
    }
    records_scratch_.resize(members_.size() * new_count + 1);
    const auto rewrite_rows = [&](std::size_t slot_begin,
                                  std::size_t slot_end) {
      std::array<const trie::IntervalSet*, 8> member_spaces{};
      for (std::size_t slot = slot_begin; slot < slot_end; ++slot) {
        const Asn member = members_[slot];
        bool any_space = false;
        for (std::size_t s = 0; s < num_spaces; ++s) {
          const trie::IntervalSet* space = spaces_[s]->space_of(member);
          member_spaces[s] =
              (space != nullptr && !space->empty()) ? space : nullptr;
          any_space |= member_spaces[s] != nullptr;
        }
        const std::uint16_t* old_row = records_.data() + slot * old_count;
        std::uint16_t* new_row = records_scratch_.data() + slot * new_count;
        std::uint32_t* counts = partial_counts_.data() + slot * num_spaces;
        if (!any_space) {
          // The member's record row is all zero with or without the
          // batch; the recycled scratch still needs the explicit zeros.
          std::memset(new_row, 0, new_count * sizeof(std::uint16_t));
          continue;
        }
        for (const Run& run : runs) {
          std::memcpy(new_row + run.new_begin, old_row + run.old_begin,
                      run.len * sizeof(std::uint16_t));
        }
        for (const std::uint32_t pid : removed_pids) {
          count_bits(counts, old_row[pid], -1);
        }
        for (const auto& [rank, p] : added_ranked) {
          const std::uint16_t v = fresh_record_bits(member_spaces.data(), p);
          new_row[rank] = v;
          count_bits(counts, v, +1);
        }
        for (std::size_t s = 0; s < num_spaces; ++s) {
          fallback_[slot * num_spaces + s] =
              counts[s] > 0 ? member_spaces[s] : nullptr;
        }
      }
    };
    if (opts.pool != nullptr) {
      opts.pool->parallel_for(0, members_.size(), rewrite_rows);
    } else {
      rewrite_rows(0, members_.size());
    }
    records_scratch_[members_.size() * new_count] = 0;  // gather sentinel
    std::swap(records_, records_scratch_);
    records_view_ = records_.data();
    records_gather_safe_ = true;
  }
  num_prefixes_ = new_count;

  stats_.prefixes = new_count;
  stats_.bitset_bytes = members_.size() * new_count * sizeof(std::uint16_t);
  stats_.overflow_slots = static_cast<std::size_t>(
      static_cast<std::int64_t>(stats_.overflow_slots) + overflow_total);
  stats_.overflow_prefixes =
      live_overflow_prefixes_ + bogon_overflow_prefixes_;
  stats_.partial_rows = 0;
  for (const auto* fb : fallback_) {
    if (fb != nullptr) ++stats_.partial_rows;
  }

  live_ = true;
  ++epoch_;
  return result;
}

}  // namespace spoofscope::classify
