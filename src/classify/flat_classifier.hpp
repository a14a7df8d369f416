// Compiled flat classification plane — the DIR-24-8 answer to the trie
// engine's pointer chasing.
//
// Because the routing table only admits /8–/24 announcements (Sec 3.3)
// and every bogon prefix is /4–/24, each /24 block of the address space
// is homogeneous: all of its addresses share one base class and, when
// routed, one covering PrefixId. Compiling an existing Classifier
// therefore yields
//
//   1. a 2^24-entry base-class table  (/24 -> {bogon, unrouted,
//      routed+PrefixId, overflow}),
//   2. per (member, PrefixId) 16-bit membership records interleaving the
//      per-method bits: bit m set means method m's valid space covers the
//      whole prefix (-> Valid on hit), bit 8+m means it covers part of it
//      (-> consult the member's interval set, the extend() fallback lane),
//   3. a MemberView handle that hoists the per-member hash lookup out of
//      the per-flow loop,
//
// and classify_all becomes one table read plus one record read: the
// interleaved layout answers all eight methods from a single cache line
// (a bit-spread turns the 8-bit valid mask into the packed Label).
// Prefixes longer than /24 (possible only if the ingest invariant is
// relaxed) demote their /24 block to an overflow entry that falls back to
// the exact trie lookups, so the plane stays correct, merely slower, for
// those blocks; compile() counts them in Stats.
//
// A FlatClassifier is an immutable snapshot: it shares the source
// Classifier's valid spaces (shared_ptr<const>), and Classifier's
// copy-on-write mutable_space() guarantees later extend() calls never
// mutate a compiled plane — recompile to pick them up.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "classify/batch_kernels.hpp"
#include "classify/classifier.hpp"

namespace spoofscope::net {
class FlowBatch;
class MappedTrace;
}

namespace spoofscope::state {
class PlaneCache;
}

namespace spoofscope::classify {

/// The runtime classification engine. Construct via compile(); answers
/// the same queries as Classifier with identical results.
class FlatClassifier {
 public:
  /// Pre-resolved member handle: the single hash lookup, done once.
  class MemberView {
   public:
    Asn member() const { return member_; }
    /// False when the member appears in no configured valid space (all
    /// its routed traffic is Invalid).
    bool known() const { return slot_ != kNoSlot; }

   private:
    friend class FlatClassifier;
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    Asn member_ = net::kNoAsn;
    std::uint32_t slot_ = kNoSlot;
  };

  /// Compile-cost / memory-footprint report.
  struct Stats {
    std::size_t table_bytes = 0;        ///< base-class table footprint
    std::size_t bitset_bytes = 0;       ///< all membership records
    std::size_t prefixes = 0;           ///< routed prefixes (bitset width)
    std::size_t members = 0;            ///< distinct members across spaces
    std::size_t overflow_prefixes = 0;  ///< prefixes longer than /24
    std::size_t overflow_slots = 0;     ///< /24 entries on the slow lane
    std::size_t partial_rows = 0;       ///< (space, member) pairs needing
                                        ///< the interval-set fallback lane
  };

  /// Compiles `source` into the flat plane. O(2^24) table fill plus
  /// O(members * prefixes * log) bitset construction.
  static FlatClassifier compile(const Classifier& source);

  /// Parallel compile: the per-member bitset rows are independent, so
  /// they fan out across `pool`; the result is identical to the
  /// sequential compile.
  static FlatClassifier compile(const Classifier& source,
                                util::ThreadPool& pool);

  /// Resolves the member hash lookup once.
  MemberView member_view(Asn member) const;

  /// Fig 3 for a single method. Identical to Classifier::classify.
  TrafficClass classify(net::Ipv4Addr src, Asn member,
                        std::size_t space_idx) const {
    return classify(src, member_view(member), space_idx);
  }

  TrafficClass classify(net::Ipv4Addr src, const MemberView& view,
                        std::size_t space_idx) const;

  /// All methods at once. Identical to Classifier::classify_all.
  Label classify_all(net::Ipv4Addr src, Asn member) const {
    return classify_all(src, member_view(member));
  }

  Label classify_all(net::Ipv4Addr src, const MemberView& view) const;

  /// Batch classification over a FlowBatch's SoA lanes through the best
  /// kernel this build + CPU supports (SimdKernel::kAuto): an 8-wide AVX2
  /// gather kernel, a 4-wide NEON kernel, or the portable scalar loop
  /// with software prefetch. All kernels run a two-phase hot/slow split —
  /// phase 1 resolves the pure-table fast path for the whole batch and
  /// compacts the rows that touch the overflow or interval-set fallback
  /// lanes; phase 2 re-runs only those through the exact scalar slow
  /// lane — so labels are element-wise identical to calling classify_all
  /// per record, whichever kernel runs. out.size() must equal
  /// batch.size().
  void classify_batch(const net::FlowBatch& batch, std::span<Label> out) const;

  /// Kernel-pinned variant: `kernel` selects the implementation (the
  /// --simd knob); an explicit kernel this build/CPU cannot run throws.
  void classify_batch(const net::FlowBatch& batch, std::span<Label> out,
                      SimdKernel kernel) const;

  /// Parallel batch variant (contiguous deterministic chunks).
  void classify_batch(const net::FlowBatch& batch, std::span<Label> out,
                      util::ThreadPool& pool) const;

  void classify_batch(const net::FlowBatch& batch, std::span<Label> out,
                      util::ThreadPool& pool, SimdKernel kernel) const;

  std::vector<Label> classify_batch(const net::FlowBatch& batch) const;

  /// Tuning hook for the prefetch-distance sweep bench: the portable
  /// scalar kernel with an explicit lookahead instead of the compiled-in
  /// default. Not a dispatch path — labels are identical at any distance.
  void classify_batch_scalar(const net::FlowBatch& batch, std::span<Label> out,
                             std::size_t prefetch_distance) const;

  /// The concrete kernel a request resolves to against this plane. Mostly
  /// resolve_simd_kernel(), plus one plane-specific demotion: the AVX2
  /// record gather indexes 32-bit, so planes whose record lane exceeds
  /// 2^31 entries fall back to scalar record loads via kScalar.
  SimdKernel effective_kernel(SimdKernel requested) const;

  /// 64-bit FNV-1a digest over the complete compiled plane (base table,
  /// membership records, member order, fallback lanes). Two compiles with
  /// equal digests behave bit-identically; the striped parallel compile
  /// is asserted against the sequential one through this, and
  /// apply_updates() proves patched == fresh-compiled the same way.
  std::uint64_t plane_digest() const;

  // --- live routing churn ----------------------------------------------
  //
  // apply_updates() edits the compiled plane in place for a batch of BGP
  // announce/withdraw messages instead of recompiling: affected /24
  // ranges of the base table are repainted, membership-record rows are
  // rewritten around the surviving columns, and the overflow/fallback
  // lanes are patched to match. Presence semantics, peer-agnostic: an
  // announce adds the prefix to the live set if absent, a withdraw
  // removes it if present; everything else counts as redundant.
  //
  // PrefixIds of a live plane are canonical: the index of the prefix in
  // the live set sorted ascending by (address, length). A fresh compile
  // of a RoutingTable built by ingesting the same live set in that order
  // therefore yields a bit-identical plane — plane_digest() equality
  // against exactly that compile is the correctness oracle the churn
  // suites assert after every step. (The first apply_updates call
  // renumbers the source table's ingest-order ids to canonical order if
  // they differ.)

  /// Knobs for apply_updates.
  struct UpdateApplyOptions {
    /// Announcement length window, mirroring RoutingTableBuilder::Options
    /// (out-of-window updates are counted and ignored). Raise max_length
    /// past 24 to let updates land on the overflow lane.
    std::uint8_t min_length = 8;
    std::uint8_t max_length = 24;
    /// Optional pool: the base-table repaint fans out per /8 stripe and
    /// the record rewrite per member row, exactly like compile().
    util::ThreadPool* pool = nullptr;
  };

  /// What one batch did. announced/withdrawn count state-changing ops
  /// (net of in-batch cancellation), redundant the no-ops, out_of_range
  /// the length-filtered ones.
  struct UpdateApplyStats {
    std::size_t announced = 0;
    std::size_t withdrawn = 0;
    std::size_t redundant = 0;
    std::size_t out_of_range = 0;
    bool changed = false;  ///< plane bytes changed (epoch was bumped)
  };

  /// Applies one announce/withdraw batch in place. Only the batch's net
  /// effect lands (an announce+withdraw pair inside one batch cancels).
  /// Bumps epoch() iff the plane actually changed. Requires an owned or
  /// cache-loaded plane either way: a mapped plane is copied out of its
  /// snapshot first (ensure_owned), so the cache entry on disk is never
  /// written through.
  UpdateApplyStats apply_updates(std::span<const bgp::UpdateMessage> batch,
                                 const UpdateApplyOptions& opts);
  UpdateApplyStats apply_updates(std::span<const bgp::UpdateMessage> batch) {
    return apply_updates(batch, UpdateApplyOptions{});
  }

  /// Monotonic per-plane patch counter: 0 until the first effective
  /// apply_updates, +1 per plane-changing batch. StreamingDetector uses
  /// it to notice the plane moved under buffered flows.
  std::uint64_t epoch() const { return epoch_; }

  /// True once apply_updates has taken ownership of the route set (the
  /// overflow lane then resolves against the live set, not the source
  /// table).
  bool live() const { return live_; }

  /// The live route set in canonical order (valid when live()).
  const std::vector<net::Prefix>& live_prefixes() const {
    return live_prefixes_;
  }

  std::size_t space_count() const { return spaces_.size(); }
  const inference::ValidSpace& space(std::size_t i) const { return *spaces_[i]; }
  const bgp::RoutingTable& table() const { return *table_; }
  const Stats& stats() const { return stats_; }

 private:
  /// The plane cache (state::PlaneCache) rebuilds a FlatClassifier from
  /// a digest-validated snapshot, pointing the hot-path views into the
  /// mapped file instead of owned storage.
  friend class spoofscope::state::PlaneCache;

  FlatClassifier() = default;

  /// Entries in the base-class table (one per /24 block).
  static constexpr std::size_t kBaseEntries = std::size_t{1} << 24;

  // Base-table entry: kind in the top 2 bits, PrefixId in the low 30.
  static constexpr std::uint32_t kKindShift = 30;
  static constexpr std::uint32_t kPayloadMask = (1u << kKindShift) - 1;
  static constexpr std::uint32_t kKindUnrouted = 0;  // must be 0: zero-init
  static constexpr std::uint32_t kKindBogon = 1;
  static constexpr std::uint32_t kKindRouted = 2;
  static constexpr std::uint32_t kKindOverflow = 3;

  Label classify_routed(net::Ipv4Addr src, std::uint32_t pid,
                        const MemberView& view) const;
  Label classify_overflow(net::Ipv4Addr src, const MemberView& view) const;
  TrafficClass class_in_space(net::Ipv4Addr src, std::uint32_t pid,
                              std::uint32_t slot, std::size_t space_idx) const;

  static FlatClassifier compile_impl(const Classifier& source,
                                     util::ThreadPool* pool);

  /// Packs the same class for every configured space.
  static Label uniform_label(std::size_t num_spaces, TrafficClass c);

  /// Rebuilds the open-addressed probe table from members_.
  void rebuild_probe();

  /// member_view without the handle: the slot, or MemberView::kNoSlot.
  std::uint32_t slot_of(Asn member) const {
    std::uint32_t h =
        (static_cast<std::uint32_t>(member) * 2654435761u) & probe_mask_;
    while (probe_slots_[h] != MemberView::kNoSlot) {
      if (probe_keys_[h] == member) return probe_slots_[h];
      h = (h + 1) & probe_mask_;
    }
    return MemberView::kNoSlot;
  }

  /// Reassembles a handle from a slot the kernels resolved earlier.
  MemberView view_for(Asn member, std::uint32_t slot) const {
    MemberView view;
    view.member_ = member;
    view.slot_ = slot;
    return view;
  }

  /// Dispatches one contiguous SoA run to the resolved kernel. `kernel`
  /// must be concrete (never kAuto) and usable in this build.
  void run_kernel(SimdKernel kernel, const std::uint32_t* src,
                  const Asn* member, std::size_t n, Label* out) const;

  void kernel_scalar(const std::uint32_t* src, const Asn* member,
                     std::size_t n, Label* out,
                     std::size_t prefetch_distance) const;
#if SPOOFSCOPE_KERNEL_AVX2
  void kernel_avx2(const std::uint32_t* src, const Asn* member, std::size_t n,
                   Label* out) const;
#endif
#if SPOOFSCOPE_KERNEL_NEON
  void kernel_neon(const std::uint32_t* src, const Asn* member, std::size_t n,
                   Label* out) const;
#endif

  /// Shared phase-2 slow lane: re-resolves the pending rows a vector
  /// kernel compacted (overflow entries and partial-bit records) through
  /// the exact scalar paths.
  void resolve_pending(const std::uint32_t* src, const Asn* member,
                       const std::uint32_t* entry, const std::uint32_t* slot,
                       const std::uint32_t* pending, std::size_t n_pending,
                       Label* out) const;

  /// Base-class table, kBaseEntries entries. Heap array instead of a
  /// vector so the compile can skip the 64 MiB zero-fill: stripes only
  /// zero the lanes no prefix paints. Empty on a cache-loaded plane
  /// (the table lives in the mapped snapshot instead).
  std::unique_ptr<std::uint32_t[]> base_;
  trie::PrefixSet bogons_;           // overflow-lane bogon check
  const bgp::RoutingTable* table_ = nullptr;
  std::vector<std::shared_ptr<const inference::ValidSpace>> spaces_;
  std::vector<Asn> members_;  // sorted; a member's slot is its index
  /// Open-addressed Asn -> slot probe table (linear probing, power-of-two
  /// capacity) so member_view is O(1) instead of a binary search.
  std::vector<Asn> probe_keys_;
  std::vector<std::uint32_t> probe_slots_;
  std::uint32_t probe_mask_ = 0;
  /// Slot-major membership records: record (slot * prefixes + pid) holds
  /// the full bits (low byte, bit m = method m) and partial bits (high
  /// byte) for one (member, prefix) pair — all methods in one load.
  /// Owned storage; empty on a cache-loaded plane.
  std::vector<std::uint16_t> records_;
  /// What the hot paths actually read: the owned storage after
  /// compile(), or the mapped snapshot after a plane-cache load (both
  /// 8-byte aligned, little-endian hosts only on the mapped path).
  const std::uint32_t* base_view_ = nullptr;
  const std::uint16_t* records_view_ = nullptr;
  /// True when a 32-bit gather load at the last record cannot overread
  /// the backing storage: compile() pads owned records_ by one element;
  /// mapped planes set this only if the snapshot has trailing bytes.
  /// When false, vector kernels use scalar record loads (labels are
  /// identical either way — only the load width changes).
  bool records_gather_safe_ = false;
  /// Keeps the mapped snapshot alive for the lifetime of the views.
  std::shared_ptr<const net::MappedTrace> plane_mapping_;
  /// Per (slot, method): the member's interval set when any partial bit
  /// is set in that lane (the extend() fallback), nullptr otherwise.
  /// Indexed slot * space_count() + method.
  std::vector<const trie::IntervalSet*> fallback_;
  std::size_t num_prefixes_ = 0;
  Label all_bogon_ = 0;
  Label all_unrouted_ = 0;
  Label all_invalid_ = 0;
  Stats stats_;

  // --- live-update state (populated by the first apply_updates) --------

  /// One base-table paint over /24 blocks [begin, end], as in compile().
  struct BlockOp {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t entry = 0;
  };

  /// (address << 6) | length — the live-set hash key of a prefix.
  static std::uint64_t live_key(const net::Prefix& p) {
    return std::uint64_t{p.first()} << 6 | p.length();
  }

  /// Copies a cache-mapped plane's base table and records into owned
  /// storage so in-place patches never write through the mmap.
  void ensure_owned();

  /// Builds live_index_ / live_lengths_ / live_overflow_blocks_ /
  /// bogon_block_ops_ from live_prefixes_.
  void rebuild_live_index();

  /// Longest-prefix match over the live set (overflow lane when live());
  /// mirrors RoutingTable::covering_prefix on the patched table.
  std::optional<std::uint32_t> live_covering_prefix(net::Ipv4Addr a) const;

  /// Recomputes one /24 block's base entry from the live set, reproducing
  /// compile()'s paint order: routed lengths ascending (most specific
  /// wins), >24 overflow on top, bogons last.
  std::uint32_t compute_block_entry(std::uint32_t block) const;

  /// Fresh membership record for (member's spaces, prefix): the same
  /// full/partial decision the compile merge scan makes, via one binary
  /// search per space.
  std::uint16_t fresh_record_bits(
      const trie::IntervalSet* const* member_spaces, const net::Prefix& p) const;

  bool live_ = false;
  std::uint64_t epoch_ = 0;
  /// Canonical (address, length)-sorted live set; index == PrefixId.
  std::vector<net::Prefix> live_prefixes_;
  /// live_key -> PrefixId for every live prefix.
  std::unordered_map<std::uint64_t, std::uint32_t> live_index_;
  /// Bit l set: some live prefix has length l.
  std::uint64_t live_lengths_ = 0;
  /// /24 block -> number of live >24 prefixes inside it (the overflow
  /// paint marks).
  std::unordered_map<std::uint32_t, std::uint32_t> live_overflow_blocks_;
  /// The static bogon paint ops in bogon_prefixes() order (the last op
  /// covering a block wins, exactly as the compile paints them last).
  std::vector<BlockOp> bogon_block_ops_;
  /// Live >24 prefixes (stats_.overflow_prefixes = this + >24 bogons).
  std::size_t live_overflow_prefixes_ = 0;
  std::size_t bogon_overflow_prefixes_ = 0;
  /// Per-length live prefix counts backing live_lengths_ (index ==
  /// length), so withdrawing the last prefix of a length clears its bit
  /// without a full index rebuild.
  std::array<std::uint32_t, 33> live_length_counts_{};
  /// Per (slot, space): how many live columns have that partial bit set.
  /// The fallback lane is exactly the nonzero entries, so batches update
  /// it by the removed/added columns alone instead of re-scanning rows.
  /// Built lazily by the first plane-changing batch. Indexed like
  /// fallback_ (slot * space_count() + space).
  std::vector<std::uint32_t> partial_counts_;
  bool partial_counts_ready_ = false;
  /// Copy-mode record-rewrite scratch, recycled across batches so
  /// steady-state churn neither allocates nor redundantly zero-fills.
  std::vector<std::uint16_t> records_scratch_;
};

/// Trace classification through the plane: packs `flows` into one
/// FlowBatch and runs classify_batch. Element-wise identical to the trie
/// oracle's classify_trace.
std::vector<Label> classify_trace(const FlatClassifier& classifier,
                                  std::span<const net::FlowRecord> flows,
                                  SimdKernel kernel = SimdKernel::kAuto);

}  // namespace spoofscope::classify
