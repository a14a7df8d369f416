// End-to-end classification pipeline: wires together the routing-table
// datasets, the inference factory and the classifier, and aggregates
// class totals — the machinery behind Table 1.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "classify/classifier.hpp"
#include "net/flow_batch.hpp"
#include "net/trace.hpp"

namespace spoofscope::classify {

/// Totals for one (method, class) cell: sampled values and the number of
/// distinct contributing members.
struct ClassTotals {
  double flows = 0;
  double packets = 0;
  double bytes = 0;
  std::size_t members = 0;
};

/// Aggregated classification outcome across a trace.
struct Aggregate {
  /// totals[space_idx][class]
  std::vector<std::array<ClassTotals, kNumClasses>> totals;
  double total_packets = 0;
  double total_bytes = 0;
  double total_flows = 0;
};

/// Incremental aggregation: accumulates (flow batch, label) chunks and
/// materializes the distinct-member counts on demand. This is what lets
/// the CLI stream a trace chunk-at-a-time with bounded memory instead of
/// materializing every flow; aggregate_classes is implemented on top.
///
/// Member presence is a bit matrix: one row per member id below 2^16
/// (every id a trace record can carry) with one bit per (space, class)
/// cell, so a flow marks its member with a single OR, merge() is a
/// word-wise OR and build() counts each cell's set bits. Larger ids,
/// which reach add() only through aggregate_classes, keep a hash set per
/// cell.
class AggregateBuilder {
 public:
  /// Throws std::invalid_argument on more than 8 spaces (all a Label
  /// holds).
  explicit AggregateBuilder(std::size_t space_count);

  /// Accumulates one batch straight from its lanes; labels[i] must
  /// belong to flow i. `exclude_members` drops flows injected by those
  /// members (the Sec 5.2 router-stray exclusion).
  void add(const net::FlowBatch& batch, std::span<const Label> labels,
           const std::unordered_set<Asn>& exclude_members = {});

  /// Folds another builder's accumulation into this one. Totals are
  /// exact under any chunking: every summed quantity is an
  /// integral-valued double far below 2^53, and member sets union.
  void merge(const AggregateBuilder& other);

  /// Snapshot of the aggregate so far; the builder stays usable.
  Aggregate build() const;

 private:
  /// Member ids below this have a row in rows_.
  static constexpr Asn kDenseMembers = Asn{1} << 16;

  std::size_t cells() const { return agg_.totals.size() * kNumClasses; }

  Aggregate agg_;
  /// rows_[m]: bit s * kNumClasses + c is set once member m has a flow
  /// of class c under space s.
  std::vector<std::uint32_t> rows_;
  /// Members at or above kDenseMembers, one set per cell.
  std::vector<std::unordered_set<Asn>> large_;
  /// row_bits_[h][b]: the row bits of a label whose byte h is b (byte h
  /// packs the classes of spaces 4h .. 4h+3).
  std::array<std::array<std::uint32_t, 256>, 2> row_bits_{};
};

/// Aggregates labels over flows: packs them into one FlowBatch for
/// AggregateBuilder::add. Labels already carry the per-space classes, so
/// only the space count is needed. `exclude_members` drops flows injected
/// by those members (the Sec 5.2 router-stray exclusion).
Aggregate aggregate_classes(std::size_t space_count,
                            std::span<const net::FlowRecord> flows,
                            std::span<const Label> labels,
                            const std::unordered_set<Asn>& exclude_members = {});

}  // namespace spoofscope::classify
