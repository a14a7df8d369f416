// End-to-end classification pipeline: wires together the routing-table
// datasets, the inference factory and the classifier, and aggregates
// class totals — the machinery behind Table 1.
#pragma once

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
class AggregateBuilder {
 public:
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
  Aggregate agg_;
  std::vector<std::array<std::unordered_set<Asn>, kNumClasses>> members_;
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
