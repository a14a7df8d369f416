#include "classify/pipeline.hpp"

namespace spoofscope::classify {

AggregateBuilder::AggregateBuilder(std::size_t space_count) {
  agg_.totals.resize(space_count);
  members_.resize(space_count);
}

void AggregateBuilder::add(const net::FlowBatch& batch,
                           std::span<const Label> labels,
                           const std::unordered_set<Asn>& exclude_members) {
  const std::size_t space_count = agg_.totals.size();
  const auto member_in = batch.member_in();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Asn member = member_in[i];
    if (exclude_members.count(member)) continue;
    agg_.total_packets += packets[i];
    agg_.total_bytes += static_cast<double>(bytes[i]);
    agg_.total_flows += 1;
    for (std::size_t s = 0; s < space_count; ++s) {
      const auto c = static_cast<std::size_t>(Classifier::unpack(labels[i], s));
      auto& cell = agg_.totals[s][c];
      cell.flows += 1;
      cell.packets += packets[i];
      cell.bytes += static_cast<double>(bytes[i]);
      members_[s][c].insert(member);
    }
  }
}

void AggregateBuilder::merge(const AggregateBuilder& other) {
  agg_.total_packets += other.agg_.total_packets;
  agg_.total_bytes += other.agg_.total_bytes;
  agg_.total_flows += other.agg_.total_flows;
  for (std::size_t s = 0; s < agg_.totals.size(); ++s) {
    for (int c = 0; c < kNumClasses; ++c) {
      agg_.totals[s][c].flows += other.agg_.totals[s][c].flows;
      agg_.totals[s][c].packets += other.agg_.totals[s][c].packets;
      agg_.totals[s][c].bytes += other.agg_.totals[s][c].bytes;
      members_[s][c].insert(other.members_[s][c].begin(),
                            other.members_[s][c].end());
    }
  }
}

Aggregate AggregateBuilder::build() const {
  Aggregate out = agg_;
  for (std::size_t s = 0; s < out.totals.size(); ++s) {
    for (int c = 0; c < kNumClasses; ++c) {
      out.totals[s][c].members = members_[s][c].size();
    }
  }
  return out;
}

Aggregate aggregate_classes(std::size_t space_count,
                            std::span<const net::FlowRecord> flows,
                            std::span<const Label> labels,
                            const std::unordered_set<Asn>& exclude_members) {
  net::FlowBatch batch;
  batch.reserve(flows.size());
  for (const auto& f : flows) batch.push_back(f);
  AggregateBuilder builder(space_count);
  builder.add(batch, labels, exclude_members);
  return builder.build();
}

}  // namespace spoofscope::classify
