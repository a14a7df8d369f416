#include "classify/pipeline.hpp"

#include <array>
#include <bit>
#include <stdexcept>

namespace spoofscope::classify {

namespace {

/// Integer partial sums of the flows sharing one label byte.
struct ByteSums {
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// The class of space `s` within byte s / 4 of a Label whose value is
/// `b` (Classifier::unpack, one byte at a time).
std::size_t class_in_byte(std::size_t b, std::size_t s) {
  return (b >> (2 * (s % 4))) & 3;
}

}  // namespace

AggregateBuilder::AggregateBuilder(std::size_t space_count) {
  if (space_count > 8) {
    throw std::invalid_argument("AggregateBuilder: at most 8 spaces fit a Label");
  }
  agg_.totals.resize(space_count);
  rows_.resize(kDenseMembers);
  large_.resize(cells());
  for (std::size_t s = 0; s < space_count; ++s) {
    for (std::size_t b = 0; b < 256; ++b) {
      row_bits_[s / 4][b] |= std::uint32_t{1}
                             << (s * kNumClasses + class_in_byte(b, s));
    }
  }
}

void AggregateBuilder::add(const net::FlowBatch& batch,
                           std::span<const Label> labels,
                           const std::unordered_set<Asn>& exclude_members) {
  const std::size_t space_count = agg_.totals.size();
  const std::size_t n = batch.size();
  const auto member_in = batch.member_in();
  const auto packets = batch.packets();
  const auto bytes = batch.bytes();
  // Flows are tallied in integers per label byte, which packs the classes
  // of four spaces, and folded into the double totals once per call:
  // exact, since every total is integral and far below 2^53.
  std::array<std::array<ByteSums, 256>, 2> by_byte{};
  const auto run = [&](auto excluded) {
    for (std::size_t i = 0; i < n; ++i) {
      const Asn member = member_in[i];
      if (excluded(member)) continue;
      const unsigned label = labels[i];
      const unsigned lo = label & 0xff;
      const unsigned hi = label >> 8;
      for (ByteSums* sums : {&by_byte[0][lo], &by_byte[1][hi]}) {
        ++sums->flows;
        sums->packets += packets[i];
        sums->bytes += bytes[i];
      }
      if (member < kDenseMembers) {
        rows_[member] |= row_bits_[0][lo] | row_bits_[1][hi];
      } else {
        for (std::size_t s = 0; s < space_count; ++s) {
          large_[s * kNumClasses +
                 static_cast<std::size_t>(Classifier::unpack(label, s))]
              .insert(member);
        }
      }
    }
  };
  if (exclude_members.empty()) {
    run([](Asn) { return false; });
  } else {
    run([&](Asn m) { return exclude_members.count(m) != 0; });
  }
  for (const ByteSums& sums : by_byte[0]) {  // each flow is in one of these
    agg_.total_flows += static_cast<double>(sums.flows);
    agg_.total_packets += static_cast<double>(sums.packets);
    agg_.total_bytes += static_cast<double>(sums.bytes);
  }
  for (std::size_t s = 0; s < space_count; ++s) {
    for (std::size_t b = 0; b < 256; ++b) {
      const ByteSums& sums = by_byte[s / 4][b];
      ClassTotals& cell = agg_.totals[s][class_in_byte(b, s)];
      cell.flows += static_cast<double>(sums.flows);
      cell.packets += static_cast<double>(sums.packets);
      cell.bytes += static_cast<double>(sums.bytes);
    }
  }
}

Aggregate AggregateBuilder::build() const {
  Aggregate out = agg_;
  std::array<std::size_t, 32> members{};
  for (const std::uint32_t row : rows_) {
    for (std::uint32_t bits = row; bits != 0; bits &= bits - 1) {
      ++members[static_cast<std::size_t>(std::countr_zero(bits))];
    }
  }
  for (std::size_t cell = 0; cell < cells(); ++cell) {
    out.totals[cell / kNumClasses][cell % kNumClasses].members =
        members[cell] + large_[cell].size();
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
