// Fig 5: which members contribute traffic to which of the three
// illegitimate classes — the Venn diagram of filtering consistency.
// VennBuilder (analysis/streaming.hpp) computes it.
#pragma once

#include <span>
#include <string>

#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

/// Fractions of members in each region of the {Bogon, Unrouted, Invalid}
/// Venn diagram. All eight regions sum to 1.
struct VennCounts {
  std::size_t member_count = 0;
  double clean = 0;            ///< none of the three classes
  double only_bogon = 0;
  double only_unrouted = 0;
  double only_invalid = 0;
  double bogon_unrouted = 0;   ///< exactly bogon + unrouted
  double bogon_invalid = 0;
  double unrouted_invalid = 0;
  double all_three = 0;

  /// Of the members contributing Unrouted, the fraction that also
  /// contribute Bogon or Invalid (96% in the paper).
  double unrouted_also_other = 0;
};

/// Text rendering of the diagram regions.
std::string format_venn(const VennCounts& v);

}  // namespace spoofscope::analysis
