// Per-member classification statistics: the basis of Fig 4 (CCDF of class
// shares), Fig 5 (Venn membership) and Fig 6 (business-type scatter).
// MemberStatsBuilder (analysis/streaming.hpp) computes them.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "classify/classifier.hpp"
#include "ixp/ixp.hpp"
#include "net/trace.hpp"
#include "util/stats.hpp"

namespace spoofscope::analysis {

using classify::kNumClasses;
using classify::Label;
using classify::TrafficClass;
using net::Asn;

/// Sampled packet/byte counts per class for one member, under one method.
struct MemberClassCounts {
  Asn member = net::kNoAsn;
  topo::BusinessType type = topo::BusinessType::kOther;
  double packets[kNumClasses] = {0, 0, 0, 0};
  double bytes[kNumClasses] = {0, 0, 0, 0};
  double flows[kNumClasses] = {0, 0, 0, 0};

  double total_packets() const {
    return packets[0] + packets[1] + packets[2] + packets[3];
  }
  double total_bytes() const { return bytes[0] + bytes[1] + bytes[2] + bytes[3]; }

  /// Share of the member's own packets falling into class `c`.
  double packet_share(TrafficClass c) const {
    const double t = total_packets();
    return t == 0 ? 0.0 : packets[static_cast<int>(c)] / t;
  }

  bool contributes(TrafficClass c) const {
    return packets[static_cast<int>(c)] > 0;
  }
};

/// Fig 4: CCDF over members of the per-member share of `cls` packets.
std::vector<util::DistPoint> class_share_ccdf(
    std::span<const MemberClassCounts> counts, TrafficClass cls);

}  // namespace spoofscope::analysis
