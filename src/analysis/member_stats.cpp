#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

std::vector<util::DistPoint> class_share_ccdf(
    std::span<const MemberClassCounts> counts, TrafficClass cls) {
  std::vector<double> shares;
  shares.reserve(counts.size());
  for (const auto& mc : counts) shares.push_back(mc.packet_share(cls));
  return util::empirical_ccdf(shares);
}

}  // namespace spoofscope::analysis
