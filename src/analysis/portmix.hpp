// Fig 9: port-based application mix per class, split by transport
// protocol and by direction (SRC vs DST port). PortMixBuilder
// (analysis/streaming.hpp) computes it.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

/// Share of one port bucket. Port 0 stands for the aggregated "other".
struct PortShare {
  std::uint16_t port = 0;
  double fraction = 0;
};

/// Indexing constants for PortMix.
enum class Transport : int { kTcp = 0, kUdp = 1 };
enum class Direction : int { kDst = 0, kSrc = 1 };

/// Fig 9 data: for each class x transport x direction, the packet share
/// of the six tracked ports plus "other".
struct PortMix {
  /// shares[class][transport][direction], sorted by descending fraction.
  std::array<std::array<std::array<std::vector<PortShare>, 2>, 2>, kNumClasses>
      shares;

  /// Convenience: the fraction of `cls` traffic with this exact port in
  /// the given transport/direction (0 if untracked).
  double fraction_of(TrafficClass cls, Transport t, Direction d,
                     std::uint16_t port) const;
};

std::string format_port_mix(const PortMix& mix);

}  // namespace spoofscope::analysis
