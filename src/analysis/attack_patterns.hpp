// Sec 7 / Fig 11: selective vs. random spoofing, NTP amplification
// strategies and the measured amplification effect. AttackPatternsBuilder
// and AmplificationBuilder (analysis/streaming.hpp) compute them.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

/// Fig 11a: histogram over destinations of (#distinct source IPs /
/// #packets). A value near 0 means few sources send everything
/// (selective spoofing / amplification triggers); near 1 means every
/// packet has a fresh source (random spoofing floods).
struct SrcRatioHistogram {
  std::size_t bins = 10;
  /// fractions[class][bin]; bins cover [0,1] left-closed.
  std::array<std::vector<double>, kNumClasses> fractions;
  /// Number of qualifying destinations per class.
  std::array<std::size_t, kNumClasses> destinations{};
};

/// One victim of NTP amplification (a source address of Invalid NTP
/// trigger traffic), with its per-amplifier packet distribution.
struct NtpVictim {
  net::Ipv4Addr victim;
  std::uint64_t trigger_packets = 0;
  std::size_t amplifiers = 0;
  /// Packets per contacted amplifier, descending (Fig 11b series).
  std::vector<std::uint64_t> packets_per_amplifier;
  /// Gini coefficient of the distribution: ~0 = uniform spraying,
  /// -> 1 = concentrated on few amplifiers.
  double concentration = 0;
};

/// Aggregated NTP amplification analysis over Invalid UDP/123 traffic.
struct NtpAnalysis {
  std::uint64_t trigger_packets = 0;
  std::size_t distinct_victims = 0;       ///< trigger source IPs
  std::size_t contributing_members = 0;
  std::size_t amplifiers_contacted = 0;   ///< distinct destinations
  double top_member_share = 0;            ///< paper: 91.94%
  double top5_member_share = 0;           ///< paper: 97.86%
  std::vector<NtpVictim> top_victims;     ///< by trigger packets
  /// Share of all Invalid UDP packets destined to port 123 (paper: >90%).
  double invalid_udp_ntp_share = 0;
};

/// Fig 11c: trigger vs response volume over time, for (victim, amplifier)
/// pairs where both directions were observed.
struct AmplificationTimeseries {
  std::uint32_t bin_seconds = 3600;
  std::vector<double> packets_to_amplifier;
  std::vector<double> packets_from_amplifier;
  std::vector<double> bytes_to_amplifier;
  std::vector<double> bytes_from_amplifier;

  /// Overall byte amplification factor (response bytes / trigger bytes).
  double amplification_factor() const;
  /// Packet-count symmetry (response pkts / trigger pkts), ~1 for NTP.
  double packet_ratio() const;
};

/// Sec 7: overlap of the contacted amplifiers with an independent scan
/// (the ZMap NTP dataset in the paper).
std::size_t amplifier_scan_overlap(std::span<const net::Ipv4Addr> contacted,
                                   std::span<const net::Ipv4Addr> scan);

}  // namespace spoofscope::analysis
