// Attack incident extraction (Sec 7 operationalized): cluster the flagged
// flows into discrete events — "victim X received a random-spoof flood
// from T1 to T2", "victim Y was hit via NTP amplification through N
// amplifiers" — the report a security team would want from the fabric.
// IncidentsBuilder (analysis/streaming.hpp) extracts them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

/// Attack categories distinguishable from flow evidence alone.
enum class IncidentKind : std::uint8_t {
  /// Many unique spoofed sources hammering one destination (SYN floods).
  kRandomSpoofFlood = 0,
  /// Selectively spoofed victim triggering amplifiers (UDP/123 etc.).
  kAmplification = 1,
  /// Flagged traffic that matches neither signature.
  kOther = 2,
};

std::string incident_kind_name(IncidentKind k);

/// One reconstructed incident.
struct Incident {
  IncidentKind kind = IncidentKind::kOther;
  /// The attacked host: the destination of a flood, or the spoofed
  /// source (the reflection victim) of amplification triggers.
  net::Ipv4Addr victim;
  std::uint32_t start_ts = 0;
  std::uint32_t end_ts = 0;
  std::uint64_t packets = 0;      ///< sampled
  std::uint64_t bytes = 0;        ///< sampled
  std::size_t distinct_sources = 0;       ///< flood: spoofed srcs
  std::size_t distinct_destinations = 0;  ///< amplification: amplifiers
  /// Members through which the attack entered the fabric.
  std::vector<Asn> members;

  std::uint32_t duration() const { return end_ts - start_ts; }
};

/// Extraction thresholds.
struct IncidentParams {
  /// Minimum sampled packets for a cluster to count as an incident.
  std::uint32_t min_packets = 30;
  /// Source-uniqueness ratio above which a destination cluster is a
  /// random-spoof flood (Fig 11a right mode).
  double flood_uniqueness = 0.7;
  /// Source-uniqueness ratio below which a source cluster (of trigger
  /// traffic) is selective spoofing.
  double selective_uniqueness = 0.3;
};

/// Human-readable incident report.
std::string format_incidents(std::span<const Incident> incidents,
                             std::size_t top_n = 10);

}  // namespace spoofscope::analysis
