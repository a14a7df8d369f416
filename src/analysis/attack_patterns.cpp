#include "analysis/attack_patterns.hpp"

#include <unordered_set>

namespace spoofscope::analysis {

double AmplificationTimeseries::amplification_factor() const {
  double to = 0, from = 0;
  for (const double b : bytes_to_amplifier) to += b;
  for (const double b : bytes_from_amplifier) from += b;
  return to > 0 ? from / to : 0.0;
}

double AmplificationTimeseries::packet_ratio() const {
  double to = 0, from = 0;
  for (const double p : packets_to_amplifier) to += p;
  for (const double p : packets_from_amplifier) from += p;
  return to > 0 ? from / to : 0.0;
}

std::size_t amplifier_scan_overlap(std::span<const net::Ipv4Addr> contacted,
                                   std::span<const net::Ipv4Addr> scan) {
  std::unordered_set<std::uint32_t> scanned;
  scanned.reserve(scan.size());
  for (const auto a : scan) scanned.insert(a.value());
  std::size_t overlap = 0;
  for (const auto a : contacted) overlap += scanned.count(a.value());
  return overlap;
}

}  // namespace spoofscope::analysis
