// Fig 8: qualitative traffic characteristics per class — packet size
// distributions and time-of-day behaviour. TrafficCharBuilder
// (analysis/streaming.hpp) computes them; the measures below score its
// time series.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "analysis/member_stats.hpp"

namespace spoofscope::analysis {

/// Fig 8b: sampled packets per time bin, per class.
struct ClassTimeSeries {
  std::uint32_t bin_seconds = 3600;
  /// series[class][bin] = sampled packets.
  std::array<std::vector<double>, kNumClasses> series;
};

/// Burstiness measure for Fig 8b's "unsteady pattern" claim: the
/// coefficient of variation (stddev/mean) of a series' non-empty bins.
double burstiness(std::span<const double> series);

/// Diurnality measure: correlation between a series and a 24h reference
/// sine anchored at the evening peak. Regular traffic scores visibly
/// higher than attack classes.
double diurnality(std::span<const double> series, std::uint32_t bin_seconds);

}  // namespace spoofscope::analysis
