#include "analysis/traffic_char.hpp"

#include <cmath>
#include <numbers>

namespace spoofscope::analysis {

double burstiness(std::span<const double> series) {
  const util::Summary s = util::summarize(series);
  return s.mean > 0 ? s.stddev / s.mean : 0.0;
}

double diurnality(std::span<const double> series, std::uint32_t bin_seconds) {
  if (series.empty() || bin_seconds == 0) return 0.0;
  std::vector<double> reference(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double hour =
        std::fmod(static_cast<double>(i) * bin_seconds / 3600.0, 24.0);
    // Evening-peak reference matching the generator's profile (peak ~20h).
    reference[i] = std::cos((hour - 20.0) / 24.0 * 2.0 * std::numbers::pi);
  }
  return util::pearson(series, reference);
}

}  // namespace spoofscope::analysis
