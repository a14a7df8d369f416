#include "analysis/incidents.hpp"

#include <algorithm>
#include <sstream>

#include "util/format.hpp"

namespace spoofscope::analysis {

std::string incident_kind_name(IncidentKind k) {
  switch (k) {
    case IncidentKind::kRandomSpoofFlood: return "random-spoof flood";
    case IncidentKind::kAmplification: return "amplification";
    case IncidentKind::kOther: return "other";
  }
  return "?";
}

std::string format_incidents(std::span<const Incident> incidents,
                             std::size_t top_n) {
  std::ostringstream os;
  std::size_t floods = 0, amps = 0, other = 0;
  for (const auto& i : incidents) {
    switch (i.kind) {
      case IncidentKind::kRandomSpoofFlood: ++floods; break;
      case IncidentKind::kAmplification: ++amps; break;
      case IncidentKind::kOther: ++other; break;
    }
  }
  os << incidents.size() << " incidents (" << floods << " floods, " << amps
     << " amplification, " << other << " other)\n";
  for (std::size_t i = 0; i < std::min(top_n, incidents.size()); ++i) {
    const auto& inc = incidents[i];
    os << "  " << util::pad_right(incident_kind_name(inc.kind), 20)
       << util::pad_right("victim " + inc.victim.str(), 24)
       << util::pad_left(util::human_count(static_cast<double>(inc.packets)), 8)
       << " pkts  " << util::pad_left(std::to_string(inc.duration() / 60), 6)
       << " min  ";
    if (inc.kind == IncidentKind::kAmplification) {
      os << inc.distinct_destinations << " amplifiers";
    } else {
      os << inc.distinct_sources << " spoofed srcs";
    }
    os << "  via " << inc.members.size() << " member(s)\n";
  }
  return os.str();
}

}  // namespace spoofscope::analysis
