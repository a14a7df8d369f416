#include "analysis/portmix.hpp"

#include <sstream>

#include "util/format.hpp"

namespace spoofscope::analysis {

double PortMix::fraction_of(TrafficClass cls, Transport t, Direction d,
                            std::uint16_t port) const {
  for (const auto& s :
       shares[static_cast<int>(cls)][static_cast<int>(t)][static_cast<int>(d)]) {
    if (s.port == port) return s.fraction;
  }
  return 0.0;
}

std::string format_port_mix(const PortMix& mix) {
  std::ostringstream os;
  static const char* kClassNames[] = {"bogon", "unrouted", "invalid", "regular"};
  for (int t = 0; t < 2; ++t) {
    for (int d = 0; d < 2; ++d) {
      os << (t == 0 ? "TCP" : "UDP") << " " << (d == 0 ? "DST" : "SRC") << ":\n";
      for (const int c : {3, 0, 1, 2}) {  // regular first, as in Fig 9
        os << "  " << util::pad_right(kClassNames[c], 9);
        const auto& shares = mix.shares[c][t][d];
        std::size_t shown = 0;
        for (const auto& s : shares) {
          if (shown++ >= 4) break;
          const std::string name = s.port == 0 ? "other" : std::to_string(s.port);
          os << " " << name << "=" << util::percent(s.fraction);
        }
        os << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace spoofscope::analysis
