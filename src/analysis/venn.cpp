#include "analysis/venn.hpp"

#include <sstream>

#include "util/format.hpp"

namespace spoofscope::analysis {

std::string format_venn(const VennCounts& v) {
  std::ostringstream os;
  const auto row = [&](const std::string& label, double f) {
    os << "  " << util::pad_right(label, 28) << util::pad_left(util::percent(f), 9)
       << "\n";
  };
  os << "Member contribution Venn (Fig 5), " << v.member_count << " members\n";
  row("clean (regular only)", v.clean);
  row("Bogon only", v.only_bogon);
  row("Unrouted only", v.only_unrouted);
  row("Invalid only", v.only_invalid);
  row("Bogon+Unrouted", v.bogon_unrouted);
  row("Bogon+Invalid", v.bogon_invalid);
  row("Unrouted+Invalid", v.unrouted_invalid);
  row("all three", v.all_three);
  row("Unrouted members also B/I", v.unrouted_also_other);
  return os.str();
}

}  // namespace spoofscope::analysis
