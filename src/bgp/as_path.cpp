#include "bgp/as_path.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/strings.hpp"

namespace spoofscope::bgp {

std::optional<AsPath> AsPath::parse(std::string_view s) {
  s = util::trim(s);
  if (s.empty()) return AsPath();
  // Tokens are read in place between single spaces; the space count
  // bounds the hop count, so the path allocates once.
  std::vector<Asn> hops;
  hops.reserve(static_cast<std::size_t>(std::count(s.begin(), s.end(), ' ')) + 1);
  std::size_t pos = 0;
  while (pos < s.size()) {
    if (s[pos] == ' ') {  // tolerate double spaces
      ++pos;
      continue;
    }
    const std::size_t end = std::min(s.find(' ', pos), s.size());
    std::uint32_t asn;
    if (!util::parse_u32(s.substr(pos, end - pos), asn) || asn == net::kNoAsn) {
      return std::nullopt;
    }
    hops.push_back(asn);
    pos = end;
  }
  if (hops.empty()) return std::nullopt;
  return AsPath(std::move(hops));
}

bool AsPath::contains(Asn asn) const {
  return std::find(hops_.begin(), hops_.end(), asn) != hops_.end();
}

bool AsPath::has_duplicates() const {
  std::unordered_set<Asn> seen;
  for (const Asn a : hops_) {
    if (!seen.insert(a).second) return true;
  }
  return false;
}

AsPath AsPath::prepend(Asn asn) const {
  std::vector<Asn> hops;
  hops.reserve(hops_.size() + 1);
  hops.push_back(asn);
  hops.insert(hops.end(), hops_.begin(), hops_.end());
  return AsPath(std::move(hops));
}

std::string AsPath::str() const {
  std::string out;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i) out.push_back(' ');
    out += std::to_string(hops_[i]);
  }
  return out;
}

}  // namespace spoofscope::bgp
