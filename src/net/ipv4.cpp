#include "net/ipv4.hpp"

namespace spoofscope::net {

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view s) {
  // Four dot-separated octets of 1-3 digits, read in place: a missing or
  // a fifth dot, an empty or over-long part, a non-digit or a value over
  // 255 rejects the whole string.
  std::uint32_t v = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = s.find('.', pos);
    if ((dot == std::string_view::npos) != (i == 3)) return std::nullopt;
    const std::size_t end = i == 3 ? s.size() : dot;
    if (end == pos || end - pos > 3) return std::nullopt;
    std::uint32_t octet = 0;
    for (std::size_t k = pos; k < end; ++k) {
      const char c = s[k];
      if (c < '0' || c > '9') return std::nullopt;
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (octet > 255) return std::nullopt;
    v = (v << 8) | octet;
    pos = end + 1;
  }
  return Ipv4Addr(v);
}

std::string Ipv4Addr::str() const {
  std::string out;
  out.reserve(15);
  for (int i = 0; i < 4; ++i) {
    if (i) out.push_back('.');
    out += std::to_string(octet(i));
  }
  return out;
}

}  // namespace spoofscope::net
