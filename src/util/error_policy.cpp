#include "util/error_policy.hpp"

#include <sstream>

namespace spoofscope::util {

const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kTruncated: return "truncated";
    case ErrorKind::kBadMagic: return "bad-magic";
    case ErrorKind::kBadVersion: return "bad-version";
    case ErrorKind::kChecksum: return "checksum";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kCountMismatch: return "count-mismatch";
  }
  return "unknown";
}

bool IngestStats::clean() const {
  if (records_skipped != 0 || bytes_dropped != 0) return false;
  for (const auto e : errors) {
    if (e != 0) return false;
  }
  return true;
}

std::string IngestStats::summary() const {
  std::ostringstream os;
  os << records_ok << " records ok, " << records_skipped << " skipped";
  bool any = false;
  for (std::size_t i = 0; i < kNumErrorKinds; ++i) {
    if (errors[i] == 0) continue;
    os << (any ? ", " : " (") << errors[i] << ' '
       << error_kind_name(static_cast<ErrorKind>(i));
    any = true;
  }
  if (any) os << ')';
  os << ", " << bytes_dropped << " bytes dropped";
  return os.str();
}

std::string to_json(const IngestStats& stats) {
  std::ostringstream os;
  os << "{\"records_ok\":" << stats.records_ok
     << ",\"records_skipped\":" << stats.records_skipped
     << ",\"bytes_dropped\":" << stats.bytes_dropped << ",\"errors\":{";
  for (std::size_t i = 0; i < kNumErrorKinds; ++i) {
    if (i != 0) os << ',';
    os << '"' << error_kind_name(static_cast<ErrorKind>(i)) << "\":"
       << stats.errors[i];
  }
  os << "}}";
  return os.str();
}

}  // namespace spoofscope::util
