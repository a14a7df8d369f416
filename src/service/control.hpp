// Control protocol for the resident service: a line-oriented text
// protocol over a Unix-domain stream socket, human-speakable with
// `nc -U` and trivially scriptable.
//
// Grammar (one request line, LF-terminated; responses are one or more
// LF-terminated lines, the last of which starts with "ok" or "err"):
//
//   request  = verb [" " argument] "\n"
//   verb     = "submit" | "health" | "stats-json" | "alerts"
//            | "checkpoint" | "reload-updates" | "drain" | "shutdown"
//   response = *(payload-line "\n") status-line "\n"
//   status   = "ok" [" " detail] | "err " message
//
// `submit` and `reload-updates` take a server-side file path argument;
// the other verbs take none. Payload lines never start with "ok" or
// "err" (alert lines start "alert:", health lines "health:", stats
// lines "{"), so a client reads lines until the status line. A request
// line longer than kMaxRequestLine bytes is answered with
// "err request line too long" and the connection is closed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace spoofscope::service {

/// Longest request line the server buffers, LF excluded: four times the
/// longest valid request (a verb plus a PATH_MAX path), so a client that
/// never sends a newline cannot grow the daemon's memory without bound.
inline constexpr std::size_t kMaxRequestLine = 16 * 1024;

enum class Verb {
  kSubmit,
  kHealth,
  kStatsJson,
  kAlerts,
  kCheckpoint,
  kReloadUpdates,
  kDrain,
  kShutdown,
};

struct Request {
  Verb verb = Verb::kHealth;
  std::string arg;  ///< path argument (submit / reload-updates), else empty
};

/// Parses one request line (without the trailing newline). On failure
/// returns nullopt and sets `error` to the "err ..." message body.
std::optional<Request> parse_request(std::string_view line, std::string& error);

/// "submit", "health", ... — the wire name of a verb.
std::string_view verb_name(Verb verb);

}  // namespace spoofscope::service
