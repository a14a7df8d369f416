#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "bgp/mrt_lite.hpp"
#include "net/mapped_trace.hpp"
#include "service/control.hpp"
#include "state/delta_chain.hpp"

namespace spoofscope::service {

Server::Server(std::shared_ptr<classify::FlatClassifier> plane,
               ServerConfig cfg)
    : cfg_(std::move(cfg)), plane_(std::move(plane)), router_(cfg_.shards) {
  build_shards();
}

Server::~Server() { stop(); }

void Server::build_shards() {
  if (cfg_.shards == 0) throw std::invalid_argument("shards must be >= 1");
  if (!cfg_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(cfg_.checkpoint_dir);
  }
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    ShardConfig scfg;
    scfg.index = i;
    scfg.shard_count = cfg_.shards;
    scfg.space_idx = cfg_.space_idx;
    scfg.params = cfg_.params;
    scfg.checkpoint_every = cfg_.checkpoint_every;
    scfg.max_chain = cfg_.max_chain;
    scfg.policy = cfg_.policy;
    if (!cfg_.checkpoint_dir.empty()) {
      scfg.checkpoint_base =
          state::shard_checkpoint_base(cfg_.checkpoint_dir, i, cfg_.shards);
    }
    shards_.push_back(std::make_unique<Shard>(plane_, std::move(scfg)));
  }
}

Server::ResumeInfo Server::start() {
  ResumeInfo info;
  if (cfg_.resume && !cfg_.checkpoint_dir.empty()) {
    for (auto& shard : shards_) {
      const std::uint64_t flows = shard->resume();
      if (flows != 0) {
        ++info.shards_restored;
        info.flows += flows;
      }
    }
  }
  for (auto& shard : shards_) shard->start();
  return info;
}

SubmitResult Server::submit(const std::string& trace_path) {
  SubmitResult result;
  const std::uint64_t alerts_before = total_alerts_quiesced();
  const net::MappedTrace trace(trace_path);
  net::MappedTraceReader reader(trace, cfg_.policy, &result.stats,
                               cfg_.params.simd);
  net::FlowBatch batch;
  // A strict-mode decode throw leaves the records scanned before the
  // damage in `batch`; deliver them to the shards so the service state
  // covers everything the reader produced, then rethrow for the caller
  // (the control loop turns it into an "err" response).
  try {
    while (reader.next_batch(batch, cfg_.batch_flows) > 0) {
      result.flows += batch.size();
      submit_batch(batch);
      batch.clear();
      reader.drop_consumed();
    }
  } catch (...) {
    result.flows += batch.size();
    submit_batch(batch);
    barrier();
    throw;
  }
  barrier();
  ++segments_;
  result.alerts = total_alerts_quiesced() - alerts_before;
  return result;
}

void Server::submit_batch(const net::FlowBatch& batch) {
  for (auto& lane : lanes_) lane.clear();
  router_.route(batch, lanes_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (lanes_[i].empty()) continue;
    shards_[i]->submit(std::move(lanes_[i]));
    lanes_[i] = net::FlowBatch{};
  }
}

void Server::barrier() {
  for (auto& shard : shards_) shard->wait_idle();
}

std::uint64_t Server::total_alerts_quiesced() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->alerts().size();
  return total;
}

ServiceStats Server::stats() {
  barrier();
  ServiceStats stats;
  stats.shards = shards_.size();
  stats.segments = segments_;
  stats.plane_epoch = plane_epoch();
  stats.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.processed += shard->processed();
    stats.alerts += shard->alerts().size();
    stats.per_shard.push_back(shard->health());
  }
  stats.merged = merge_health(stats.per_shard);
  return stats;
}

std::vector<classify::SpoofingAlert> Server::merged_alerts() {
  barrier();
  std::vector<classify::SpoofingAlert> alerts;
  for (const auto& shard : shards_) {
    alerts.insert(alerts.end(), shard->alerts().begin(), shard->alerts().end());
  }
  sort_alerts(alerts);
  return alerts;
}

ReloadResult Server::reload_updates(const std::string& mrt_path) {
  std::ifstream in(mrt_path);
  if (!in) throw std::runtime_error("cannot open updates file: " + mrt_path);
  ReloadResult result;
  std::vector<bgp::UpdateMessage> updates;
  for (auto& rec : bgp::read_mrt(in, cfg_.policy, &result.ingest)) {
    if (auto* u = std::get_if<bgp::UpdateMessage>(&rec)) {
      updates.push_back(*u);
    } else {
      ++result.rib_lines;  // TABLE_DUMP lines carry no churn
    }
  }
  result.updates = updates.size();
  // The patch mutates the shared plane, so every worker must be between
  // batches; the barrier's mutex handoff orders the patch before the
  // next batch, whose ingest sees the epoch move and reclassifies any
  // buffered flows against the patched plane.
  barrier();
  classify::FlatClassifier::UpdateApplyOptions opts;
  opts.pool = cfg_.pool;
  result.stats = plane_->apply_updates(updates, opts);
  result.epoch = plane_->epoch();
  return result;
}

void Server::checkpoint() {
  for (auto& shard : shards_) shard->checkpoint_async();
  barrier();
}

DrainResult Server::drain() {
  for (auto& shard : shards_) shard->flush_async();
  barrier();
  DrainResult result;
  for (const auto& shard : shards_) {
    result.processed += shard->processed();
    result.alerts += shard->alerts().size();
  }
  return result;
}

void Server::stop() {
  for (auto& shard : shards_) shard->stop();
}

std::uint64_t Server::plane_epoch() const { return plane_->epoch(); }

// --- control socket ---------------------------------------------------

namespace {

/// RAII fd.
struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd(std::exchange(other.fd, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd = std::exchange(other.fd, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  explicit operator bool() const { return fd >= 0; }
};

void send_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client went away mid-response; nothing to salvage
    }
    text.remove_prefix(static_cast<std::size_t>(n));
  }
}

enum class LineStatus { kLine, kClosed, kTooLong };

/// Reads one LF-terminated line (without the LF) into `line`. kClosed on
/// EOF/error with nothing buffered; kTooLong once more than
/// kMaxRequestLine bytes arrive without a LF, so `buffer` stays bounded.
LineStatus read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos && nl <= kMaxRequestLine) {
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return LineStatus::kLine;
    }
    if (buffer.size() > kMaxRequestLine) return LineStatus::kTooLong;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return LineStatus::kClosed;
    }
    if (n == 0) {
      if (buffer.empty()) return LineStatus::kClosed;
      line = std::exchange(buffer, {});  // unterminated trailing line
      return LineStatus::kLine;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One request -> the full response text. Returns false when the
/// request was `shutdown` (respond, then exit the loop).
bool handle_request(Server& server, const Request& req, std::ostream& log,
                    std::string& response) {
  std::ostringstream out;
  switch (req.verb) {
    case Verb::kSubmit: {
      const SubmitResult r = server.submit(req.arg);
      if (!r.stats.clean()) {
        out << "ingest: " << req.arg << ": " << r.stats.summary() << "\n";
      }
      out << "ok submitted flows=" << r.flows << " alerts=" << r.alerts << "\n";
      log << "serve: segment " << server.segments() << ": " << r.flows
          << " flows, " << r.alerts << " alerts from " << req.arg << "\n";
      break;
    }
    case Verb::kHealth: {
      const ServiceStats stats = server.stats();
      out << format_health(stats.merged) << "\n"
          << "ok shards=" << stats.shards << " processed=" << stats.processed
          << " alerts=" << stats.alerts << "\n";
      break;
    }
    case Verb::kStatsJson: {
      out << to_json(server.stats()) << "\n"
          << "ok\n";
      break;
    }
    case Verb::kAlerts: {
      const auto alerts = server.merged_alerts();
      for (const auto& alert : alerts) out << format_alert(alert) << "\n";
      out << "ok alerts=" << alerts.size() << "\n";
      break;
    }
    case Verb::kCheckpoint: {
      server.checkpoint();
      out << "ok checkpoint shards=" << server.shard_count() << "\n";
      break;
    }
    case Verb::kReloadUpdates: {
      const ReloadResult r = server.reload_updates(req.arg);
      if (!r.ingest.clean()) {
        out << "ingest: " << req.arg << ": " << r.ingest.summary() << "\n";
      }
      out << "ok reloaded announced=" << r.stats.announced
          << " withdrawn=" << r.stats.withdrawn
          << " redundant=" << r.stats.redundant
          << " out_of_range=" << r.stats.out_of_range << " epoch=" << r.epoch
          << "\n";
      log << "serve: reloaded " << r.updates << " updates from " << req.arg
          << " (epoch " << r.epoch << ")\n";
      break;
    }
    case Verb::kDrain: {
      const DrainResult r = server.drain();
      out << "ok drained processed=" << r.processed << " alerts=" << r.alerts
          << "\n";
      log << "serve: drained (" << r.processed << " flows, " << r.alerts
          << " alerts)\n";
      break;
    }
    case Verb::kShutdown:
      out << "ok shutting-down\n";
      response = out.str();
      return false;
  }
  response = out.str();
  return true;
}

}  // namespace

int run_control_loop(Server& server, const std::string& socket_path,
                     std::ostream& log) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!listener) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("bind(" + socket_path +
                             "): " + std::strerror(errno));
  }
  if (::listen(listener.fd, 4) != 0) {
    throw std::runtime_error(std::string("listen(): ") + std::strerror(errno));
  }

  bool running = true;
  while (running) {
    Fd client(::accept(listener.fd, nullptr, nullptr));
    if (!client) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("accept(): ") +
                               std::strerror(errno));
    }
    std::string buffer;
    std::string line;
    while (running) {
      const LineStatus status = read_line(client.fd, buffer, line);
      if (status == LineStatus::kClosed) break;
      if (status == LineStatus::kTooLong) {
        // The rest of the line cannot be told apart from a next request:
        // answer, then drop the connection.
        send_all(client.fd, "err request line too long\n");
        break;
      }
      std::string error;
      const auto req = parse_request(line, error);
      std::string response;
      if (!req) {
        response = "err " + error + "\n";
      } else {
        try {
          running = handle_request(server, *req, log, response);
        } catch (const std::exception& e) {
          response = "err " + std::string(e.what()) + "\n";
        }
      }
      send_all(client.fd, response);
    }
  }
  server.stop();
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace spoofscope::service
