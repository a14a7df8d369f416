// Generates the benchmark's inputs for one seed:
//
//   route-server.mrt, registry.rpsl
//                            the routing world: ScenarioParams::paper()
//                            (or small()) built from a fixed world seed,
//                            written as `spoofscope generate` writes it
//   ixp.trace                the IXP's sampled flows, generated over that
//                            world from the run seed
//   segments/seg-NNNN.trace  the trace cut by time into fixed-length
//                            windows (empty windows skipped)
//   churn-a.mrt              withdraws kChurnRoutes / 2 routed prefixes
//                            and announces as many new /24 more-specifics
//                            under routed prefixes
//   churn-b.mrt              the inverse of churn-a.mrt, so applying a
//                            then b returns the plane to its start
//   churn.txt                the reload cadence that gives the churn files
//                            the world's own rate of route changes (below)
//
// Usage: perfbench_gen --out DIR --seed N [--scale ixp|small]
//
// The reload cadence. The route-server feed holds the world's route
// changes as UPDATE lines (its transient announcements and withdrawals),
// one per feeder. Counted once per (kind, prefix, time), they give the
// world's route changes per hour of the measurement window. A churn file
// of kChurnRoutes updates then goes through reload_updates every
// reload_every segments, the whole number of segments that comes nearest
// to carrying that many changes. At paper scale that is about 1000
// changes in four weeks, so one file every 23 segments.
//
// Why the routing world does not follow the seed: its size (the MRT
// feed differs by up to 60% between worlds) sets the set-up time, the
// peak memory and the plane's footprint, so seeding it would make
// those metrics differ across seeds by more than a regression bound.
// The seed varies the traffic and the churned routes; every output is
// a pure function of (seed, parameters).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "bgp/collector.hpp"
#include "bgp/message.hpp"
#include "bgp/mrt_lite.hpp"
#include "bgp/simulator.hpp"
#include "data/rpsl.hpp"
#include "net/trace.hpp"
#include "scenario/scenario.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace spoofscope;

/// The routing world's seed: the first day of the paper's measurement
/// window, as in bench/common.hpp.
constexpr std::uint64_t kWorldSeed = 20170205;
/// Length of a segment file's time window.
constexpr std::uint32_t kSegmentHours = 3;
/// UPDATE lines per churn file: the 100-route batch the repository's
/// BM_FlatPlanePatch benchmark measures.
constexpr std::size_t kChurnRoutes = 100;

std::uint64_t parse_u64_arg(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  if (!util::parse_u64(value, out)) {
    throw std::runtime_error("--" + key + " expects a non-negative integer");
  }
  return out;
}

void write_file_checked(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) throw std::runtime_error("write failure on " + path);
}

std::size_t write_segments(const net::Trace& trace, const std::string& world,
                           std::uint32_t seconds) {
  const std::string dir = world + "/segments";
  std::filesystem::create_directories(dir);
  std::size_t written = 0;
  std::size_t begin = 0;
  while (begin < trace.flows.size()) {
    const std::uint32_t window = trace.flows[begin].ts / seconds;
    std::size_t end = begin;
    while (end < trace.flows.size() && trace.flows[end].ts / seconds == window) {
      ++end;
    }
    net::Trace part;
    part.meta = trace.meta;
    part.flows.assign(trace.flows.begin() + begin, trace.flows.begin() + end);
    char name[32];
    std::snprintf(name, sizeof name, "/seg-%04zu.trace", written);
    const std::string path = dir + name;
    std::ofstream out(path, std::ios::binary);
    net::write_trace(out, part);
    write_file_checked(out, path);
    ++written;
    begin = end;
  }
  return written;
}

/// The world files, written as `spoofscope generate` writes them, with
/// the trace generated from `seed` over the fixed world.
net::Trace write_world(const std::string& dir, scenario::ScenarioParams params,
                       std::uint64_t seed) {
  params.seed = kWorldSeed;
  params.threads = 0;  // generation is identical at any thread count
  const auto world = scenario::build_scenario(params);
  traffic::Workload workload =
      traffic::generate_workload(world->topology(), world->ixp(), world->whois(),
                                 params.workload, seed ^ 0x7aff1c);
  {
    const std::string path = dir + "/ixp.trace";
    std::ofstream out(path, std::ios::binary);
    net::write_trace(out, workload.trace);
    write_file_checked(out, path);
  }
  {
    const bgp::Simulator sim(world->topology());
    const auto plan = bgp::make_announcement_plan(world->topology(), params.plan,
                                                  params.seed ^ 0xb1a);
    std::vector<bgp::CollectorSpec> specs(1);
    specs[0].name = "ixp-route-server";
    specs[0].feeders = world->ixp().route_server_feeders();
    specs[0].full_feed = false;
    const std::string path = dir + "/route-server.mrt";
    std::ofstream out(path);
    bgp::propagate_collect(
        sim, plan, specs, world->pool(),
        [&out](std::size_t, const bgp::MrtRecord& r) {
          std::visit(
              [&out](const auto& rec) { out << bgp::to_mrt_line(rec) << '\n'; },
              r);
        });
    write_file_checked(out, path);
  }
  {
    const std::string path = dir + "/registry.rpsl";
    std::ofstream out(path);
    out << data::registry_to_rpsl(world->whois());
    write_file_checked(out, path);
  }
  std::cout << world->topology().as_count() << " ASes, "
            << world->ixp().member_count() << " members, "
            << workload.trace.flows.size() << " sampled flows\n";
  return std::move(workload.trace);
}

void write_updates(const std::string& path,
                   const std::vector<bgp::UpdateMessage>& updates) {
  std::ofstream out(path);
  for (const auto& u : updates) out << bgp::to_mrt_line(u) << '\n';
  write_file_checked(out, path);
}

/// Writes churn.txt: the world's route changes over the measurement
/// window and the reload cadence derived from them.
void write_cadence(const std::string& world, std::size_t changes,
                   std::uint32_t window_seconds, std::size_t segments) {
  const double window_hours = window_seconds / 3600.0;
  const double per_segment =
      static_cast<double>(changes) / window_hours * kSegmentHours;
  const std::size_t reload_every =
      per_segment > 0
          ? std::clamp<std::size_t>(
                static_cast<std::size_t>(std::llround(kChurnRoutes / per_segment)),
                1, segments)
          : segments;
  const std::string path = world + "/churn.txt";
  std::ofstream out(path);
  out << "route_changes " << changes << "\n"
      << "window_hours " << window_hours << "\n"
      << "churn_routes " << kChurnRoutes << "\n"
      << "segment_hours " << kSegmentHours << "\n"
      << "reload_every " << reload_every << "\n";
  write_file_checked(out, path);
  std::cout << changes << " route changes in " << window_hours
            << " h: a churn file every " << reload_every << " segments\n";
}

void write_churn(const std::string& world, std::uint64_t seed,
                 std::uint32_t window_seconds, std::size_t segments) {
  std::ifstream in(world + "/route-server.mrt");
  if (!in) throw std::runtime_error("cannot open " + world + "/route-server.mrt");
  // The first route seen per prefix, keyed in prefix order. Announces
  // count as routed too, as RoutingTableBuilder counts them, so that
  // churn-b.mrt exactly undoes churn-a.mrt.
  std::map<std::pair<std::uint32_t, std::uint8_t>, bgp::RibEntry> routed;
  // The world's route changes, once per (kind, prefix, time).
  std::set<std::tuple<int, std::uint32_t, std::uint8_t, std::uint32_t>> changes;
  for (auto& rec : bgp::read_mrt(in)) {
    bgp::RibEntry rib;
    if (const auto* r = std::get_if<bgp::RibEntry>(&rec)) {
      rib = *r;
    } else {
      const auto& u = std::get<bgp::UpdateMessage>(rec);
      changes.emplace(static_cast<int>(u.kind), u.prefix.first(),
                      u.prefix.length(), u.timestamp);
      if (u.kind != bgp::UpdateMessage::Kind::kAnnounce) continue;
      rib = {u.timestamp, u.peer, u.prefix, u.path};
    }
    const auto& p = rib.prefix;
    if (p.length() < 8 || p.length() > 24) continue;  // not in the plane
    routed.try_emplace({p.first(), p.length()}, rib);
  }
  std::vector<bgp::RibEntry> entries;
  for (auto& [key, rib] : routed) entries.push_back(rib);
  write_cadence(world, changes.size(), window_seconds, segments);
  const std::size_t half = kChurnRoutes / 2;
  if (entries.size() < 4 * half) {
    throw std::runtime_error("routing view too small for the churn file");
  }

  util::Rng rng(seed ^ 0xc4u);
  std::set<std::size_t> withdraw_idx;
  while (withdraw_idx.size() < half) {
    withdraw_idx.insert(rng.uniform_u64(0, entries.size() - 1));
  }
  // New more-specifics: a /24 inside a shorter routed prefix, when that
  // /24 is not routed itself, announced with the parent's path.
  std::vector<bgp::RibEntry> fresh;
  std::set<std::uint32_t> taken;
  for (std::size_t tries = 0; fresh.size() < half && tries < 100 * half;
       ++tries) {
    const auto& parent = entries[rng.uniform_u64(0, entries.size() - 1)];
    if (parent.prefix.length() >= 24) continue;
    const std::uint32_t block =
        parent.prefix.first() + 256u * rng.uniform_u32(
            0, static_cast<std::uint32_t>(parent.prefix.num_addresses() / 256 - 1));
    if (routed.count({block, 24}) != 0 || !taken.insert(block).second) continue;
    bgp::RibEntry e = parent;
    e.prefix = net::Prefix(net::Ipv4Addr(block), 24);
    fresh.push_back(e);
  }
  if (fresh.size() < half) {
    throw std::runtime_error("could not place the churn more-specifics");
  }

  const auto update = [](bgp::UpdateMessage::Kind kind, const bgp::RibEntry& e) {
    bgp::UpdateMessage u;
    u.kind = kind;
    u.timestamp = e.timestamp;
    u.peer = e.peer;
    u.prefix = e.prefix;
    if (kind == bgp::UpdateMessage::Kind::kAnnounce) u.path = e.path;
    return u;
  };
  using Kind = bgp::UpdateMessage::Kind;
  std::vector<bgp::UpdateMessage> a;
  std::vector<bgp::UpdateMessage> b;
  for (const std::size_t i : withdraw_idx) {
    a.push_back(update(Kind::kWithdraw, entries[i]));
    b.push_back(update(Kind::kAnnounce, entries[i]));
  }
  for (const auto& e : fresh) {
    a.push_back(update(Kind::kAnnounce, e));
    b.push_back(update(Kind::kWithdraw, e));
  }
  write_updates(world + "/churn-a.mrt", a);
  write_updates(world + "/churn-b.mrt", b);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::map<std::string, std::string> flags;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
      flags[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 1 || !flags.count("out") || !flags.count("seed")) {
      std::cerr << "usage: perfbench_gen --out DIR --seed N [--scale ixp|small]\n";
      return 2;
    }
    const std::string dir = flags.at("out");
    const std::uint64_t seed = parse_u64_arg("seed", flags.at("seed"));
    const std::string scale = flags.count("scale") ? flags.at("scale") : "ixp";
    if (scale != "ixp" && scale != "small") {
      throw std::runtime_error("--scale must be ixp or small");
    }
    std::filesystem::create_directories(dir);
    const net::Trace trace = write_world(
        dir,
        scale == "ixp" ? scenario::ScenarioParams::paper()
                       : scenario::ScenarioParams::small(),
        seed);
    const std::size_t segments = write_segments(trace, dir, kSegmentHours * 3600);
    write_churn(dir, seed, trace.meta.window_seconds, segments);
    std::cout << "wrote " << segments << " segments and 2 churn files of "
              << kChurnRoutes << " updates to " << dir << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
