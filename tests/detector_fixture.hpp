// The detector suites' shared world: a two-prefix routing view, the trie
// Classifier over it (the compile input) and the plane compiled from it,
// plus the degraded-mode parameters and the jittered stream the
// checkpoint suites drive through it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/routing_table.hpp"
#include "classify/classifier.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "net/prefix.hpp"
#include "util/rng.hpp"

namespace spoofscope::testing {

/// 50.0/16 is announced by AS1 and 60.0/16 by AS2. Only member 1 has
/// valid space (50.0/16): member 2 has routed space but no valid space,
/// so its traffic classifies spoofed and both members grow windows.
/// Detectors run on `plane`; `classifier` is what it was compiled from.
struct DetectorFixture {
  DetectorFixture() = default;
  DetectorFixture(const DetectorFixture&) = delete;  // members point at `table`
  DetectorFixture& operator=(const DetectorFixture&) = delete;

  bgp::RoutingTable table = routing_view();
  classify::Classifier classifier{table, valid_spaces()};
  classify::FlatClassifier plane = classify::FlatClassifier::compile(classifier);

 private:
  static bgp::RoutingTable routing_view() {
    bgp::RoutingTableBuilder b;
    b.ingest_route(net::pfx("50.0.0.0/16"), bgp::AsPath{1});
    b.ingest_route(net::pfx("60.0.0.0/16"), bgp::AsPath{2});
    return b.build();
  }
  static std::vector<inference::ValidSpace> valid_spaces() {
    trie::IntervalSet s;
    s.add(net::pfx("50.0.0.0/16"));
    std::unordered_map<net::Asn, trie::IntervalSet> spaces;
    spaces.emplace(1, std::move(s));
    std::vector<inference::ValidSpace> out;
    out.emplace_back(inference::Method::kFullCone, std::move(spaces));
    return out;
  }
};

/// Degraded-mode pressure on every axis a checkpoint must carry: reorder
/// buffer with a hard cap, member cap (evictions), sample cap.
inline classify::StreamingParams pressured_params() {
  classify::StreamingParams p;
  p.window_seconds = 300;
  p.min_spoofed_packets = 20;
  p.min_share = 0.1;
  p.cooldown_seconds = 120;
  p.reorder_skew_seconds = 30;
  p.max_reorder_records = 64;
  p.max_members = 2;
  p.max_window_samples = 50;
  return p;
}

/// Jittered two-member mixed stream: timestamps wander within (and
/// occasionally beyond) the reorder skew, so checkpoints land with a
/// populated reorder buffer and some late drops.
inline std::vector<net::FlowRecord> make_stream(std::uint64_t seed,
                                                std::size_t n) {
  using net::Ipv4Addr;
  util::Rng rng(seed);
  std::vector<net::FlowRecord> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FlowRecord f;
    // A third, rare member occasionally pushes past max_members=2 and
    // forces LRU evictions without starving the main windows.
    const bool via_member3 = rng.chance(0.02);
    const bool via_member2 = !via_member3 && rng.chance(0.3);
    const bool spoof = via_member2 || via_member3 || rng.chance(0.35);
    f.src = spoof ? Ipv4Addr::from_octets(99, 0, 0, static_cast<std::uint8_t>(1 + rng.index(250)))
                  : Ipv4Addr::from_octets(50, 0, 1, static_cast<std::uint8_t>(1 + rng.index(250)));
    f.dst = Ipv4Addr::from_octets(60, 0, 0, 1);
    const std::uint32_t base = static_cast<std::uint32_t>(i / 2);
    const std::uint32_t jitter = rng.uniform_u32(0, 40);  // can exceed skew
    f.ts = base + 40 - jitter;
    f.packets = 1 + rng.uniform_u32(0, 3);
    f.bytes = 40ull * f.packets;
    f.member_in = via_member3 ? 3 : via_member2 ? 2 : 1;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace spoofscope::testing
