// Data persistence workflow: generate a scenario once, persist everything
// a later analysis needs — the flow trace (binary), the BGP view
// (MRT-lite text) and the WHOIS registry (RPSL-lite text) — then reload
// the artifacts and verify the classification reproduces bit-for-bit.
// The trace comes back through the zero-copy path (MappedTrace +
// batched SoA decode), and the durable state plane rounds the story
// out: the compiled flat plane is cached on disk and the streaming
// detector checkpoints mid-stream and resumes bit-identically.
// This is how spoofscope would be used against real captured data.
//
//   $ ./trace_tools [output-dir]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "bgp/mrt_lite.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "data/rpsl.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace.hpp"
#include "scenario/scenario.hpp"
#include "state/plane_cache.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace spoofscope;
  namespace fs = std::filesystem;

  const fs::path dir = argc > 1 ? argv[1] : fs::temp_directory_path() / "spoofscope";
  fs::create_directories(dir);

  const auto params = scenario::ScenarioParams::small();
  const auto world = scenario::build_scenario(params);

  // --- persist ---------------------------------------------------------------
  {
    std::ofstream out(dir / "ixp.trace", std::ios::binary);
    net::write_trace(out, world->trace());
  }
  {
    // Export a route-server style MRT-lite view for the record.
    const bgp::Simulator sim(world->topology());
    const auto plan = bgp::make_announcement_plan(world->topology(), {}, 7);
    const bgp::RouteFabric fabric(sim, plan);
    bgp::CollectorSpec rs;
    rs.name = "ixp-rs";
    rs.feeders = world->ixp().route_server_feeders();
    rs.full_feed = false;
    std::ofstream out(dir / "route-server.mrt");
    bgp::collect_records(fabric, rs, [&out](const bgp::MrtRecord& r) {
      std::visit([&out](const auto& rec) { out << bgp::to_mrt_line(rec) << '\n'; },
                 r);
    });
  }
  {
    std::ofstream out(dir / "registry.rpsl");
    out << data::registry_to_rpsl(world->whois());
  }

  // --- reload and verify ------------------------------------------------------
  // The trace returns through the zero-copy read path: the file is
  // mmapped, records decode in batches straight into SoA lanes, and each
  // batch is classified and checked against the original incrementally —
  // no full AoS copy of the trace is ever materialized.
  const net::MappedTrace mapped((dir / "ixp.trace").string());
  net::MappedTraceReader reader(mapped);
  const std::vector<net::FlowRecord>& original = world->trace().flows;
  const std::vector<classify::Label>& expected = world->labels();
  net::FlowBatch batch;
  std::vector<classify::Label> labels;
  std::size_t off = 0;
  bool flows_ok = true, labels_ok = true;
  while (reader.next_batch(batch, 8192) != 0) {
    labels.resize(batch.size());
    world->classifier().classify_batch(batch, labels);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      flows_ok &= off + i < original.size() && batch.record(i) == original[off + i];
      labels_ok &= off + i < expected.size() && labels[i] == expected[off + i];
    }
    off += batch.size();
  }
  flows_ok &= off == original.size();
  labels_ok &= off == expected.size();
  std::cout << "trace:  " << off << " flows reloaded (mmap "
            << (mapped.mapped() ? "yes" : "no") << ", batched SoA decode), seed "
            << reader.meta().seed << ", 1:" << reader.meta().sampling_rate
            << " sampling — " << (flows_ok ? "bit-identical" : "MISMATCH")
            << "\n";
  std::cout << "labels: "
            << (labels_ok ? "classification reproduced exactly" : "MISMATCH")
            << "\n";

  std::ifstream min(dir / "route-server.mrt");
  const auto records = bgp::read_mrt(min);
  bgp::RoutingTableBuilder builder;
  builder.ingest(records);
  const auto table = builder.build();
  std::cout << "mrt:    " << records.size() << " records reloaded -> "
            << table.prefixes().size() << " routed prefixes, "
            << table.edges().size() << " AS edges\n";

  std::ifstream rin(dir / "registry.rpsl");
  const auto rebuilt = data::registry_from_rpsl(data::parse_rpsl(rin));
  std::cout << "rpsl:   " << rebuilt.provider_assigned().size()
            << " provider-assigned ranges, " << rebuilt.documented_link_count()
            << " documented links ("
            << (rebuilt.provider_assigned().size() ==
                        world->whois().provider_assigned().size() &&
                    rebuilt.documented_link_count() ==
                        world->whois().documented_link_count()
                ? "matches original"
                : "MISMATCH")
            << ")\n";

  // --- durable state ----------------------------------------------------------
  // Compiled-plane cache: the first load compiles the DIR-24-8 plane and
  // stores it; the second mmaps the entry back. The digest check proves
  // the cached plane is the compile, not an approximation of it.
  state::PlaneCache cache((dir / "plane-cache").string());
  const auto first = cache.load_or_compile(world->classifier(), nullptr);
  const auto second = cache.load_or_compile(world->classifier(), nullptr);
  std::cout << "plane:  first load " << (first.stored ? "compiled+stored" : "hit")
            << ", second load " << (second.hit ? "cache hit" : "miss") << " ("
            << (first.plane.plane_digest() == second.plane.plane_digest()
                ? "digests equal"
                : "DIGEST MISMATCH")
            << ")\n";

  // Detector checkpoint/resume on the cached plane: run A straight
  // through; run B checkpoints at mid-stream, a fresh detector restores
  // the checkpoint and finishes the second half. Alerts and health must
  // agree bit-for-bit.
  const std::size_t full_idx =
      scenario::Scenario::space_index(inference::Method::kFullConeOrg);
  classify::StreamingParams sp;
  sp.min_spoofed_packets = 30;
  sp.min_share = 0.02;
  const std::span<const net::FlowRecord> flows(original);
  const classify::FlatClassifier& plane = second.plane;
  classify::StreamingDetector straight(plane, full_idx, sp);
  const auto uninterrupted = straight.run(flows);

  const std::size_t half = flows.size() / 2;
  std::vector<classify::SpoofingAlert> resumed;
  const auto collect = [&resumed](const classify::SpoofingAlert& a) {
    resumed.push_back(a);
  };
  const std::string ckpt = (dir / "detector.ckpt").string();
  {
    classify::StreamingDetector before(plane, full_idx, sp);
    for (std::size_t i = 0; i < half; ++i) before.ingest(flows[i], collect);
    before.save(ckpt);  // "process dies" here
  }
  classify::StreamingDetector after(plane, full_idx, sp);
  after.restore(ckpt);
  for (std::size_t i = half; i < flows.size(); ++i) after.ingest(flows[i], collect);
  after.flush(collect);
  std::cout << "ckpt:   " << uninterrupted.size() << " alerts uninterrupted, "
            << resumed.size() << " across the checkpoint ("
            << (resumed == uninterrupted && after.health() == straight.health()
                ? "resume is bit-identical"
                : "MISMATCH")
            << ")\n";
  std::cout << "artifacts written to " << dir << "\n";
  return 0;
}
