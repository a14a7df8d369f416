// One-stop scenario assembly: topology -> BGP simulation -> collectors ->
// routing table -> inference -> IXP workload -> classification. This is
// what the examples and every bench build on; a Scenario is fully
// determined by (ScenarioParams, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/member_stats.hpp"
#include "bgp/collector.hpp"
#include "classify/classifier.hpp"
#include "classify/pipeline.hpp"
#include "data/ark.hpp"
#include "data/as2org.hpp"
#include "data/spoofer.hpp"
#include "data/whois.hpp"
#include "inference/builder.hpp"
#include "ixp/ixp.hpp"
#include "topo/generator.hpp"
#include "traffic/workload.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::scenario {

/// All knobs in one place.
struct ScenarioParams {
  topo::TopologyParams topology;
  ixp::IxpParams ixp;
  bgp::PlanParams plan;
  data::As2OrgParams as2org;
  data::ArkParams ark;
  data::SpooferParams spoofer;
  data::WhoisParams whois;
  traffic::WorkloadParams workload;

  std::size_t num_collectors = 6;        ///< RIS/RouteViews-style full feeds
  std::size_t feeders_per_collector = 8;
  std::uint64_t seed = 42;

  /// Worker threads for valid-space construction and trace
  /// classification: 0 = hardware concurrency, 1 = exact sequential
  /// execution (the default; results are identical either way).
  std::size_t threads = 1;

  /// Laptop-quick configuration for tests and examples.
  static ScenarioParams small();

  /// The paper-scale default used by the benches.
  static ScenarioParams paper();

  /// Internet scale: ~80K ASes and on the order of a million announced
  /// prefixes. Exercises the chunk-parallel generator and the streaming
  /// chunked propagation; expect minutes of CPU, not seconds.
  static ScenarioParams internet();
};

/// The fully assembled world. Non-copyable and heap-only (internal
/// components hold references to each other); create via build_scenario.
class Scenario {
 public:
  explicit Scenario(const ScenarioParams& params);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioParams& params() const { return params_; }
  const topo::Topology& topology() const { return topology_; }
  const ixp::Ixp& ixp() const { return ixp_; }
  const bgp::RoutingTable& table() const { return table_; }
  const asgraph::OrgMap& orgs() const { return orgs_; }
  const data::WhoisRegistry& whois() const { return whois_; }
  const data::ArkDataset& ark() const { return ark_; }
  const std::vector<data::SpooferRecord>& spoofer() const { return spoofer_; }
  const inference::ValidSpaceFactory& factory() const { return factory_; }
  const traffic::Workload& workload() const { return workload_; }
  const net::Trace& trace() const { return workload_.trace; }

  /// The pool the scenario was built with (params.threads lanes);
  /// available for follow-on parallel analyses over the same world.
  util::ThreadPool& pool() { return pool_; }

  classify::Classifier& classifier() { return classifier_; }
  const classify::Classifier& classifier() const { return classifier_; }

  /// Per-flow labels of trace() (labels()[i] belongs to flows[i]),
  /// computed by the trie oracle's classify_trace.
  const std::vector<classify::Label>& labels() const { return labels_; }
  std::vector<classify::Label>& mutable_labels() { return labels_; }

  /// Index of a method in the classifier's space list.
  static std::size_t space_index(inference::Method m) {
    return static_cast<std::size_t>(m);
  }

  /// Per-member class counts under `m` (convenience for analyses).
  std::vector<analysis::MemberClassCounts> member_counts(
      inference::Method m) const;

 private:
  ScenarioParams params_;
  util::ThreadPool pool_;
  topo::Topology topology_;
  ixp::Ixp ixp_;
  bgp::RoutingTable table_;
  asgraph::OrgMap orgs_;
  data::WhoisRegistry whois_;
  data::ArkDataset ark_;
  std::vector<data::SpooferRecord> spoofer_;
  inference::ValidSpaceFactory factory_;
  classify::Classifier classifier_;
  traffic::Workload workload_;
  std::vector<classify::Label> labels_;
};

/// Builds a scenario on the heap (components hold cross-references, so
/// the object must not move).
std::unique_ptr<Scenario> build_scenario(const ScenarioParams& params);

}  // namespace spoofscope::scenario
