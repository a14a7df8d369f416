// Quickstart: build a small simulated Internet, classify four weeks of
// IXP traffic and print the headline result (Table 1 of the paper).
//
//   $ ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "analysis/table1.hpp"
#include "classify/pipeline.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace spoofscope;

  scenario::ScenarioParams params = scenario::ScenarioParams::small();
  if (argc > 1) params.seed = std::strtoull(argv[1], nullptr, 10);

  // One call builds the whole world: topology, BGP feeds, inference,
  // IXP workload and the classification labels.
  const auto world = scenario::build_scenario(params);

  const auto agg = classify::aggregate_classes(
      world->classifier().space_count(), world->trace().flows,
      world->labels());
  const auto columns = analysis::table1_columns(
      agg, world->trace().scale(), world->ixp().member_count());

  std::cout << "spoofscope quickstart — " << world->topology().as_count()
            << " ASes, " << world->ixp().member_count() << " IXP members, "
            << world->trace().flows.size() << " sampled flows (1:"
            << world->trace().meta.sampling_rate << " sampling)\n\n";
  std::cout << analysis::format_table1(columns) << "\n";

  // Classify one source by hand to show the per-flow API.
  const auto member = world->ixp().members().front().asn;
  const auto cls = world->classifier().classify(
      net::Ipv4Addr::from_octets(10, 1, 2, 3), member,
      scenario::Scenario::space_index(inference::Method::kFullCone));
  std::cout << "10.1.2.3 sourced by AS" << member << " classifies as "
            << classify::class_name(cls) << "\n";
  return 0;
}
