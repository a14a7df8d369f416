#include "scenario/scenario.hpp"

#include <algorithm>

#include "analysis/streaming.hpp"
#include "bgp/simulator.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace spoofscope::scenario {

namespace {

/// Runs the BGP machinery: propagation, collectors (full feeds at
/// NSP-heavy vantage points) plus the IXP route server, aggregated into
/// one routing table. Propagation fans out over `pool` chunk-at-a-time
/// (bgp::propagate_collect), so route state never exceeds one chunk of
/// plan groups no matter how many prefixes the plan announces.
bgp::RoutingTable build_table(const topo::Topology& topology,
                              const ixp::Ixp& ixp, const ScenarioParams& params,
                              util::ThreadPool& pool) {
  const bgp::Simulator sim(topology);
  const auto plan =
      bgp::make_announcement_plan(topology, params.plan, params.seed ^ 0xb1a);

  util::Rng rng(params.seed ^ 0xc011ec7);
  // Feeder candidates, weighted towards transit networks (the typical
  // RIS/RouteViews peers).
  std::vector<net::Asn> candidates;
  std::vector<double> weights;
  for (const auto& as : topology.ases()) {
    candidates.push_back(as.asn);
    weights.push_back(as.type == topo::BusinessType::kNsp ? 10.0 : 1.0);
  }
  const util::DiscreteDistribution pick{weights};

  // A collector cannot have more distinct feeders than there are
  // candidate ASes; without the clamp the rejection-sampling loop below
  // would spin forever on small topologies.
  std::size_t feeders_per_collector = params.feeders_per_collector;
  if (feeders_per_collector > candidates.size()) {
    util::log_warn() << "feeders_per_collector=" << params.feeders_per_collector
                     << " exceeds the " << candidates.size()
                     << " candidate ASes; clamping";
    feeders_per_collector = candidates.size();
  }

  std::vector<bgp::CollectorSpec> specs;
  specs.reserve(params.num_collectors + 1);
  for (std::size_t c = 0; c < params.num_collectors; ++c) {
    bgp::CollectorSpec spec;
    spec.name = "rrc" + std::to_string(c);
    spec.full_feed = true;
    while (spec.feeders.size() < feeders_per_collector) {
      const net::Asn f = candidates[pick(rng)];
      if (std::find(spec.feeders.begin(), spec.feeders.end(), f) ==
          spec.feeders.end()) {
        spec.feeders.push_back(f);
      }
    }
    specs.push_back(std::move(spec));
  }

  // The IXP route server: member routes only (peer-exportable).
  bgp::CollectorSpec rs;
  rs.name = "ixp-route-server";
  rs.feeders = ixp.route_server_feeders();
  rs.full_feed = false;
  if (!rs.feeders.empty()) specs.push_back(std::move(rs));

  // Stream into the builder: full feeds at paper scale are tens of
  // millions of records.
  bgp::RoutingTableBuilder builder;
  bgp::propagate_collect(
      sim, plan, specs, pool,
      [&builder](std::size_t, const bgp::MrtRecord& r) { builder.ingest(r); });
  return builder.build();
}

std::vector<inference::ValidSpace> build_spaces(
    const inference::ValidSpaceFactory& factory, const ixp::Ixp& ixp,
    util::ThreadPool& pool) {
  const auto members = ixp.member_asns();
  std::vector<inference::ValidSpace> spaces;
  spaces.reserve(inference::kNumMethods);
  for (int m = 0; m < inference::kNumMethods; ++m) {
    spaces.push_back(
        factory.build(static_cast<inference::Method>(m), members, pool));
  }
  return spaces;
}

}  // namespace

ScenarioParams ScenarioParams::small() {
  ScenarioParams p;
  p.topology.num_tier1 = 3;
  p.topology.num_transit = 10;
  p.topology.num_isp = 40;
  p.topology.num_hosting = 25;
  p.topology.num_content = 12;
  p.topology.num_other = 30;
  p.ixp.member_count = 60;
  p.num_collectors = 3;
  p.feeders_per_collector = 5;
  p.ark.num_traces = 4000;
  p.workload.regular_flows = 30000;
  p.workload.nat_leak_flows = 400;
  p.workload.background_noise_flows = 350;
  p.workload.random_spoof_events = 10;
  p.workload.flood_flows_mean = 60;
  p.workload.flood_flows_cap = 500;
  p.workload.ntp_campaigns = 6;
  p.workload.ntp_flows_mean = 120;
  p.workload.ntp_flows_cap = 800;
  p.workload.ntp_server_pool = 250;
  p.workload.steam_flood_events = 2;
  p.workload.steam_flows_cap = 300;
  p.workload.router_stray_flows = 450;
  p.workload.uncommon_setup_flows_per_member = 120;
  return p;
}

ScenarioParams ScenarioParams::internet() {
  ScenarioParams p;
  // Paper Sec 3: ~57K ASes visible at the IXP, ~600K routed prefixes
  // internet-wide; round up to an 80K-AS population whose allocation
  // grid (/20 blocks) yields on the order of a million announced
  // prefixes once the plan deaggregates.
  p.topology.num_tier1 = 16;
  p.topology.num_transit = 2384;
  p.topology.num_isp = 36000;
  p.topology.num_hosting = 14000;
  p.topology.num_content = 4800;
  p.topology.num_other = 22800;
  // A 0.15 pairwise mesh over 2384 transits would dominate the link
  // count; real transit peering is degree-bounded.
  p.topology.transit_peering_prob = 0.015;
  p.topology.alloc_block_slash24 = 16;
  // Keep the number of distinct propagations (origins x first-hop
  // policies) near the origin count.
  p.plan.selective_prob = 0.02;
  p.num_collectors = 6;
  p.feeders_per_collector = 8;
  p.threads = 0;  // hardware concurrency: serial generation is pointless here
  return p;
}

ScenarioParams ScenarioParams::paper() {
  ScenarioParams p;
  // The paper ingests 34 collectors with hundreds of feeders; give the
  // detection method comparable AS-graph visibility.
  p.num_collectors = 12;
  p.feeders_per_collector = 24;
  p.ixp.route_server_fraction = 0.9;
  // Concentrate the BCP38-noncompliant setups on fewer, heavier members
  // so the paper's top-40 investigation covers most of the false-positive
  // volume (it removed 59.9% of Invalid bytes).
  p.whois.provider_assigned_prob = 0.035;
  p.workload.uncommon_setup_flows_per_member = 1500;
  return p;
}

Scenario::Scenario(const ScenarioParams& params)
    : params_(params),
      pool_(params.threads),
      topology_(topo::generate_topology(params.topology, params.seed, pool_)),
      ixp_(ixp::Ixp::build(topology_, params.ixp, params.seed ^ 0x1c9)),
      table_(build_table(topology_, ixp_, params, pool_)),
      orgs_(data::build_as2org(topology_, params.as2org, params.seed ^ 0x02c)),
      whois_(data::build_whois(topology_, params.whois, params.seed ^ 0x3b0)),
      ark_(data::run_ark_campaign(topology_, params.ark, params.seed ^ 0xa2c)),
      spoofer_(data::run_spoofer_campaign(topology_, params.spoofer,
                                          params.seed ^ 0x5b0)),
      factory_(table_, orgs_),
      classifier_(table_, build_spaces(factory_, ixp_, pool_)),
      workload_(traffic::generate_workload(topology_, ixp_, whois_,
                                           params.workload,
                                           params.seed ^ 0x7aff1c)) {
  labels_ = classify::classify_trace(classifier_, workload_.trace.flows, pool_);
  util::log_info() << "scenario ready: " << topology_.as_count() << " ASes, "
                   << ixp_.member_count() << " members, "
                   << table_.prefixes().size() << " routed prefixes, "
                   << workload_.trace.flows.size() << " sampled flows";
}

std::vector<analysis::MemberClassCounts> Scenario::member_counts(
    inference::Method m) const {
  analysis::ReportOptions opts;
  opts.space_idx = space_index(m);
  opts.ixp = &ixp_;
  return analysis::report_flows(classifier_.space_count(),
                                workload_.trace.flows, labels_, opts)
      .member_counts;
}

std::unique_ptr<Scenario> build_scenario(const ScenarioParams& params) {
  return std::make_unique<Scenario>(params);
}

}  // namespace spoofscope::scenario
