// The spoofscope benchmark driver: one workload per process, on input
// files generated beforehand (run.py generates and caches them).
//
//   perfbench_driver --workload classify-ixp|report-ixp|serve-churn
//                    --inputs DIR --work DIR --seed N --seconds S
//                    --trace 0|1 [--self-test]
//
// It calls the public functions tools/spoofscope_cli.cpp calls, in the
// same order: set-up (read_mrt -> RoutingTableBuilder -> RPSL parse ->
// member scan -> ValidSpaceFactory::build(FULL+org) -> RPSL extend ->
// FlatClassifier::compile), then the workload's passes. Every output is
// checked outside the timed regions against an oracle (the trie
// Classifier, or a one-shot StreamingDetector for serve-churn). The last
// stdout line is the result JSON: with --trace 0 the end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced run, whose budget
// table goes to stdout above it. --self-test runs briefly and also
// proves that each output check rejects a perturbed reference.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/streaming.hpp"
#include "bgp/mrt_lite.hpp"
#include "bgp/routing_table.hpp"
#include "classify/batch_kernels.hpp"
#include "classify/classifier.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
#include "data/rpsl.hpp"
#include "inference/builder.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "service/merge.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "service/shard.hpp"
#include "state/delta_chain.hpp"
#include "trace.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spoofscope;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

// ---------------------------------------------------------------- knobs
// Fixed so that two commits are always measured on identical work.

/// Flows per decoded chunk: the CLI's kChunkFlows.
constexpr std::size_t kChunkFlows = std::size_t{1} << 17;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 11;
/// serve-churn: ingest shards (control thread + shards <= nproc).
constexpr std::size_t kShards = 2;
/// serve-churn: a checkpoint is cut after every kCheckpointEvery
/// segments: once per simulated day (segments are 3 hours long), so a
/// crash replays at most a day of traffic. The churn files' cadence comes
/// from the inputs (churn.txt, written by the generator).
constexpr std::size_t kCheckpointEvery = 8;
/// A traced run's layers must explain the untraced pass within this
/// share (the residual the budget table states).
constexpr double kResidualBound = 0.10;

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The timed passes of a run. Every pass runs the same steps in the same
/// order (the trace's chunks, or serve's submits, reloads, checkpoints
/// and drain), so step j of one pass is the same work as step j of any
/// other; likewise latency sample j (a chunk, or a served segment).
struct TimedPasses {
  std::uint64_t flows = 0;                     ///< per pass
  std::vector<double> pass_ms;                 ///< each pass's wall time
  std::vector<std::vector<double>> step_ms;    ///< each pass's step times
  std::vector<std::vector<double>> latency_ms; ///< each pass's latencies

  void add(std::uint64_t pass_flows, double seconds, std::vector<double> steps,
           std::vector<double> latencies) {
    if (!pass_ms.empty() &&
        (pass_flows != flows || steps.size() != step_ms.front().size() ||
         latencies.size() != latency_ms.front().size())) {
      throw std::runtime_error("timed passes differ in their work");
    }
    flows = pass_flows;
    pass_ms.push_back(1e3 * seconds);
    step_ms.push_back(std::move(steps));
    latency_ms.push_back(std::move(latencies));
  }
};

/// Each position's fastest time over the passes. Load from other
/// processes on the machine only ever slows work down, and it comes and
/// goes within a pass, so the fastest time of each piece of work repeats
/// across runs better than any whole pass, the median pass or the pooled
/// samples do.
std::vector<double> floors(const std::vector<std::vector<double>>& per_pass) {
  std::vector<double> fastest = per_pass.front();
  for (const auto& pass : per_pass) {
    for (std::size_t j = 0; j < fastest.size(); ++j) {
      fastest[j] = std::min(fastest[j], pass[j]);
    }
  }
  return fastest;
}

/// flows_per_s: the flows of a pass over the time of a pass assembled
/// from each step's fastest time, plus the fastest time outside the steps
/// (mapping the trace, finishing the output).
double floor_rate(const TimedPasses& t) {
  double outside = t.pass_ms.front();
  for (std::size_t p = 0; p < t.step_ms.size(); ++p) {
    double in_steps = 0;
    for (const double s : t.step_ms[p]) in_steps += s;
    outside = std::min(outside, t.pass_ms[p] - in_steps);
  }
  double floor_ms = std::max(outside, 0.0);
  for (const double s : floors(t.step_ms)) floor_ms += s;
  const double rate = 1e3 * static_cast<double>(t.flows) / floor_ms;
  std::printf("passes: %zu timed of %zu steps, flows/s median pass %.6g, "
              "fastest pass %.6g, step floor %.6g\n",
              t.pass_ms.size(), t.step_ms.front().size(),
              1e3 * static_cast<double>(t.flows) / median(t.pass_ms),
              1e3 * static_cast<double>(t.flows) /
                  *std::min_element(t.pass_ms.begin(), t.pass_ms.end()),
              rate);
  return rate;
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool same_aggregate(const classify::Aggregate& a, const classify::Aggregate& b) {
  if (a.totals.size() != b.totals.size() || a.total_packets != b.total_packets ||
      a.total_bytes != b.total_bytes || a.total_flows != b.total_flows) {
    return false;
  }
  for (std::size_t s = 0; s < a.totals.size(); ++s) {
    for (int c = 0; c < classify::kNumClasses; ++c) {
      const auto& x = a.totals[s][c];
      const auto& y = b.totals[s][c];
      if (x.flows != y.flows || x.packets != y.packets || x.bytes != y.bytes ||
          x.members != y.members) {
        return false;
      }
    }
  }
  return true;
}

/// What serve-churn's output check compares.
struct DetectOutput {
  std::vector<classify::SpoofingAlert> alerts;
  classify::DetectorHealth health;
  friend bool operator==(const DetectOutput&, const DetectOutput&) = default;
};

std::vector<bgp::UpdateMessage> read_updates(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open updates file: " + path);
  std::vector<bgp::UpdateMessage> updates;
  for (auto& rec : bgp::read_mrt(in)) {
    if (auto* u = std::get_if<bgp::UpdateMessage>(&rec)) updates.push_back(*u);
  }
  return updates;
}

/// Bytes of the files under `dir` that are new or changed since `before`.
using DirState = std::map<std::string, std::pair<std::uintmax_t,
                                                 std::filesystem::file_time_type>>;
DirState dir_state(const std::string& dir) {
  DirState s;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      s[e.path().string()] = {e.file_size(), e.last_write_time()};
    }
  }
  return s;
}
std::uint64_t bytes_written(const DirState& before, const DirState& after) {
  std::uint64_t total = 0;
  for (const auto& [path, st] : after) {
    const auto it = before.find(path);
    if (it == before.end() || it->second != st) total += st.first;
  }
  return total;
}

// ---------------------------------------------------------------- inputs

struct Inputs {
  std::string mrt;
  std::string rpsl;
  std::string trace;
  std::vector<std::string> segments;
  std::string churn[2];
  /// A churn file goes through reload_updates after every reload_every
  /// segments: the world's own rate of route changes (see gen.cpp).
  std::size_t reload_every = 0;
};

Inputs locate_inputs(const std::string& dir) {
  Inputs in;
  in.mrt = dir + "/route-server.mrt";
  in.rpsl = dir + "/registry.rpsl";
  in.trace = dir + "/ixp.trace";
  in.churn[0] = dir + "/churn-a.mrt";
  in.churn[1] = dir + "/churn-b.mrt";
  for (const auto& p : {in.mrt, in.rpsl, in.trace, in.churn[0], in.churn[1]}) {
    if (!std::filesystem::is_regular_file(p)) {
      throw std::runtime_error("missing input file: " + p);
    }
  }
  for (const auto& e : std::filesystem::directory_iterator(dir + "/segments")) {
    in.segments.push_back(e.path().string());
  }
  std::sort(in.segments.begin(), in.segments.end());
  if (in.segments.empty()) throw std::runtime_error("no segment files in " + dir);
  std::ifstream cadence(dir + "/churn.txt");
  std::string key;
  std::string value;
  while (cadence >> key >> value) {
    std::uint64_t n = 0;
    if (key == "reload_every" && util::parse_u64(value, n)) in.reload_every = n;
  }
  if (in.reload_every == 0) {
    throw std::runtime_error("no reload_every in " + dir + "/churn.txt");
  }
  return in;
}

// ---------------------------------------------------------------- set-up

/// What set-up produces: the routing view (the classifier points into
/// it, so the context never moves), the injecting members, the trie
/// classifier (compile input and oracle) and the compiled plane.
struct Context {
  bgp::RoutingTable table;
  std::optional<data::WhoisRegistry> whois;
  std::vector<net::Asn> members;
  std::unique_ptr<classify::Classifier> classifier;
  std::shared_ptr<classify::FlatClassifier> plane;
};

/// The CLI's scan_members: distinct injecting members of the trace.
std::vector<net::Asn> scan_members(const net::MappedTrace& trace) {
  net::MappedTraceReader reader(trace);
  net::FlowBatch batch;
  std::set<net::Asn> members;
  while (reader.next_batch(batch, kChunkFlows) > 0) {
    for (const net::Asn m : batch.member_in()) members.insert(m);
    batch.clear();
    reader.drop_consumed();
  }
  return {members.begin(), members.end()};
}

std::unique_ptr<Context> set_up(const Inputs& in, util::ThreadPool& pool,
                                Tracer& tr) {
  auto ctx = std::make_unique<Context>();
  {
    std::vector<bgp::MrtRecord> records;
    {
      Scope s(tr, "bgp.read_mrt");
      std::ifstream mrt(in.mrt);
      if (!mrt) throw std::runtime_error("cannot open " + in.mrt);
      records = bgp::read_mrt(mrt);
    }
    Scope s(tr, "bgp.table_build");
    bgp::RoutingTableBuilder builder;
    builder.ingest(records);
    ctx->table = builder.build();
  }
  {
    Scope s(tr, "data.rpsl");
    std::ifstream rpsl(in.rpsl);
    if (!rpsl) throw std::runtime_error("cannot open " + in.rpsl);
    ctx->whois = data::registry_from_rpsl(data::parse_rpsl(rpsl));
  }
  {
    Scope s(tr, "net.member_scan");
    const net::MappedTrace trace(in.trace);
    ctx->members = scan_members(trace);
  }
  {
    Scope s(tr, "inference.valid_space");
    inference::ValidSpaceFactory factory(ctx->table, asgraph::OrgMap{});
    std::vector<inference::ValidSpace> spaces;
    spaces.push_back(
        factory.build(inference::Method::kFullConeOrg, ctx->members, pool));
    ctx->classifier =
        std::make_unique<classify::Classifier>(ctx->table, std::move(spaces));
  }
  {
    Scope s(tr, "data.rpsl");
    auto& space = ctx->classifier->mutable_space(0);
    for (const net::Asn m : ctx->members) {
      const std::vector<net::Prefix> extra = ctx->whois->provider_assigned_of(m);
      if (!extra.empty()) space.extend(m, trie::IntervalSet::from_prefixes(extra));
    }
  }
  {
    Scope s(tr, "classify.compile");
    ctx->plane = std::make_shared<classify::FlatClassifier>(
        classify::FlatClassifier::compile(*ctx->classifier, pool));
  }
  const auto& st = ctx->plane->stats();
  tr.gauge("classify.plane_mb",
           static_cast<double>(st.table_bytes + st.bitset_bytes) / (1 << 20));
  return ctx;
}

// ------------------------------------------------- classify / report pass

struct PassResult {
  double seconds = 0;
  std::uint64_t flows = 0;
  classify::Aggregate aggregate;
  std::uint64_t report_digest = 0;
  std::vector<double> chunk_ms;
};

/// The separately timed StreamingReport builders of a traced report
/// pass, constructed exactly as StreamingReport constructs them.
struct TracedBuilders {
  explicit TracedBuilders(std::size_t space_count,
                          const analysis::ReportOptions& o)
      : opts(o),
        aggregate(space_count),
        members(o.space_idx, o.ixp, o.limits.max_members),
        venn(o.space_idx, o.limits.max_members),
        ports(o.space_idx),
        traffic(o.space_idx, o.window_seconds, o.bin_seconds, o.limits.sketch_k,
                o.small_packet_threshold),
        attacks(o.space_idx, o.limits),
        amplification(o.space_idx, o.window_seconds, o.bin_seconds,
                      o.limits.max_pairs),
        incidents(o.space_idx, o.incident_params, o.limits.max_clusters,
                  o.limits.max_counterparts_per_cluster) {}
  /// StreamingReport::finish over these builders.
  analysis::ReportResult finish(std::uint64_t flows) const {
    analysis::ReportResult r;
    r.aggregate = aggregate.build();
    r.member_counts = members.finish();
    r.venn = venn.finish();
    for (const auto& mc : r.member_counts) {
      ++r.strategy_counts[static_cast<int>(analysis::deduce_strategy(mc))];
    }
    r.ports = ports.finish();
    r.traffic = traffic.finish();
    r.src_ratio = attacks.ratio(opts.ratio_min_packets, opts.ratio_bins);
    r.ntp = attacks.ntp(opts.top_victims);
    r.amplification = amplification.finish();
    r.incidents = incidents.finish();
    r.flows = flows;
    r.evictions = members.evictions() + venn.evictions() + attacks.evictions() +
                  amplification.evictions() + incidents.evictions();
    return r;
  }

  analysis::ReportOptions opts;
  classify::AggregateBuilder aggregate;
  analysis::MemberStatsBuilder members;
  analysis::VennBuilder venn;
  analysis::PortMixBuilder ports;
  analysis::TrafficCharBuilder traffic;
  analysis::AttackPatternsBuilder attacks;
  analysis::AmplificationBuilder amplification;
  analysis::IncidentsBuilder incidents;
};

analysis::ReportOptions report_options() {
  analysis::ReportOptions opts;
  opts.limits = analysis::ReportLimits::production();
  return opts;
}

/// One `classify` (report=false) or `report` (report=true) pass over the
/// whole trace, from mapping the file to the finished output.
PassResult classify_pass(const Context& ctx, const std::string& trace_path,
                         util::ThreadPool& pool, bool report, Tracer& tr) {
  PassResult r;
  const std::size_t spaces = ctx.classifier->space_count();
  const auto t0 = Clock::now();
  {  // the pass ends once its state is torn down, as the CLI's does
    Scope root(tr, report ? "pass.report" : "pass.classify");
    std::optional<net::MappedTrace> trace;
    {
      Scope s(tr, "net.decode");
      trace.emplace(trace_path);
    }
    tr.count("net.mb_read",
             static_cast<double>(trace->bytes().size()) / (1 << 20));
    net::MappedTraceReader reader(*trace);
    classify::AggregateBuilder builder(spaces);
    std::optional<analysis::StreamingReport> streaming;
    std::optional<TracedBuilders> traced;
    if (report && tr.enabled()) {
      traced.emplace(spaces, report_options());
    } else if (report) {
      streaming.emplace(spaces, report_options());
    }
    net::FlowBatch batch;
    std::vector<classify::Label> labels;
    for (;;) {
      const auto c0 = Clock::now();
      {
        Scope s(tr, "net.decode");
        if (reader.next_batch(batch, kChunkFlows) == 0) break;
      }
      labels.resize(batch.size());
      {
        Scope s(tr, "classify.kernel");
        ctx.plane->classify_batch(batch, labels, pool, classify::SimdKernel::kAuto);
      }
      if (traced) {
        auto& b = *traced;
        { Scope s(tr, "classify.aggregate"); b.aggregate.add(batch, labels); }
        { Scope s(tr, "analysis.members"); b.members.add(batch, labels); }
        { Scope s(tr, "analysis.venn"); b.venn.add(batch, labels); }
        { Scope s(tr, "analysis.ports"); b.ports.add(batch, labels); }
        { Scope s(tr, "analysis.traffic"); b.traffic.add(batch, labels); }
        { Scope s(tr, "analysis.attacks"); b.attacks.add(batch, labels); }
        { Scope s(tr, "analysis.amplification"); b.amplification.add(batch, labels); }
        { Scope s(tr, "analysis.incidents"); b.incidents.add(batch, labels); }
      } else if (streaming) {
        streaming->add(batch, labels);
      } else {
        Scope s(tr, "classify.aggregate");
        builder.add(batch, labels);
      }
      r.flows += batch.size();
      tr.count("net.records", static_cast<double>(batch.size()));
      {
        Scope s(tr, "net.decode");
        reader.drop_consumed();
      }
      r.chunk_ms.push_back(1e3 * seconds_between(c0, Clock::now()));
    }
    if (traced) {
      Scope s(tr, "analysis.finish");
      const analysis::ReportResult result = traced->finish(r.flows);
      r.aggregate = result.aggregate;
      r.report_digest = fnv1a(analysis::format_report(result));
      tr.count("analysis.evictions", static_cast<double>(result.evictions));
      traced.reset();  // tearing the builders down is part of finishing
    } else if (streaming) {
      const analysis::ReportResult result = streaming->finish();
      r.aggregate = result.aggregate;
      r.report_digest = fnv1a(analysis::format_report(result));
    } else {
      Scope s(tr, "classify.aggregate");
      r.aggregate = builder.build();
    }
  }
  r.seconds = seconds_between(t0, Clock::now());
  return r;
}

/// The trie-Classifier oracle's aggregate over the same trace.
classify::Aggregate oracle_aggregate(const Context& ctx,
                                     const std::string& trace_path) {
  const net::MappedTrace trace(trace_path);
  net::MappedTraceReader reader(trace);
  classify::AggregateBuilder builder(ctx.classifier->space_count());
  net::FlowBatch batch;
  std::vector<classify::Label> labels;
  while (reader.next_batch(batch, kChunkFlows) > 0) {
    labels.resize(batch.size());
    ctx.classifier->classify_batch(batch, labels);
    builder.add(batch, labels);
    reader.drop_consumed();
  }
  return builder.build();
}

// ---------------------------------------------------------------- serve

struct ServeStats {
  std::uint64_t attempted = 0;  ///< submits + reloads + checkpoints
  std::uint64_t failed = 0;
  std::uint64_t flows = 0;
  double seconds = 0;  ///< first submit to drained
  /// Per segment: from the previous segment's submit returning (when the
  /// client has this one ready) to this one's submit returning, so a
  /// reload or checkpoint between the two lands in this segment's latency.
  std::vector<double> latency_ms;
  std::vector<double> step_ms;  ///< each operation's time
  std::size_t reloads = 0;
  double reload_seconds = 0;  ///< wall time inside reload_updates
};

service::ServerConfig server_config(const std::string& ckpt_dir,
                                    util::ThreadPool& pool) {
  service::ServerConfig cfg;
  cfg.shards = kShards;
  cfg.params.simd = classify::SimdKernel::kAuto;
  cfg.checkpoint_dir = ckpt_dir;
  cfg.pool = &pool;
  return cfg;
}

bool reload_due(const Inputs& in, std::size_t segment) {
  return (segment + 1) % in.reload_every == 0;
}
bool checkpoint_due(std::size_t segment) {
  return (segment + 1) % kCheckpointEvery == 0;
}

/// Runs `op`, counting it as attempted, and as failed if it throws.
template <typename Op>
void attempt(ServeStats& st, Op&& op) {
  ++st.attempted;
  try {
    op();
  } catch (const std::exception& e) {
    ++st.failed;
    std::cerr << "operation failed: " << e.what() << "\n";
  }
}

/// attempt(), timed as one step of the pass.
template <typename Op>
void step(ServeStats& st, Op&& op) {
  const auto t0 = Clock::now();
  attempt(st, op);
  st.step_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
}

/// One untraced serve pass through service::Server: every segment is
/// submitted back to back (closed loop), with reload_updates and
/// checkpoint at fixed segment boundaries, then drain. The plane is
/// shared and patched in place.
DetectOutput serve_pass(const Inputs& in,
                        const std::shared_ptr<classify::FlatClassifier>& plane,
                        const std::string& ckpt_dir, util::ThreadPool& pool,
                        ServeStats& st) {
  std::filesystem::remove_all(ckpt_dir);
  service::Server server(plane, server_config(ckpt_dir, pool));
  server.start();
  const auto t0 = Clock::now();
  auto ready = t0;
  for (std::size_t i = 0; i < in.segments.size(); ++i) {
    step(st, [&] { st.flows += server.submit(in.segments[i]).flows; });
    const auto done = Clock::now();
    st.latency_ms.push_back(1e3 * seconds_between(ready, done));
    ready = done;
    if (reload_due(in, i)) {
      const auto r0 = Clock::now();
      step(st, [&] { server.reload_updates(in.churn[st.reloads++ % 2]); });
      st.reload_seconds += seconds_between(r0, Clock::now());
    }
    if (checkpoint_due(i)) step(st, [&] { server.checkpoint(); });
  }
  step(st, [&] { server.drain(); });
  st.seconds = seconds_between(t0, Clock::now());
  DetectOutput out;
  out.alerts = server.merged_alerts();
  out.health = server.stats().merged;
  // An odd number of churn files leaves the plane patched; the inverse
  // file restores it so every pass starts from the compiled routes.
  if (st.reloads % 2 == 1) server.reload_updates(in.churn[1]);
  server.stop();
  std::filesystem::remove_all(ckpt_dir);
  return out;
}

/// The traced serve pass: Server::submit / reload_updates / checkpoint /
/// drain re-expressed over the public Shard and ShardRouter API, call
/// for call, so each step gets its own span. Closed loop.
DetectOutput serve_pass_traced(
    const Inputs& in, const std::shared_ptr<classify::FlatClassifier>& plane,
    const std::string& ckpt_dir, util::ThreadPool& pool, Tracer& tr,
    ServeStats& st) {
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::create_directories(ckpt_dir);
  const service::ServerConfig cfg = server_config(ckpt_dir, pool);
  std::vector<std::unique_ptr<service::Shard>> shards;
  for (std::size_t i = 0; i < cfg.shards; ++i) {
    service::ShardConfig scfg;
    scfg.index = i;
    scfg.shard_count = cfg.shards;
    scfg.space_idx = cfg.space_idx;
    scfg.params = cfg.params;
    scfg.checkpoint_every = cfg.checkpoint_every;
    scfg.max_chain = cfg.max_chain;
    scfg.policy = cfg.policy;
    scfg.checkpoint_base = state::shard_checkpoint_base(ckpt_dir, i, cfg.shards);
    shards.push_back(std::make_unique<service::Shard>(plane, std::move(scfg)));
  }
  for (auto& s : shards) s->start();
  const service::ShardRouter router(cfg.shards);
  std::vector<net::FlowBatch> lanes;
  std::vector<double> lane_flows(cfg.shards, 0.0);
  const auto barrier = [&] {
    Scope s(tr, "service.barrier_wait");
    for (auto& shard : shards) shard->wait_idle();
  };

  const auto t0 = Clock::now();
  {
    Scope root(tr, "pass.serve");
    for (std::size_t i = 0; i < in.segments.size(); ++i) {
      attempt(st, [&] {
        std::optional<net::MappedTrace> trace;
        {
          Scope s(tr, "net.decode");
          trace.emplace(in.segments[i]);
        }
        tr.count("net.mb_read",
                 static_cast<double>(trace->bytes().size()) / (1 << 20));
        net::MappedTraceReader reader(*trace);
        net::FlowBatch batch;
        for (;;) {
          {
            Scope s(tr, "net.decode");
            if (reader.next_batch(batch, cfg.batch_flows) == 0) break;
          }
          st.flows += batch.size();
          tr.count("net.records", static_cast<double>(batch.size()));
          {
            Scope s(tr, "service.route");
            for (auto& lane : lanes) lane.clear();
            router.route(batch, lanes);
          }
          {
            Scope s(tr, "service.enqueue_wait");
            for (std::size_t k = 0; k < shards.size(); ++k) {
              if (lanes[k].empty()) continue;
              lane_flows[k] += static_cast<double>(lanes[k].size());
              shards[k]->submit(std::move(lanes[k]));
              lanes[k] = net::FlowBatch{};
            }
          }
          batch.clear();
          Scope s(tr, "net.decode");
          reader.drop_consumed();
        }
        barrier();
      });
      if (reload_due(in, i)) {
        attempt(st, [&] {
          Scope s(tr, "service.reload");
          const auto updates = read_updates(in.churn[st.reloads++ % 2]);
          barrier();
          classify::FlatClassifier::UpdateApplyOptions opts;
          opts.pool = cfg.pool;
          classify::FlatClassifier::UpdateApplyStats applied;
          {
            Scope p(tr, "classify.patch");
            applied = plane->apply_updates(updates, opts);
          }
          tr.count("classify.updates_applied",
                   static_cast<double>(applied.announced + applied.withdrawn));
          for (auto& shard : shards) shard->republish(plane);
        });
      }
      if (checkpoint_due(i)) {
        attempt(st, [&] {
          const DirState before = dir_state(ckpt_dir);
          {
            Scope s(tr, "state.checkpoint");
            for (auto& shard : shards) shard->checkpoint_async();
            for (auto& shard : shards) shard->wait_idle();
          }
          tr.count("state.checkpoint_mb",
                   static_cast<double>(bytes_written(before, dir_state(ckpt_dir))) /
                       (1 << 20));
        });
      }
    }
    attempt(st, [&] {
      Scope s(tr, "service.drain");
      for (auto& shard : shards) shard->flush_async();
      for (auto& shard : shards) shard->wait_idle();
    });
  }
  st.seconds = seconds_between(t0, Clock::now());

  double max_lane = 0;
  double sum_lane = 0;
  for (const double f : lane_flows) {
    max_lane = std::max(max_lane, f);
    sum_lane += f;
  }
  tr.gauge("service.shard_skew",
           sum_lane > 0 ? max_lane / (sum_lane / static_cast<double>(cfg.shards))
                        : 0.0);
  DetectOutput out;
  std::vector<classify::DetectorHealth> healths;
  for (const auto& shard : shards) {
    out.alerts.insert(out.alerts.end(), shard->alerts().begin(),
                      shard->alerts().end());
    healths.push_back(shard->health());
  }
  service::sort_alerts(out.alerts);
  out.health = service::merge_health(healths);
  tr.gauge("detector.alerts", static_cast<double>(out.alerts.size()));
  tr.gauge("detector.max_window_depth",
           static_cast<double>(out.health.max_window_depth));
  for (auto& shard : shards) shard->stop();
  if (st.reloads % 2 == 1) plane->apply_updates(read_updates(in.churn[1]));
  std::filesystem::remove_all(ckpt_dir);
  return out;
}

/// The serve-churn oracle: one one-shot StreamingDetector over the same
/// segments, with the same churn files applied at the same segment
/// boundaries. Traced, its ingest calls give detector.ingest_s.
DetectOutput serve_oracle(const Inputs& in,
                          const std::shared_ptr<classify::FlatClassifier>& plane,
                          Tracer& tr) {
  classify::StreamingParams params;
  params.simd = classify::SimdKernel::kAuto;
  classify::StreamingDetector detector(*plane, 0, params);
  DetectOutput out;
  const auto on_alert = [&out](const classify::SpoofingAlert& a) {
    out.alerts.push_back(a);
  };
  std::size_t reloads = 0;
  for (std::size_t i = 0; i < in.segments.size(); ++i) {
    const net::MappedTrace trace(in.segments[i]);
    net::MappedTraceReader reader(trace);
    net::FlowBatch batch;
    while (reader.next_batch(batch, kChunkFlows) > 0) {
      Scope s(tr, "detector.ingest");
      detector.ingest_batch(batch, on_alert);
      batch.clear();
      reader.drop_consumed();
    }
    if (reload_due(in, i)) {
      plane->apply_updates(read_updates(in.churn[reloads++ % 2]));
    }
  }
  {
    Scope s(tr, "detector.ingest");
    detector.flush(on_alert);
  }
  if (reloads % 2 == 1) plane->apply_updates(read_updates(in.churn[1]));
  service::sort_alerts(out.alerts);
  const classify::DetectorHealth h = detector.health();
  out.health = service::merge_health(std::span<const classify::DetectorHealth>(&h, 1));
  return out;
}

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Counts one checked output; a mismatch is a failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::cerr << "output check failed: " << what << "\n";
    }
  }
};

std::string result_json(const Result& r) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << '"' << r.metrics[i].name << "\": {\"value\": " << r.metrics[i].value
        << ", \"unit\": \"" << r.metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- layers

/// Per-layer metrics: (metric, span or counter, unit). A span metric is
/// the layer's self time per pass (or per set-up); a counter is per pass.
struct LayerMetric {
  const char* metric;
  const char* source;
  const char* unit;
  bool span;
};

constexpr LayerMetric kLayers[] = {
    {"bgp.read_mrt_s", "bgp.read_mrt", "s", true},
    {"bgp.table_build_s", "bgp.table_build", "s", true},
    {"data.rpsl_s", "data.rpsl", "s", true},
    {"net.member_scan_s", "net.member_scan", "s", true},
    {"inference.valid_space_s", "inference.valid_space", "s", true},
    {"classify.compile_s", "classify.compile", "s", true},
    {"classify.plane_mb", "classify.plane_mb", "MiB", false},
    {"net.decode_s", "net.decode", "s", true},
    {"net.records", "net.records", "count", false},
    {"net.mb_read", "net.mb_read", "MiB", false},
    {"classify.kernel_s", "classify.kernel", "s", true},
    {"classify.aggregate_s", "classify.aggregate", "s", true},
    {"analysis.members_s", "analysis.members", "s", true},
    {"analysis.venn_s", "analysis.venn", "s", true},
    {"analysis.ports_s", "analysis.ports", "s", true},
    {"analysis.traffic_s", "analysis.traffic", "s", true},
    {"analysis.attacks_s", "analysis.attacks", "s", true},
    {"analysis.amplification_s", "analysis.amplification", "s", true},
    {"analysis.incidents_s", "analysis.incidents", "s", true},
    {"analysis.finish_s", "analysis.finish", "s", true},
    {"analysis.evictions", "analysis.evictions", "count", false},
    {"detector.ingest_s", "detector.ingest", "s", true},
    {"detector.alerts", "detector.alerts", "count", false},
    {"detector.max_window_depth", "detector.max_window_depth", "count", false},
    {"service.route_s", "service.route", "s", true},
    {"service.shard_skew", "service.shard_skew", "ratio", false},
    {"service.enqueue_wait_s", "service.enqueue_wait", "s", true},
    {"service.barrier_wait_s", "service.barrier_wait", "s", true},
    {"service.reload_s", "service.reload", "s", true},
    {"classify.patch_s", "classify.patch", "s", true},
    {"classify.updates_applied", "classify.updates_applied", "count", false},
    {"state.checkpoint_s", "state.checkpoint", "s", true},
    {"state.checkpoint_mb", "state.checkpoint_mb", "MiB", false},
};

/// Median over the runs of `pipeline` that recorded `source`.
std::optional<double> layer_value(const std::vector<Tracer::RunSummary>& runs,
                                  const std::string& pipeline,
                                  const LayerMetric& m) {
  std::vector<double> v;
  for (const auto& r : runs) {
    if (r.pipeline != pipeline) continue;
    const auto& map = m.span ? r.self_seconds : r.counters;
    const auto it = map.find(m.source);
    if (it != map.end()) v.push_back(it->second);
  }
  if (v.empty()) return std::nullopt;
  return median(v);
}

/// Prints the budget table of `pipeline`: each layer's median self time
/// per traced pass, its share of the untraced pass, the residual the
/// layers leave unexplained and the tracing overhead. Returns the
/// residual as a share of the untraced pass.
///
/// `untraced` holds the timed untraced passes in run order. Traced pass k
/// ran between untraced passes k-1 and k (the untimed warm-up comes
/// first), so the residual and the overhead compare each traced pass with
/// the mean of its untraced neighbours and take the median over the
/// traced passes. Load from other processes, which comes and goes over
/// seconds, then falls out of both.
double print_budget(const std::string& workload,
                    const std::vector<Tracer::RunSummary>& runs,
                    const std::string& pipeline,
                    const std::vector<double>& untraced) {
  std::map<std::string, std::vector<double>> self;
  std::vector<double> residuals;
  std::vector<double> overheads;
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.pipeline != pipeline) continue;
    const std::size_t k = n++;
    double layers = 0;
    for (const auto& [name, s] : r.self_seconds) {
      self[name].push_back(s);
      if (name.rfind("pass.", 0) != 0) layers += s;
    }
    std::vector<double> around;
    if (k >= 1 && k - 1 < untraced.size()) around.push_back(untraced[k - 1]);
    if (k < untraced.size()) around.push_back(untraced[k]);
    if (around.empty()) continue;
    const double u = (around.front() + around.back()) / 2;
    residuals.push_back(u - layers);
    overheads.push_back(r.root_seconds - u);
  }
  const double untraced_s = median(untraced);
  std::printf("budget %s: %zu traced passes, untraced pass %.4f s\n",
              workload.c_str(), n, untraced_s);
  std::printf("  %-28s %12s %8s\n", "layer (self time)", "ms/pass", "share");
  for (auto& [name, v] : self) {
    const double s = median(v);
    const bool glue = name.rfind("pass.", 0) == 0;
    std::printf("  %-28s %12.3f %7.1f%%\n",
                (glue ? name + " (glue)" : name).c_str(), 1e3 * s,
                100 * s / untraced_s);
  }
  const double residual = median(residuals);
  const double share = residual / untraced_s;
  const double overhead = median(overheads);
  std::printf("  %-28s %12.3f %7.1f%%  (bound %.0f%%: %s)\n",
              "residual (untraced - layers)", 1e3 * residual, 100 * share,
              100 * kResidualBound,
              std::fabs(share) <= kResidualBound ? "ok" : "EXCEEDED");
  std::printf("  %-28s %12.3f %7.1f%%\n", "tracing overhead (T - U)",
              1e3 * overhead, 100 * overhead / untraced_s);
  const LayerMetric detector{"", "detector.ingest", "s", true};
  if (const auto busy = layer_value(runs, pipeline + ".oracle", detector)) {
    std::printf("  %-28s %12.3f %7.1f%%  (one-shot replay; on the shard "
                "threads, off this path)\n",
                "detector.ingest", 1e3 * *busy, 100 * *busy / untraced_s);
  }
  return share;
}

// ---------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::string inputs;
  std::string work;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

struct Provenance {
  std::size_t prefixes = 0;
  std::size_t members = 0;
};

/// One set-up into `ctx` (serve: to a started Server); returns its time.
double timed_setup(const Inputs& in, util::ThreadPool& pool, Tracer& tr,
                   std::unique_ptr<Context>& ctx, bool with_server,
                   const std::string& ckpt_dir) {
  ctx.reset();
  tr.begin_run("setup");
  const auto t0 = Clock::now();
  ctx = set_up(in, pool, tr);
  double seconds = seconds_between(t0, Clock::now());
  if (with_server) {
    std::filesystem::remove_all(ckpt_dir);
    service::Server server(ctx->plane, server_config(ckpt_dir, pool));
    server.start();
    seconds = seconds_between(t0, Clock::now());
    server.stop();
    std::filesystem::remove_all(ckpt_dir);
  }
  return seconds;
}

void run_workload(const Options& opt, Result& res, Provenance& prov) {
  const Inputs in = locate_inputs(opt.inputs);
  util::ThreadPool pool(1);
  Tracer tr(opt.trace);
  const bool serve = opt.workload == "serve-churn";
  const bool report = opt.workload == "report-ixp";
  if (!serve && !report && opt.workload != "classify-ixp") {
    throw std::runtime_error("unknown workload: " + opt.workload);
  }
  const std::string ckpt_dir = opt.work + "/ckpt";
  // setup_s is the median of kSetups set-ups spread evenly over the
  // measuring time: one before the first pass, each other one between
  // passes once its share of the pass time has gone by. On a shared
  // machine, load from other processes comes and goes within seconds,
  // and set-ups run back to back all fall into the same phase of it.
  // Each set-up replaces the context; every one builds the same plane.
  std::unique_ptr<Context> ctx;
  std::vector<double> setup_times;
  const auto set_up_again = [&] {
    setup_times.push_back(timed_setup(in, pool, tr, ctx, serve, ckpt_dir));
  };
  set_up_again();
  prov.prefixes = ctx->table.prefixes().size();
  prov.members = ctx->members.size();
  // Pass time so far. Passes run until it reaches the measuring time (a
  // warm-up, then at least three more) and every set-up is done.
  double measured = 0;
  const auto more_passes = [&](int i) {
    if (setup_times.size() < kSetups &&
        measured >= opt.seconds * static_cast<double>(setup_times.size()) / kSetups) {
      set_up_again();
    }
    return i < 4 || measured < opt.seconds || setup_times.size() < kSetups;
  };

  Tracer off(false);
  // The trie-Classifier oracle's aggregate, computed on first use.
  std::optional<classify::Aggregate> oracle_cache;
  const auto oracle = [&]() -> const classify::Aggregate& {
    if (!oracle_cache) oracle_cache = oracle_aggregate(*ctx, in.trace);
    return *oracle_cache;
  };
  double rss_mb = 0;
  const std::string pipeline = serve ? "serve" : report ? "report" : "classify";

  // With --trace 1, every other pass is traced. Every pass is checked;
  // the untraced ones after the warm-up are timed.
  TimedPasses timed;
  std::vector<double> untraced_s;
  if (!serve) {
    std::vector<PassResult> passes;
    for (int i = 0; more_passes(i); ++i) {
      const bool traced = opt.trace && i % 2 == 1;
      if (traced) tr.begin_run(pipeline);
      const auto p0 = Clock::now();
      PassResult p = classify_pass(*ctx, in.trace, pool, report, traced ? tr : off);
      measured += seconds_between(p0, Clock::now());
      if (!traced && i != 0) {
        // A chunk is both a step of the pass and a latency sample.
        timed.add(p.flows, p.seconds, p.chunk_ms, p.chunk_ms);
        untraced_s.push_back(p.seconds);
      }
      passes.push_back(std::move(p));
    }
    rss_mb = peak_rss_mib();
    // passes.front() is the untraced warm-up, so a traced report pass is
    // also checked against StreamingReport's own output.
    for (const auto& p : passes) {
      res.check(same_aggregate(p.aggregate, oracle()),
                "aggregate differs from the trie oracle");
      if (report) {
        res.check(p.report_digest == passes.front().report_digest,
                  "report digest differs across passes");
      }
    }
    if (opt.self_test) {
      classify::Aggregate perturbed = oracle();
      perturbed.totals[0][2].packets += 1;
      if (same_aggregate(passes.front().aggregate, perturbed)) {
        throw std::runtime_error("self-test: perturbed oracle was accepted");
      }
      std::cout << "self-test: perturbed aggregate rejected\n";
    }
  } else {
    std::vector<DetectOutput> outputs;
    std::vector<double> reload_share;
    ServeStats total;
    for (int i = 0; more_passes(i); ++i) {
      ServeStats st;
      const bool traced = opt.trace && i % 2 == 1;
      const auto p0 = Clock::now();
      if (traced) {
        tr.begin_run(pipeline);
        outputs.push_back(serve_pass_traced(in, ctx->plane, ckpt_dir, pool, tr, st));
      } else {
        outputs.push_back(serve_pass(in, ctx->plane, ckpt_dir, pool, st));
        if (i != 0) {  // pass 0 (the plane's first patch) warms up, untimed
          timed.add(st.flows, st.seconds, st.step_ms, st.latency_ms);
          untraced_s.push_back(st.seconds);
          reload_share.push_back(st.reload_seconds / st.seconds);
        }
      }
      measured += seconds_between(p0, Clock::now());
      total.attempted += st.attempted;
      total.failed += st.failed;
    }
    rss_mb = peak_rss_mib();
    std::printf("serve: %zu segments, a churn file every %zu segments, "
                "reload_updates takes %.1f%% of the pass (median)\n",
                in.segments.size(), in.reload_every, 100 * median(reload_share));
    res.attempted += total.attempted;
    res.failed += total.failed;
    if (total.failed != 0) res.correct = false;
    tr.begin_run(pipeline + ".oracle");
    const DetectOutput oracle = serve_oracle(in, ctx->plane, opt.trace ? tr : off);
    for (const auto& o : outputs) {
      res.check(o == oracle, "merged alerts/health differ from one-shot detect");
    }
    if (opt.self_test) {
      DetectOutput perturbed = oracle;
      perturbed.health.max_window_depth += 1;
      if (outputs.front() == perturbed) {
        throw std::runtime_error("self-test: perturbed detector oracle was accepted");
      }
      std::cout << "self-test: perturbed detector output rejected ("
                << oracle.alerts.size() << " alerts)\n";
    }
  }

  const double setup_s = median(setup_times);
  std::printf("set-ups: %zu, median %.6g s, fastest %.6g s, slowest %.6g s\n",
              setup_times.size(), setup_s,
              *std::min_element(setup_times.begin(), setup_times.end()),
              *std::max_element(setup_times.begin(), setup_times.end()));
  if (!opt.trace) {
    const double flows_per_s = floor_rate(timed);
    const std::vector<double> latency_ms = floors(timed.latency_ms);
    res.metrics = {
        {"setup_s", setup_s, "s"},
        {"flows_per_s", flows_per_s, "flows/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"segment_latency_p50_ms", percentile(latency_ms, 0.50), "ms"},
        {"segment_latency_p95_ms", percentile(latency_ms, 0.95), "ms"},
    };
    return;
  }

  // Layers this workload bypasses come from one ledger pass of the
  // pipeline that has them, on the same world, so every per-layer metric
  // is a measurement. Ledger passes are checked like the workload's own.
  if (pipeline != "classify") {
    tr.begin_run("ledger.classify");
    const PassResult p = classify_pass(*ctx, in.trace, pool, false, tr);
    res.check(same_aggregate(p.aggregate, oracle()),
              "ledger classify pass: aggregate differs from the trie oracle");
  }
  if (pipeline != "report") {
    tr.begin_run("ledger.report");
    const PassResult p = classify_pass(*ctx, in.trace, pool, true, tr);
    const PassResult reference = classify_pass(*ctx, in.trace, pool, true, off);
    res.check(same_aggregate(p.aggregate, oracle()),
              "ledger report pass: aggregate differs from the trie oracle");
    res.check(p.report_digest == reference.report_digest,
              "ledger report pass: report differs from StreamingReport's");
  }
  if (pipeline != "serve") {
    ServeStats st;
    tr.begin_run("ledger.serve");
    const DetectOutput out = serve_pass_traced(in, ctx->plane, ckpt_dir, pool, tr, st);
    tr.begin_run("ledger.serve.oracle");
    res.check(out == serve_oracle(in, ctx->plane, tr),
              "ledger serve pass: merged alerts/health differ from one-shot detect");
    res.attempted += st.attempted;
    res.failed += st.failed;
    if (st.failed != 0) res.correct = false;
  }
  const auto runs = tr.summarize();
  const double residual = print_budget(opt.workload, runs, pipeline, untraced_s);
  // A self-test run is too short for a steady budget: on the small world
  // it times one or two traced passes of a few hundred milliseconds.
  if (!opt.self_test) {
    res.check(std::fabs(residual) <= kResidualBound,
              "the traced layers leave a residual beyond the stated bound");
  }
  for (const auto& m : kLayers) {
    std::optional<double> v;
    for (const std::string& p :
         {std::string("setup"), pipeline, pipeline + ".oracle",
          std::string("ledger.classify"), std::string("ledger.report"),
          std::string("ledger.serve"), std::string("ledger.serve.oracle")}) {
      v = layer_value(runs, p, m);
      if (v) break;
    }
    res.metrics.push_back({m.metric, v.value_or(0.0), m.unit});
  }
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--inputs") {
      o.inputs = value;
    } else if (key == "--work") {
      o.work = value;
    } else if (key == "--seed" && util::parse_u64(value, n)) {
      o.seed = n;
      have_seed = true;
    } else if (key == "--seconds" && util::parse_u64(value, n) && n > 0) {
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
      have_trace = true;
    } else {
      throw std::runtime_error("bad argument: " + key + " " + value);
    }
  }
  if (o.workload.empty() || o.inputs.empty() || o.work.empty() || !have_seed ||
      !have_seconds || !have_trace) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload W --inputs DIR --work DIR "
        "--seed N --seconds S --trace 0|1 [--self-test]");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#if !(defined(NDEBUG) && defined(__OPTIMIZE__))
  std::cerr << "error: refusing to record numbers from a non-optimised build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  try {
    const Options opt = parse_options(argc, argv);
    std::filesystem::create_directories(opt.work);
    Result res;
    Provenance prov;
    run_workload(opt, res, prov);
    std::printf("provenance: {\"build\": \"release\", \"nproc\": %u, "
                "\"simd\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
                "\"members\": %zu, \"prefixes\": %zu}\n",
                std::thread::hardware_concurrency(),
                classify::simd_kernel_name(
                    classify::resolve_simd_kernel(classify::SimdKernel::kAuto)),
                static_cast<unsigned long long>(opt.seed), opt.workload.c_str(),
                prov.members, prov.prefixes);
    std::fflush(stdout);
    std::cout << result_json(res) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
