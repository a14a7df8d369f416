// spoofscope — command-line front end.
//
// Operates purely on files, so it works on real captured data just as on
// simulated artifacts:
//
//   spoofscope generate --out DIR [--seed N] [--threads N]
//              [--scale small|ixp|internet] [--scale-factor N] [--paper]
//       Simulate a world and write its artifacts: topology.txt,
//       ixp.trace (binary flows), route-server.mrt and collector MRT
//       feeds, registry.rpsl.
//
//   spoofscope classify --mrt FILE[,FILE...] --trace FILE
//              [--rpsl FILE] [--method METHOD] [--labels OUT.csv]
//       Build the routing view from MRT-lite feeds, infer per-member
//       valid space, compile it into the flat classification plane
//       (classify::FlatClassifier), classify every flow (Fig 3) and
//       print Table-1-style totals. METHOD is one of: naive, cc,
//       cc+org, full, full+org (default full+org). --rpsl whitelists
//       provider-assigned ranges and documented links before
//       classification (Sec 4.4).
//
//   spoofscope report --mrt FILE[,FILE...] --trace FILE [--rpsl FILE]
//              [--method METHOD] [--labels OUT.csv]
//       Full study output: Table-1-style totals, Venn, filtering
//       strategies, per-member share quantiles, traffic characteristics,
//       port mix, attack patterns and incidents. Computed in the same
//       single mmap+batch pass classify uses, via the bounded-memory
//       streaming builders (analysis::StreamingReport) — peak RSS is
//       independent of trace length.
//
//   spoofscope detect --mrt FILE[,FILE...] --trace FILE [--rpsl FILE]
//              [--window SECONDS] [--skew SECONDS] [--updates FILE]
//              [--checkpoint PATH [--checkpoint-every N]
//               [--checkpoint-delta] [--resume]]
//       Streaming detection: feed the trace through the online
//       StreamingDetector batch-at-a-time and print every alert plus the
//       detector health counters. --checkpoint persists the detector
//       state (crash-safe atomic snapshot) every N processed flows and
//       at end of stream; --resume restores it first and skips the
//       already-processed records, so a killed run continues with
//       bit-identical alerts and health. --updates plays an MRT-lite
//       announce/withdraw stream into the compiled plane as the trace
//       advances — route churn patches the plane in place
//       (FlatClassifier::apply_updates) instead of recompiling, and
//       checkpoints record the update cursor so a resumed run replays
//       the plane to the exact cut. --checkpoint-delta chains small
//       delta checkpoints off the last full snapshot instead of
//       rewriting the whole state every interval.
//
//   spoofscope serve --mrt FILE[,FILE...] --trace FILE --socket PATH
//              [--rpsl FILE] [--shards N] [--window SECONDS]
//              [--skew SECONDS] [--checkpoint-dir DIR]
//              [--checkpoint-every N] [--resume]
//       Resident multi-vantage detection service: one shared compiled
//       plane, N ingest shards (flows routed by member AS), per-shard
//       delta-checkpoint chains, and a Unix-domain control socket
//       accepting submit/health/stats-json/alerts/checkpoint/
//       reload-updates/drain/shutdown (see src/service/control.hpp for
//       the protocol grammar). --trace here seeds the member universe
//       the valid spaces are built for; traffic arrives via `submit`.
//
// All readers honour --on-error strict|skip: strict (default) fails on
// the first malformed record; skip quarantines bad records, prints an
// ingest report, and analyses the surviving records. The trace is
// mmapped (net::MappedTrace) and decoded into reused SoA batches
// (net::FlowBatch), so classify never materializes the whole trace in
// memory and never copies record bytes. --stats-json PATH writes the
// per-source IngestStats (and, for detect, the DetectorHealth) as JSON
// for monitoring pipelines. Every command rejects flags it does not
// read.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "analysis/streaming.hpp"
#include "bgp/mrt_lite.hpp"
#include "bgp/simulator.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
#include "data/rpsl.hpp"
#include "inference/builder.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace.hpp"
#include "scenario/scenario.hpp"
#include "service/merge.hpp"
#include "service/server.hpp"
#include "state/delta_chain.hpp"
#include "topo/serialize.hpp"
#include "util/error_policy.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spoofscope;

/// Flows classified per streaming chunk: large enough to amortize the
/// thread-pool fan-out, small enough to keep classify at a few MiB of
/// flow/label memory regardless of trace size.
constexpr std::size_t kChunkFlows = 1u << 17;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  spoofscope generate --out DIR [--seed N] [--threads N]\n"
      "                      [--scale small|ixp|internet] [--scale-factor N]\n"
      "                      [--paper]\n"
      "  spoofscope classify --mrt FILES --trace FILE [--rpsl FILE]\n"
      "                      [--method naive|cc|cc+org|full|full+org]\n"
      "                      [--labels OUT.csv] [--threads N]\n"
      "                      [--simd auto|avx2|neon|scalar]\n"
      "                      [--on-error strict|skip] [--stats-json PATH]\n"
      "  spoofscope report   --mrt FILES --trace FILE [--rpsl FILE]\n"
      "                      [--method naive|cc|cc+org|full|full+org]\n"
      "                      [--labels OUT.csv] [--threads N]\n"
      "                      [--simd auto|avx2|neon|scalar]\n"
      "                      [--on-error strict|skip] [--stats-json PATH]\n"
      "  spoofscope detect   --mrt FILES --trace FILE [--rpsl FILE]\n"
      "                      [--method naive|cc|cc+org|full|full+org]\n"
      "                      [--window SECONDS] [--skew SECONDS]\n"
      "                      [--threads N]\n"
      "                      [--updates FILE]\n"
      "                      [--simd auto|avx2|neon|scalar]\n"
      "                      [--checkpoint PATH] [--checkpoint-every N]\n"
      "                      [--checkpoint-delta] [--resume]\n"
      "                      [--on-error strict|skip] [--stats-json PATH]\n"
      "  spoofscope serve    --mrt FILES --trace FILE --socket PATH\n"
      "                      [--rpsl FILE] [--shards N]\n"
      "                      [--method naive|cc|cc+org|full|full+org]\n"
      "                      [--window SECONDS] [--skew SECONDS]\n"
      "                      [--threads N]\n"
      "                      [--simd auto|avx2|neon|scalar]\n"
      "                      [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "                      [--resume] [--on-error strict|skip]\n"
      "\n"
      "Each command accepts only the flags listed for it; any other flag\n"
      "is a usage error.\n"
      "classify, report, detect and serve compile the routing view and\n"
      "valid spaces into the DIR-24-8 flat classification plane (O(1)\n"
      "per-flow lookups) before classifying.\n"
      "--threads N runs valid-space construction and classification on N\n"
      "worker threads (0 = hardware concurrency, default 1 = sequential);\n"
      "results are identical for every N.\n"
      "--scale picks the generated world: small (laptop-quick, default),\n"
      "ixp (the paper-scale vantage, alias --paper) or internet (~80K\n"
      "ASes, ~1M announced prefixes; defaults --threads to hardware\n"
      "concurrency and takes minutes of CPU). --scale-factor N divides\n"
      "the AS population by N — e.g. a sanitizer run exercising every\n"
      "chunk-parallel code path at affordable cost.\n"
      "--simd selects the SIMD kernel of trace decoding, of the plane's\n"
      "batch classification and of report's packet-size sketch alike\n"
      "(default auto = best this build + CPU supports; decode and the\n"
      "sketch have no neon kernel and run scalar under it).\n"
      "Kernels are bit-identical; the knob changes throughput only.\n"
      "Requesting a kernel this host cannot run is an error, not a silent\n"
      "fallback.\n"
      "--on-error skip quarantines malformed MRT lines, RPSL objects and\n"
      "corrupt trace records instead of aborting, prints an ingest report\n"
      "and analyses the surviving records (default: strict).\n"
      "--stats-json PATH writes per-source ingest statistics (and, for\n"
      "detect, the detector health counters) as JSON.\n"
      "--window and --skew (detect, serve) take seconds in\n"
      "[0, 4294967295].\n"
      "--checkpoint PATH (detect) saves the detector state atomically\n"
      "every --checkpoint-every N flows (N > 0; and at end of stream);\n"
      "--resume restores PATH first and skips the already-processed\n"
      "records, so a restarted run produces the same alerts and health as\n"
      "an uninterrupted one.\n"
      "--checkpoint-delta (detect) writes small delta checkpoints\n"
      "(PATH.d1, PATH.d2, ...) chained off the last full snapshot instead\n"
      "of rewriting the whole state every interval; each link carries its\n"
      "parent's digest, and --resume replays the chain to the newest\n"
      "consistent cut (strict refuses a broken chain, skip truncates it).\n"
      "--updates FILE (detect) streams MRT-lite UPDATE lines into the\n"
      "compiled plane as the trace plays: every announce or withdraw with\n"
      "a timestamp <= the next flow's is patched into the plane in place\n"
      "before that flow is classified. Checkpoints record the update\n"
      "cursor, so a resumed run replays the already-applied updates and\n"
      "continues on a bit-identical plane.\n"
      "serve runs the detection pipeline as a resident daemon: --shards N\n"
      "(1..4096, default 1) ingest shards each own a StreamingDetector;\n"
      "flows route to shards by member AS, so N does not change the\n"
      "alerts — any shard count reproduces the one-shot detect output.\n"
      "All shards share one compiled plane, which reload-updates patches\n"
      "in place.\n"
      "--socket PATH is the Unix-domain control socket (submit TRACE,\n"
      "health, stats-json, alerts, checkpoint, reload-updates MRT, drain,\n"
      "shutdown). --checkpoint-dir DIR keeps one delta-checkpoint chain\n"
      "per shard (shard-<i>-of-<n>.ckpt) every --checkpoint-every flows;\n"
      "--resume restores the chains on startup for rolling restart.\n";
  std::exit(error.empty() ? 0 : 2);
}

using Flags = std::map<std::string, std::string>;

/// Parses `--key value` pairs (and the valueless switches). Only the
/// flags in `known` — the ones the command reads — are accepted: any
/// other flag is a usage error naming it, instead of being stored and
/// silently ignored.
Flags parse_flags(int argc, char** argv, int from, const std::string& cmd,
                  const std::set<std::string>& known) {
  Flags flags;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
    key = key.substr(2);
    if (!known.count(key)) usage("unknown flag for " + cmd + ": --" + key);
    if (key == "paper" || key == "resume" || key == "checkpoint-delta") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      usage("missing value for --" + key);
    }
  }
  return flags;
}

/// Strictly parsed non-negative integer flag; anything else (garbage,
/// negative, trailing junk) is a usage error rather than a silent 0.
std::uint64_t u64_flag(const Flags& flags, const std::string& key,
                       std::uint64_t fallback) {
  if (!flags.count(key)) return fallback;
  std::uint64_t value = 0;
  if (!util::parse_u64(flags.at(key), value)) {
    usage("--" + key + " expects a non-negative integer, got: '" +
          flags.at(key) + "'");
  }
  return value;
}

/// u64_flag for 32-bit settings: a value above UINT32_MAX is a usage
/// error, not a silent wrap-around.
std::uint32_t u32_flag(const Flags& flags, const std::string& key,
                       std::uint32_t fallback) {
  const std::uint64_t value = u64_flag(flags, key, fallback);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    usage("--" + key + " expects an integer in [0, 4294967295], got: '" +
          flags.at(key) + "'");
  }
  return static_cast<std::uint32_t>(value);
}

std::size_t threads_from(const Flags& flags) {
  return static_cast<std::size_t>(u64_flag(flags, "threads", 1));
}

classify::SimdKernel simd_from(const Flags& flags) {
  if (!flags.count("simd")) return classify::SimdKernel::kAuto;
  const auto kernel = classify::parse_simd_kernel(flags.at("simd"));
  if (!kernel) usage("unknown simd kernel: " + flags.at("simd"));
  if (!classify::simd_kernel_usable(*kernel)) {
    usage("simd kernel not usable on this host: " + flags.at("simd"));
  }
  return *kernel;
}

util::ErrorPolicy policy_from(const Flags& flags) {
  if (!flags.count("on-error")) return util::ErrorPolicy::kStrict;
  const auto& name = flags.at("on-error");
  if (name == "strict") return util::ErrorPolicy::kStrict;
  if (name == "skip") return util::ErrorPolicy::kSkip;
  usage("--on-error expects 'strict' or 'skip', got: '" + name + "'");
}

inference::Method method_from(const std::string& name) {
  if (name == "naive") return inference::Method::kNaive;
  if (name == "cc") return inference::Method::kCustomerCone;
  if (name == "cc+org") return inference::Method::kCustomerConeOrg;
  if (name == "full") return inference::Method::kFullCone;
  if (name == "full+org") return inference::Method::kFullConeOrg;
  usage("unknown method: " + name);
}

/// One line per ingested source, printed in skip mode (or whenever
/// records were actually dropped).
void print_ingest(const std::string& source, const util::IngestStats& stats) {
  std::cout << "ingest: " << source << ": " << stats.summary() << "\n";
}

/// Ingest accounting for every source touched by a command, in ingest
/// order, for the --stats-json report.
using SourceStats = std::vector<std::pair<std::string, util::IngestStats>>;

/// Escapes a path for embedding in a JSON string literal.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

/// Opens an output file, failing loudly instead of silently writing to a
/// bad stream.
std::ofstream open_output(const std::string& path,
                          std::ios::openmode mode = std::ios::out) {
  std::ofstream out(path, mode);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

/// Flush-and-verify before declaring an artifact written.
void finish_output(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out) throw std::runtime_error("write failure on output file: " + path);
}

/// Writes the --stats-json document: every ingested source's stats plus
/// (detect) the detector health and (report) the streaming-report
/// summary.
void write_stats_json(const std::string& path, const SourceStats& sources,
                      const classify::DetectorHealth* health,
                      const analysis::ReportResult* report = nullptr) {
  auto out = open_output(path);
  out << "{\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"path\":\"" << json_escape(sources[i].first)
        << "\",\"stats\":" << util::to_json(sources[i].second) << '}';
  }
  out << ']';
  if (health != nullptr) out << ",\"detector\":" << classify::to_json(*health);
  if (report != nullptr) {
    out << ",\"report\":{\"flows\":" << report->flows
        << ",\"members\":" << report->member_counts.size()
        << ",\"incidents\":" << report->incidents.size()
        << ",\"ntp_trigger_packets\":" << report->ntp.trigger_packets
        << ",\"evictions\":" << report->evictions << '}';
  }
  out << "}\n";
  finish_output(out, path);
}

/// The routing-side inputs for classify/report.
struct RoutingInputs {
  bgp::RoutingTable table;
  std::optional<data::WhoisRegistry> whois;
};

RoutingInputs load_routing(const Flags& flags,
                           util::ErrorPolicy policy, SourceStats& sources) {
  if (!flags.count("mrt")) usage("--mrt is required");

  RoutingInputs inputs;
  bgp::RoutingTableBuilder builder;
  for (const auto part : util::split(flags.at("mrt"), ',')) {
    std::ifstream in{std::string(part)};
    if (!in) usage("cannot open MRT file: " + std::string(part));
    util::IngestStats stats;
    builder.ingest(bgp::read_mrt(in, policy, &stats));
    if (!stats.clean()) print_ingest(std::string(part), stats);
    sources.emplace_back(std::string(part), stats);
  }
  inputs.table = builder.build();

  if (flags.count("rpsl")) {
    std::ifstream rin(flags.at("rpsl"));
    if (!rin) usage("cannot open RPSL file: " + flags.at("rpsl"));
    util::IngestStats stats;
    inputs.whois =
        data::registry_from_rpsl(data::parse_rpsl(rin, policy, &stats));
    if (!stats.clean()) print_ingest(flags.at("rpsl"), stats);
    sources.emplace_back(flags.at("rpsl"), stats);
  }
  return inputs;
}

int cmd_generate(const Flags& flags) {
  if (!flags.count("out")) usage("--out is required");
  const std::string dir = flags.at("out");
  std::filesystem::create_directories(dir);

  scenario::ScenarioParams params = scenario::ScenarioParams::small();
  std::string scale = flags.count("paper") ? "ixp" : "small";
  if (flags.count("scale")) scale = flags.at("scale");
  if (scale == "ixp" || scale == "paper") {
    params = scenario::ScenarioParams::paper();
  } else if (scale == "internet") {
    params = scenario::ScenarioParams::internet();
  } else if (scale != "small") {
    usage("unknown scale: " + scale);
  }
  if (flags.count("scale-factor")) {
    const std::uint64_t f = u64_flag(flags, "scale-factor", 1);
    if (f == 0) usage("--scale-factor must be positive");
    auto& t = params.topology;
    t.num_tier1 = std::max<std::size_t>(1, t.num_tier1 / f);
    t.num_transit = t.num_transit / f;
    t.num_isp = t.num_isp / f;
    t.num_hosting = t.num_hosting / f;
    t.num_content = t.num_content / f;
    t.num_other = t.num_other / f;
    params.ixp.member_count =
        std::max<std::size_t>(1, params.ixp.member_count / f);
  }
  params.seed = u64_flag(flags, "seed", params.seed);
  if (flags.count("threads")) params.threads = threads_from(flags);
  const auto world = scenario::build_scenario(params);

  {
    auto out = open_output(dir + "/topology.txt");
    topo::write_topology(out, world->topology());
    finish_output(out, dir + "/topology.txt");
  }
  {
    auto out = open_output(dir + "/ixp.trace", std::ios::out | std::ios::binary);
    net::write_trace(out, world->trace());
    finish_output(out, dir + "/ixp.trace");
  }
  {
    // Streamed chunk-at-a-time (never holds internet-scale route state)
    // and fanned over the scenario's pool.
    const bgp::Simulator sim(world->topology());
    const auto plan =
        bgp::make_announcement_plan(world->topology(), params.plan,
                                    params.seed ^ 0xb1a);
    std::vector<bgp::CollectorSpec> specs(1);
    specs[0].name = "ixp-route-server";
    specs[0].feeders = world->ixp().route_server_feeders();
    specs[0].full_feed = false;
    auto out = open_output(dir + "/route-server.mrt");
    bgp::propagate_collect(
        sim, plan, specs, world->pool(),
        [&out](std::size_t, const bgp::MrtRecord& r) {
          std::visit(
              [&out](const auto& rec) { out << bgp::to_mrt_line(rec) << '\n'; },
              r);
        });
    finish_output(out, dir + "/route-server.mrt");
  }
  {
    auto out = open_output(dir + "/registry.rpsl");
    out << data::registry_to_rpsl(world->whois());
    finish_output(out, dir + "/registry.rpsl");
  }
  std::cout << "wrote topology.txt, ixp.trace, route-server.mrt, registry.rpsl"
            << " to " << dir << "\n"
            << "  " << world->topology().as_count() << " ASes, "
            << world->ixp().member_count() << " members, "
            << world->trace().flows.size() << " sampled flows\n";
  return 0;
}

/// Distinct ASNs: one open-addressed array (Fibonacci hashing, linear
/// probing, load <= 1/2) where kNoAsn marks a free slot and a flag holds
/// kNoAsn itself. A flow costs one probe, not a tree insert; sorted()
/// orders the few distinct keys once at the end.
class AsnSet {
 public:
  void insert(net::Asn asn) {
    if (asn == net::kNoAsn) {
      has_no_asn_ = true;
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = home(asn);
    while (slots_[s] != net::kNoAsn) {
      if (slots_[s] == asn) return;
      s = (s + 1) & mask;
    }
    slots_[s] = asn;
    ++size_;
  }

  std::vector<net::Asn> sorted() const {
    std::vector<net::Asn> out;
    out.reserve(size_ + 1);
    if (has_no_asn_) out.push_back(net::kNoAsn);
    for (const net::Asn a : slots_) {
      if (a != net::kNoAsn) out.push_back(a);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::size_t home(net::Asn asn) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(asn) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void grow() {
    std::vector<net::Asn> old(std::max<std::size_t>(64, 2 * slots_.size()),
                              net::kNoAsn);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const net::Asn a : old) {
      if (a != net::kNoAsn) insert(a);
    }
  }

  std::vector<net::Asn> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  bool has_no_asn_ = false;
};

/// First pass over the mapped trace: the distinct injecting members
/// (needed to build valid spaces) without materializing the flows.
/// A strict-mode throw mid-trace is deliberately swallowed here (after
/// harvesting the partial batch): the members of the clean prefix are
/// exactly the members the main ingest loop will see before it aborts
/// at the same damage, and that loop owns the error reporting — so
/// detect can still emit its health line and stats for the records that
/// were delivered. Header validation stays loud (reader construction is
/// outside the catch): an unusable trace aborts everything.
std::vector<net::Asn> scan_members(const net::MappedTrace& trace,
                                   util::ErrorPolicy policy,
                                   classify::SimdKernel simd) {
  net::MappedTraceReader reader(trace, policy, nullptr, simd);
  net::FlowBatch batch;
  AsnSet members;
  try {
    while (reader.next_batch(batch, kChunkFlows) > 0) {
      for (const net::Asn m : batch.member_in()) members.insert(m);
      batch.clear();
      reader.drop_consumed();
    }
  } catch (const std::exception&) {
    for (const net::Asn m : batch.member_in()) members.insert(m);
  }
  return members.sorted();
}

/// Everything classify/report/detect/serve share: the routing view
/// (which the plane points into — keep them together), the injecting
/// members, and the plane compiled from the valid spaces with the RPSL
/// whitelist applied.
struct ClassifyContext {
  RoutingInputs routing;
  std::vector<net::Asn> members;
  inference::Method method = inference::Method::kFullConeOrg;
  std::shared_ptr<classify::FlatClassifier> plane;
};

void build_context(const Flags& flags,
                   util::ErrorPolicy policy, const net::MappedTrace& trace,
                   util::ThreadPool& pool, SourceStats& sources,
                   ClassifyContext& ctx) {
  ctx.routing = load_routing(flags, policy, sources);
  ctx.method = method_from(
      flags.count("method") ? flags.at("method") : std::string("full+org"));
  ctx.members = scan_members(trace, policy, simd_from(flags));

  // The trie Classifier is only the compile input: the plane shares its
  // valid spaces and points at the routing view, not at it.
  inference::ValidSpaceFactory factory(ctx.routing.table, asgraph::OrgMap{});
  std::vector<inference::ValidSpace> spaces;
  spaces.push_back(factory.build(ctx.method, ctx.members, pool));
  classify::Classifier classifier(ctx.routing.table, std::move(spaces));

  // RPSL whitelist (Sec 4.4) applied up front.
  if (ctx.routing.whois) {
    auto& space = classifier.mutable_space(0);
    for (const net::Asn m : ctx.members) {
      std::vector<net::Prefix> extra =
          ctx.routing.whois->provider_assigned_of(m);
      if (!extra.empty()) {
        space.extend(m, trie::IntervalSet::from_prefixes(extra));
      }
    }
  }

  // The plane is compiled after the RPSL whitelist so the extend()ed
  // spaces are baked in.
  ctx.plane = std::make_shared<classify::FlatClassifier>(
      classify::FlatClassifier::compile(classifier, pool));
}

int cmd_classify(const Flags& flags, bool report) {
  if (!flags.count("trace")) usage("--trace is required");
  const auto policy = policy_from(flags);
  const std::string trace_path = flags.at("trace");
  const net::MappedTrace trace(trace_path);

  util::ThreadPool pool(threads_from(flags));
  const classify::SimdKernel simd = simd_from(flags);
  SourceStats sources;
  ClassifyContext ctx;
  build_context(flags, policy, trace, pool, sources, ctx);

  std::optional<std::ofstream> labels_out;
  if (flags.count("labels")) {
    labels_out.emplace(open_output(flags.at("labels")));
    *labels_out << "ts,src,dst,member,class\n";
  }

  // Second pass over the mapping: classify and aggregate batch-at-a-time
  // (SoA lanes and the label buffer are reused across batches). `report`
  // feeds the same batches to the bounded-memory streaming builders
  // instead of materializing flows: every analysis is incremental, so
  // peak RSS is independent of trace length.
  util::IngestStats trace_stats;
  net::MappedTraceReader reader(trace, policy, &trace_stats, simd);
  classify::AggregateBuilder builder(ctx.plane->space_count());
  std::optional<analysis::StreamingReport> streaming;
  if (report) {
    analysis::ReportOptions opts;
    opts.limits = analysis::ReportLimits::production();
    opts.simd = simd;
    streaming.emplace(ctx.plane->space_count(), opts);
  }
  net::FlowBatch batch;
  std::vector<classify::Label> labels;
  std::uint64_t flow_count = 0;
  while (reader.next_batch(batch, kChunkFlows) > 0) {
    labels.resize(batch.size());
    ctx.plane->classify_batch(batch, labels, pool, simd);
    if (streaming) {
      streaming->add(batch, labels);
    } else {
      builder.add(batch, labels);
    }
    flow_count += batch.size();
    reader.drop_consumed();
    if (labels_out) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto f = batch.record(i);
        *labels_out << f.ts << ',' << f.src.str() << ',' << f.dst.str() << ','
                    << f.member_in << ','
                    << classify::class_name(
                           classify::Classifier::unpack(labels[i], 0))
                    << '\n';
      }
    }
  }
  if (!trace_stats.clean()) print_ingest(trace_path, trace_stats);
  sources.emplace_back(trace_path, trace_stats);

  // Totals (report: from the streaming pass's own aggregate).
  std::optional<analysis::ReportResult> result;
  if (streaming) result = streaming->finish();
  const auto agg = result ? result->aggregate : builder.build();
  std::cout << "classified " << flow_count << " flows from "
            << ctx.members.size() << " members under "
            << inference::method_name(ctx.method) << " (routing view: "
            << ctx.routing.table.prefixes().size() << " prefixes)\n\n";
  static const char* kClassNames[] = {"Bogon", "Unrouted", "Invalid", "Valid"};
  for (int c = 0; c < classify::kNumClasses; ++c) {
    const auto& cell = agg.totals[0][c];
    // A trace with no packets (header only, or every record skipped)
    // has a 0% share in every class.
    const double share =
        agg.total_packets > 0 ? cell.packets / agg.total_packets : 0.0;
    std::cout << "  " << util::pad_right(kClassNames[c], 9)
              << util::pad_left(std::to_string(cell.members) + " members", 14)
              << util::pad_left(util::human_count(cell.packets) + " pkts", 15)
              << util::pad_left(util::percent(share), 10)
              << util::pad_left(util::human_bytes(cell.bytes), 12) << "\n";
  }

  if (labels_out) {
    finish_output(*labels_out, flags.at("labels"));
    std::cout << "\nper-flow labels written to " << flags.at("labels") << "\n";
  }

  if (result) {
    // All analyses come out of the one streaming pass (no IXP metadata
    // available from files: member types default to Other).
    std::cout << "\n" << analysis::format_report(*result);
  }

  if (flags.count("stats-json")) {
    write_stats_json(flags.at("stats-json"), sources, nullptr,
                     result ? &*result : nullptr);
    std::cout << "\ningest stats written to " << flags.at("stats-json") << "\n";
  }
  return 0;
}

int cmd_detect(const Flags& flags) {
  if (!flags.count("trace")) usage("--trace is required");
  const auto policy = policy_from(flags);
  const std::string trace_path = flags.at("trace");
  const net::MappedTrace trace(trace_path);

  util::ThreadPool pool(threads_from(flags));
  SourceStats sources;
  ClassifyContext ctx;
  build_context(flags, policy, trace, pool, sources, ctx);

  classify::StreamingParams params;
  params.window_seconds = u32_flag(flags, "window", params.window_seconds);
  params.reorder_skew_seconds = u32_flag(flags, "skew", 0);
  params.simd = simd_from(flags);
  classify::StreamingDetector detector(*ctx.plane, 0, params);

  const std::string ckpt =
      flags.count("checkpoint") ? flags.at("checkpoint") : std::string();
  const std::uint64_t ckpt_every = u64_flag(flags, "checkpoint-every", 0);
  if (flags.count("checkpoint-every") && ckpt_every == 0) {
    usage("--checkpoint-every must be > 0, got: '" +
          flags.at("checkpoint-every") + "'");
  }
  const bool resume = flags.count("resume") != 0;
  const bool delta_mode = flags.count("checkpoint-delta") != 0;
  if (ckpt.empty() && (ckpt_every != 0 || resume || delta_mode)) {
    usage("--checkpoint-every/--checkpoint-delta/--resume require --checkpoint");
  }

  // --updates: a route-churn feed patched into the compiled plane as the
  // trace plays. Loaded up front (update streams are small next to
  // traces); stably sorted by timestamp so the firing rule below is a
  // pure function of (updates, flow timestamps).
  std::vector<bgp::UpdateMessage> updates;
  if (flags.count("updates")) {
    std::ifstream uin(flags.at("updates"));
    if (!uin) usage("cannot open updates file: " + flags.at("updates"));
    util::IngestStats ustats;
    std::size_t rib_lines = 0;
    for (auto& rec : bgp::read_mrt(uin, policy, &ustats)) {
      if (auto* u = std::get_if<bgp::UpdateMessage>(&rec)) {
        updates.push_back(*u);
      } else {
        ++rib_lines;  // TABLE_DUMP lines carry no churn; ignored
      }
    }
    std::stable_sort(updates.begin(), updates.end(),
                     [](const bgp::UpdateMessage& a, const bgp::UpdateMessage& b) {
                       return a.timestamp < b.timestamp;
                     });
    std::cout << "updates: " << updates.size() << " route updates from "
              << flags.at("updates");
    if (rib_lines != 0) std::cout << " (" << rib_lines << " rib lines ignored)";
    std::cout << "\n";
    if (!ustats.clean()) print_ingest(flags.at("updates"), ustats);
    sources.emplace_back(flags.at("updates"), ustats);
  }
  classify::FlatClassifier::UpdateApplyOptions uopts;
  uopts.pool = &pool;
  std::uint64_t ucursor = 0;  ///< updates already applied to the plane

  std::optional<state::DeltaChain> chain;
  if (!ckpt.empty() && delta_mode) chain.emplace(ckpt);

  // Resuming restores the detector then fast-forwards the trace past
  // the flows the checkpoint already processed. Skip-mode survivor
  // selection is a pure function of the input bytes, so the records
  // skipped here are exactly the records the checkpointed run ingested.
  std::uint64_t skip_records = 0;
  if (resume) {
    classify::DetectorCheckpointExtra extra;
    bool restored = false;
    if (chain) {
      util::IngestStats ckpt_stats;
      const state::DeltaResume res = chain->resume(detector, policy, &ckpt_stats);
      restored = res.restored;
      extra = res.extra;
      if (restored) {
        std::cout << "resume: restored detector state ("
                  << detector.processed() << " flows processed, "
                  << res.deltas_applied << " delta links) from " << ckpt
                  << "\n";
      } else {
        std::cout << "resume: no usable checkpoint chain at " << ckpt
                  << ", starting fresh\n";
      }
      if (res.deltas_dropped != 0) {
        std::cout << "resume: dropped " << res.deltas_dropped
                  << " damaged or stale delta links\n";
      }
      if (!ckpt_stats.clean()) print_ingest(ckpt, ckpt_stats);
      sources.emplace_back(ckpt, ckpt_stats);
    } else if (std::filesystem::exists(ckpt)) {
      util::IngestStats ckpt_stats;
      restored = detector.restore(ckpt, policy, &ckpt_stats, &extra);
      if (restored) {
        std::cout << "resume: restored detector state ("
                  << detector.processed() << " flows processed) from " << ckpt
                  << "\n";
      } else {
        std::cout << "resume: checkpoint unusable, starting fresh\n";
      }
      if (!ckpt_stats.clean()) print_ingest(ckpt, ckpt_stats);
      sources.emplace_back(ckpt, ckpt_stats);
    } else {
      std::cout << "resume: no checkpoint at " << ckpt
                << ", starting fresh\n";
    }
    if (restored) {
      skip_records = detector.processed();
      // Replay the plane to the cut: the checkpoint's update cursor says
      // how many updates the interrupted run had applied. Presence
      // semantics make one batched replay equivalent to the original
      // one-at-a-time application.
      if (extra.updates_applied != 0) {
        if (extra.updates_applied > updates.size()) {
          throw std::runtime_error(
              "checkpoint is ahead of the --updates stream (cursor " +
              std::to_string(extra.updates_applied) + " of " +
              std::to_string(updates.size()) + " updates)");
        }
        ctx.plane->apply_updates(
            std::span<const bgp::UpdateMessage>(updates).first(
                extra.updates_applied),
            uopts);
        ucursor = extra.updates_applied;
        std::cout << "resume: replayed " << ucursor
                  << " route updates into the plane\n";
      }
    }
  }

  std::uint64_t alert_count = 0;
  const auto on_alert = [&alert_count](const classify::SpoofingAlert& a) {
    ++alert_count;
    std::cout << service::format_alert(a) << "\n";
  };

  util::IngestStats trace_stats;
  net::MappedTraceReader reader(trace, policy, &trace_stats, params.simd);
  net::FlowBatch batch;
  std::uint64_t last_saved = detector.processed();
  // Applies every not-yet-applied update with timestamp <= ts (one
  // apply_updates call per trigger point: the firing points, and hence
  // the plane every flow sees, are a pure function of the update and
  // flow timestamp sequences — identical for resumed and uninterrupted
  // runs).
  const auto fire_updates_through = [&](std::uint32_t ts) {
    const std::uint64_t begin = ucursor;
    while (ucursor < updates.size() && updates[ucursor].timestamp <= ts) {
      ++ucursor;
    }
    if (ucursor != begin) {
      ctx.plane->apply_updates(
          std::span<const bgp::UpdateMessage>(updates).subspan(
              begin, ucursor - begin),
          uopts);
    }
  };
  const auto save_checkpoint = [&] {
    const classify::DetectorCheckpointExtra extra{ucursor,
                                                  ctx.plane->epoch()};
    if (chain) {
      chain->append(detector, extra);
    } else {
      detector.save(ckpt, extra);
    }
  };
  // Ingests one decoded batch: skips what is left of the resume prefix,
  // then fires due updates and ingests. The main loop and the
  // strict-abort path both go through here, so they cannot drift.
  const auto ingest = [&](const net::FlowBatch& b) {
    std::size_t start = 0;
    if (skip_records > 0) {
      start = static_cast<std::size_t>(
          std::min<std::uint64_t>(skip_records, b.size()));
      skip_records -= start;
    }
    if (start == 0 && ucursor >= updates.size()) {
      detector.ingest_batch(b, on_alert);
      return;
    }
    // Per-record path: live route churn interleaves with the flows (and
    // a resume fast-forward may start mid-batch).
    for (std::size_t i = start; i < b.size(); ++i) {
      const net::FlowRecord rec = b.record(i);
      if (ucursor < updates.size()) fire_updates_through(rec.ts);
      detector.ingest(rec, on_alert);
    }
  };
  // An ingest abort (--on-error strict hitting damage) must not swallow
  // the partial detector state: catch it, emit the health line, the
  // checkpoint and the --stats-json report, then rethrow so the exit
  // code and error: line are unchanged.
  bool aborted = false;
  std::string abort_reason;
  try {
    while (reader.next_batch(batch, kChunkFlows) > 0) {
      ingest(batch);
      batch.clear();  // records not yet ingested stay visible to the catch
      reader.drop_consumed();
      if (!ckpt.empty() && ckpt_every != 0 &&
          detector.processed() - last_saved >= ckpt_every) {
        save_checkpoint();
        last_saved = detector.processed();
      }
    }
    detector.flush(on_alert);
  } catch (const std::exception& e) {
    // A strict-mode throw mid-batch leaves the records decoded before
    // the damage in the batch; ingest them so the reported state covers
    // everything the reader actually delivered.
    ingest(batch);
    aborted = true;
    abort_reason = e.what();
  }
  // The end-of-stream (or last-consistent-state) checkpoint.
  if (!ckpt.empty()) save_checkpoint();
  if (!trace_stats.clean()) print_ingest(trace_path, trace_stats);
  sources.emplace_back(trace_path, trace_stats);

  // The one-shot run is the single-shard case of the service merge: a
  // one-element merge_health is the identity, and routing the health
  // line and --stats-json through the same service::merge code path
  // keeps the schema bit-identical between `detect` and `serve`.
  const classify::DetectorHealth shard_health = detector.health();
  const classify::DetectorHealth health = service::merge_health(
      std::span<const classify::DetectorHealth>(&shard_health, 1));
  std::cout << "detect: " << detector.processed() << " flows from "
            << ctx.members.size() << " members, " << alert_count
            << " alerts (window " << params.window_seconds << "s, skew "
            << params.reorder_skew_seconds << "s)\n"
            << service::format_health(health) << "\n";

  if (flags.count("stats-json")) {
    write_stats_json(flags.at("stats-json"), sources, &health);
    std::cout << "stats written to " << flags.at("stats-json") << "\n";
  }
  if (aborted) throw std::runtime_error(abort_reason);
  return 0;
}

int cmd_serve(const Flags& flags) {
  if (!flags.count("trace")) {
    usage("--trace is required (it seeds the member universe the valid "
          "spaces are built for)");
  }
  if (!flags.count("socket")) usage("--socket is required");
  const std::uint64_t shards = u64_flag(flags, "shards", 1);
  if (flags.count("shards") && (shards == 0 || shards > 4096)) {
    usage("--shards must be between 1 and 4096, got: '" + flags.at("shards") +
          "'");
  }
  const auto policy = policy_from(flags);
  const net::MappedTrace trace(flags.at("trace"));

  util::ThreadPool pool(threads_from(flags));
  SourceStats sources;
  ClassifyContext ctx;
  build_context(flags, policy, trace, pool, sources, ctx);

  service::ServerConfig scfg;
  scfg.shards = static_cast<std::size_t>(shards);
  scfg.params.window_seconds =
      u32_flag(flags, "window", scfg.params.window_seconds);
  scfg.params.reorder_skew_seconds = u32_flag(flags, "skew", 0);
  scfg.params.simd = simd_from(flags);
  scfg.policy = policy;
  scfg.pool = &pool;
  if (flags.count("checkpoint-dir")) {
    scfg.checkpoint_dir = flags.at("checkpoint-dir");
  }
  scfg.checkpoint_every = u64_flag(flags, "checkpoint-every", 0);
  if (flags.count("checkpoint-every") && scfg.checkpoint_every == 0) {
    usage("--checkpoint-every must be > 0, got: '" +
          flags.at("checkpoint-every") + "'");
  }
  scfg.resume = flags.count("resume") != 0;
  if (scfg.checkpoint_dir.empty() &&
      (scfg.checkpoint_every != 0 || scfg.resume)) {
    usage("--checkpoint-every/--resume require --checkpoint-dir");
  }

  // Every shard classifies against the one compiled plane, which
  // reload-updates patches in place.
  service::Server server(std::move(ctx.plane), scfg);

  const auto info = server.start();
  if (scfg.resume) {
    if (info.shards_restored != 0) {
      std::cout << "resume: restored " << info.shards_restored
                << " shard chains (" << info.flows << " flows processed) from "
                << scfg.checkpoint_dir << "\n";
    } else {
      std::cout << "resume: no usable shard chains in " << scfg.checkpoint_dir
                << ", starting fresh\n";
    }
  }
  std::cout << "serve: listening on " << flags.at("socket") << " (" << shards
            << " shard" << (shards == 1 ? "" : "s") << ", "
            << ctx.members.size() << " members, window "
            << scfg.params.window_seconds << "s, skew "
            << scfg.params.reorder_skew_seconds << "s)\n";
  std::cout.flush();  // daemonized callers wait for this line
  return service::run_control_loop(server, flags.at("socket"), std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") usage();

  // Every command with the exact set of flags it reads.
  struct Command {
    int (*run)(const Flags&);
    std::set<std::string> flags;
  };
  const std::map<std::string, Command> commands = {
      {"generate",
       {cmd_generate,
        {"out", "seed", "threads", "scale", "scale-factor", "paper"}}},
      {"classify",
       {[](const Flags& f) { return cmd_classify(f, /*report=*/false); },
        {"mrt", "trace", "rpsl", "method", "labels", "threads", "simd",
         "on-error", "stats-json"}}},
      {"report",
       {[](const Flags& f) { return cmd_classify(f, /*report=*/true); },
        {"mrt", "trace", "rpsl", "method", "labels", "threads", "simd",
         "on-error", "stats-json"}}},
      {"detect",
       {cmd_detect,
        {"mrt", "trace", "rpsl", "method", "window", "skew", "threads",
         "updates", "simd", "checkpoint", "checkpoint-every",
         "checkpoint-delta", "resume", "on-error", "stats-json"}}},
      {"serve",
       {cmd_serve,
        {"mrt", "trace", "socket", "rpsl", "shards", "method", "window",
         "skew", "threads", "simd", "checkpoint-dir", "checkpoint-every",
         "resume", "on-error"}}},
  };
  const auto it = commands.find(cmd);
  if (it == commands.end()) usage("unknown command: " + cmd);
  const Flags flags = parse_flags(argc, argv, 2, cmd, it->second.flags);
  try {
    return it->second.run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
