// Performance characterization of the hot paths, plus the DESIGN.md
// ablations: trie LPM vs linear scan, interval-set membership vs trie,
// SCC-bitset cones vs naive per-node DFS.
#include "bench/common.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "analysis/streaming.hpp"
#include "asgraph/full_cone.hpp"
#include "bgp/collector.hpp"
#include "bgp/message.hpp"
#include "bgp/simulator.hpp"
#include "classify/flat_classifier.hpp"
#include "classify/pipeline.hpp"
#include "classify/streaming.hpp"
#include "service/server.hpp"
#include "state/plane_cache.hpp"
#include "net/flow_batch.hpp"
#include "net/mapped_trace.hpp"
#include "net/trace.hpp"
#include "net/trace_format.hpp"
#include "topo/generator.hpp"
#include "traffic/workload.hpp"
#include "net/bogon.hpp"
#include "trie/prefix_set.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spoofscope;
using bench::world;

/// The flat plane compiled once from the shared bench scenario.
const classify::FlatClassifier& flat_world() {
  static const classify::FlatClassifier flat =
      classify::FlatClassifier::compile(world().classifier());
  return flat;
}

/// The bench trace serialized once and mmapped back: what a production
/// ingest pipeline reads. The temp file is unlinked immediately (the
/// mapping keeps it alive), so no artifact is left behind.
const net::MappedTrace& mapped_world_trace() {
  static const net::MappedTrace trace = [] {
    const auto path = std::filesystem::temp_directory_path() /
                      "spoofscope-bench-e2e.trace";
    {
      std::ofstream out(path, std::ios::binary);
      net::write_trace(out, world().trace());
    }
    net::MappedTrace t(path.string());
    std::filesystem::remove(path);
    return t;
  }();
  return trace;
}

// --- classification hot path -----------------------------------------------

void BM_ClassifySingle(benchmark::State& state) {
  const auto& w = world();
  const auto member = w.ixp().members().front().asn;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.classifier().classify(net::Ipv4Addr(rng.next_u32()), member, 3));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifySingle);

void BM_ClassifyAllMethods(benchmark::State& state) {
  const auto& w = world();
  const auto member = w.ixp().members().front().asn;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.classifier().classify_all(net::Ipv4Addr(rng.next_u32()), member));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyAllMethods);

// --- flat engine: same queries on the compiled DIR-24-8 plane ---------------

void BM_FlatClassifySingle(benchmark::State& state) {
  const auto& flat = flat_world();
  const auto member = world().ixp().members().front().asn;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flat.classify(net::Ipv4Addr(rng.next_u32()), member, 3));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatClassifySingle);

void BM_FlatClassifyAllMethods(benchmark::State& state) {
  const auto& flat = flat_world();
  const auto member = world().ixp().members().front().asn;
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flat.classify_all(net::Ipv4Addr(rng.next_u32()), member));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatClassifyAllMethods);

void BM_FlatClassifyAllMethodsMemberView(benchmark::State& state) {
  // The per-member lookup hoisted entirely out of the loop: the cost an
  // ingest pipeline pays per flow once it holds a MemberView.
  const auto& flat = flat_world();
  const auto view = flat.member_view(world().ixp().members().front().asn);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flat.classify_all(net::Ipv4Addr(rng.next_u32()), view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatClassifyAllMethodsMemberView);

void BM_FlatCompile(benchmark::State& state) {
  // The one-off cost the flat engine trades for O(1) lookups.
  const auto& w = world();
  for (auto _ : state) {
    auto flat = classify::FlatClassifier::compile(w.classifier());
    benchmark::DoNotOptimize(flat);
  }
}
BENCHMARK(BM_FlatCompile)->Unit(benchmark::kMillisecond);

void BM_FlatCompileParallel(benchmark::State& state) {
  const auto& w = world();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto flat = classify::FlatClassifier::compile(w.classifier(), pool);
    benchmark::DoNotOptimize(flat);
  }
}
BENCHMARK(BM_FlatCompileParallel)
    ->ArgName("threads")
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Builds the oscillating 100-route batch pair for the plane-patch
/// benchmarks. `scattered` false models flap/TE churn — each pair
/// withdraws a routed prefix and announces its first-half split at the
/// same address, so every canonical rank is preserved and the patch
/// stays on its in-place path. `scattered` true is the worst case:
/// withdrawals strided across the table plus brand-new announcements,
/// shifting nearly every rank and forcing the remap + record-copy path.
void build_patch_batches(bool scattered,
                         std::vector<bgp::UpdateMessage>& forward,
                         std::vector<bgp::UpdateMessage>& inverse) {
  const auto& routed = world().table().prefixes();
  const std::set<net::Prefix> in_table(routed.begin(), routed.end());
  const auto add = [](std::vector<bgp::UpdateMessage>& batch,
                      bgp::UpdateMessage::Kind kind, const net::Prefix& p) {
    bgp::UpdateMessage u;
    u.kind = kind;
    u.prefix = p;
    u.path = bgp::AsPath{65000};
    batch.push_back(u);
  };
  using Kind = bgp::UpdateMessage::Kind;
  if (scattered) {
    // 50 strided withdrawals of routed prefixes ...
    for (std::size_t i = 0; i < 50; ++i) {
      const net::Prefix& p = routed[(i * 97) % routed.size()];
      add(forward, Kind::kWithdraw, p);
      add(inverse, Kind::kAnnounce, p);
    }
    // ... plus 50 announcements of /16s not already in the table (the
    // scenario allocator roams the whole non-bogon space, so dedup).
    for (std::uint32_t block = 0; forward.size() < 100; ++block) {
      const net::Prefix p(net::Ipv4Addr(block << 16), 16);
      if (in_table.count(p) != 0) continue;
      add(forward, Kind::kAnnounce, p);
      add(inverse, Kind::kWithdraw, p);
    }
    return;
  }
  // 50 withdraw-the-/N + announce-its-first-/N+1 pairs: both sort to the
  // same canonical rank, so no other prefix renumbers.
  std::size_t pairs = 0;
  for (std::size_t i = 0; pairs < 50; i += 97) {
    const net::Prefix& p = routed[i % routed.size()];
    if (p.length() > 23) continue;
    const net::Prefix split(net::Ipv4Addr(p.first()),
                            static_cast<std::uint8_t>(p.length() + 1));
    if (in_table.count(split) != 0) continue;
    add(forward, Kind::kWithdraw, p);
    add(forward, Kind::kAnnounce, split);
    add(inverse, Kind::kWithdraw, split);
    add(inverse, Kind::kAnnounce, p);
    ++pairs;
  }
}

void BM_FlatPlanePatchImpl(benchmark::State& state, bool scattered) {
  // Churn survival: apply a 100-route announce/withdraw batch in place
  // instead of recompiling the whole plane. Iterations alternate a batch
  // with its exact inverse so the plane oscillates between two states
  // and every iteration pays a full 100-route patch.
  auto flat = classify::FlatClassifier::compile(world().classifier());
  std::vector<bgp::UpdateMessage> forward, inverse;
  build_patch_batches(scattered, forward, inverse);
  util::ThreadPool pool(0);  // hardware concurrency, like compile()
  classify::FlatClassifier::UpdateApplyOptions opts;
  opts.pool = &pool;
  flat.apply_updates({}, opts);  // take ownership outside the timed loop
  bool flip = false;
  for (auto _ : state) {
    const auto stats = flat.apply_updates(flip ? inverse : forward, opts);
    benchmark::DoNotOptimize(stats);
    flip = !flip;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}

void BM_FlatPlanePatch(benchmark::State& state) {
  BM_FlatPlanePatchImpl(state, /*scattered=*/false);
}
BENCHMARK(BM_FlatPlanePatch)->Unit(benchmark::kMillisecond);

void BM_FlatPlanePatchScattered(benchmark::State& state) {
  BM_FlatPlanePatchImpl(state, /*scattered=*/true);
}
BENCHMARK(BM_FlatPlanePatchScattered)->Unit(benchmark::kMillisecond);

// --- ablation: trie LPM vs linear scan for the bogon check ------------------

void BM_BogonTrieLookup(benchmark::State& state) {
  trie::PrefixSet bogons;
  for (const auto& p : net::bogon_prefixes()) bogons.insert(p);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bogons.covers(net::Ipv4Addr(rng.next_u32())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BogonTrieLookup);

void BM_BogonLinearScan(benchmark::State& state) {
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::is_bogon(net::Ipv4Addr(rng.next_u32())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BogonLinearScan);

// --- ablation: routed-table LPM --------------------------------------------

void BM_RoutedTrieLpm(benchmark::State& state) {
  const auto& table = world().table();
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.is_routed(net::Ipv4Addr(rng.next_u32())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutedTrieLpm);

// --- ablation: interval-set membership (valid-space check) ------------------

void BM_ValidSpaceMembership(benchmark::State& state) {
  const auto& w = world();
  const auto& space = w.classifier().space(3);  // FULL
  const auto member = w.ixp().members().front().asn;
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.valid(member, net::Ipv4Addr(rng.next_u32())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValidSpaceMembership);

// --- ablation: SCC-bitset cones vs naive DFS ---------------------------------

std::size_t dfs_cone_size(const asgraph::AsGraph& g, std::size_t start) {
  std::vector<bool> seen(g.node_count(), false);
  std::vector<std::uint32_t> stack{static_cast<std::uint32_t>(start)};
  seen[start] = true;
  std::size_t n = 0;
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    ++n;
    for (const auto w : g.successors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return n;
}

void BM_ConeBitsetConstructionPlusQueries(benchmark::State& state) {
  const auto graph =
      asgraph::AsGraph::from_routing_table(world().table());
  for (auto _ : state) {
    asgraph::FullCone cone{asgraph::AsGraph(graph)};
    std::size_t total = 0;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      total += cone.cone_size(graph.asn_at(i));
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ConeBitsetConstructionPlusQueries)->Unit(benchmark::kMillisecond);

void BM_ConePerNodeDfs(benchmark::State& state) {
  const auto graph = asgraph::AsGraph::from_routing_table(world().table());
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      total += dfs_cone_size(graph, i);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ConePerNodeDfs)->Unit(benchmark::kMillisecond);

// --- substrate construction costs -------------------------------------------

void BM_TopologyGeneration(benchmark::State& state) {
  const auto params = bench::bench_params().topology;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto topo = topo::generate_topology(params, seed++);
    benchmark::DoNotOptimize(topo);
  }
}
BENCHMARK(BM_TopologyGeneration)->Unit(benchmark::kMillisecond);

void BM_BgpPropagationPerOrigin(benchmark::State& state) {
  static const auto topo =
      topo::generate_topology(bench::bench_params().topology, 7);
  static const bgp::Simulator sim(topo);
  std::size_t i = 0;
  for (auto _ : state) {
    auto res = sim.propagate(topo.asn_at(i++ % topo.as_count()));
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BgpPropagationPerOrigin);

void BM_WorkloadGeneration(benchmark::State& state) {
  static const auto topo =
      topo::generate_topology(bench::bench_params().topology, 7);
  static const auto ixp =
      ixp::Ixp::build(topo, bench::bench_params().ixp, 8);
  static const auto whois = data::build_whois(topo, {}, 9);
  auto params = bench::bench_params().workload;
  params.regular_flows = 50'000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto w = traffic::generate_workload(topo, ixp, whois, params, seed++);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// --- batched data plane ------------------------------------------------------

void BM_BatchDecode(benchmark::State& state) {
  // mmap-to-FlowBatch decode rate: header validated once, then records
  // checksummed in lockstep groups and each verified group written by
  // row into the SoA lanes, lanes reused across chunks.
  const auto& trace = mapped_world_trace();
  net::FlowBatch batch;
  std::int64_t records = 0;
  for (auto _ : state) {
    net::MappedTraceReader reader(trace);
    while (reader.next_batch(batch, 8192) > 0) {
      records += static_cast<std::int64_t>(batch.size());
      benchmark::DoNotOptimize(batch.src().data());
    }
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_BatchDecode)->Unit(benchmark::kMillisecond);

/// The bench trace as one big SoA batch (built once per binary).
const net::FlowBatch& world_batch() {
  static const net::FlowBatch batch = [] {
    net::FlowBatch b;
    b.reserve(world().trace().flows.size());
    for (const auto& f : world().trace().flows) b.push_back(f);
    return b;
  }();
  return batch;
}

void BM_FlatClassifyBatch(benchmark::State& state) {
  // The batch kernel alone (batch already decoded), on the auto-selected
  // SIMD kernel: the classify layer of BM_EndToEndTraceClassification.
  // The per-kernel comparison lives in BM_FlatClassifyBatchKernel.
  const auto& flat = flat_world();
  const auto& batch = world_batch();
  std::vector<classify::Label> labels(batch.size());
  for (auto _ : state) {
    flat.classify_batch(batch, labels);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_FlatClassifyBatch)->Unit(benchmark::kMillisecond);

/// The mapped bench trace decoded once into the 8192-flow batches
/// BM_BatchDecode produces, each with its labels (built once per binary).
struct LabelledBatches {
  std::vector<net::FlowBatch> batches;
  std::vector<std::vector<classify::Label>> labels;
};

const LabelledBatches& world_labelled_batches() {
  static const LabelledBatches decoded = [] {
    LabelledBatches d;
    net::MappedTraceReader reader(mapped_world_trace());
    net::FlowBatch batch;
    while (reader.next_batch(batch, 8192) > 0) {
      d.labels.push_back(flat_world().classify_batch(batch));
      d.batches.push_back(batch);
    }
    return d;
  }();
  return decoded;
}

void BM_AggregateBatch(benchmark::State& state) {
  // AggregateBuilder::add alone over decoded, classified batches: the
  // aggregation layer of BM_EndToEndTraceClassification.
  const auto& d = world_labelled_batches();
  const std::size_t spaces = world().classifier().space_count();
  std::int64_t records = 0;
  for (auto _ : state) {
    classify::AggregateBuilder builder(spaces);
    for (std::size_t b = 0; b < d.batches.size(); ++b) {
      builder.add(d.batches[b], d.labels[b]);
      records += static_cast<std::int64_t>(d.batches[b].size());
    }
    auto agg = builder.build();
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_AggregateBatch)->Unit(benchmark::kMillisecond);

void flat_classify_batch_kernel(benchmark::State& state,
                                classify::SimdKernel kernel) {
  // One registration per kernel usable on this host, so a single Release
  // run records the scalar baseline and the SIMD speedup side by side.
  const auto& flat = flat_world();
  const auto& batch = world_batch();
  std::vector<classify::Label> labels(batch.size());
  for (auto _ : state) {
    flat.classify_batch(batch, labels, kernel);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}

const int kKernelBenchesRegistered = [] {
  for (const auto k : classify::usable_simd_kernels()) {
    const std::string name = std::string("BM_FlatClassifyBatchKernel/simd:") +
                             classify::simd_kernel_name(k);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [k](benchmark::State& st) { flat_classify_batch_kernel(st, k); })
        ->Unit(benchmark::kMillisecond);
  }
  return 0;
}();

void BM_FlatClassifyBatchPrefetch(benchmark::State& state) {
  // kPrefetchDistance sweep for the scalar fallback kernel (the hot path
  // on non-AVX2/NEON hosts); the winner is compiled into
  // flat_classifier.cpp and the numbers recorded in DESIGN.md §13.
  const auto& flat = flat_world();
  const auto& batch = world_batch();
  std::vector<classify::Label> labels(batch.size());
  const auto dist = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    flat.classify_batch_scalar(batch, labels, dist);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_FlatClassifyBatchPrefetch)
    ->ArgName("dist")
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// --- end-to-end throughput ----------------------------------------------------

void BM_EndToEndTraceClassification(benchmark::State& state) {
  // The production ingest pipeline on one thread: mmapped trace ->
  // batched decode -> prefetched flat classification -> lane-wise
  // aggregation. (Historically this bench ran the per-record trie
  // engine over pre-decoded flows; see
  // BM_EndToEndTraceClassificationPerRecordTrie for that baseline.)
  const auto& trace = mapped_world_trace();
  const auto& flat = flat_world();
  const std::size_t spaces = world().classifier().space_count();
  net::FlowBatch batch;
  std::vector<classify::Label> labels;
  std::int64_t records = 0;
  for (auto _ : state) {
    net::MappedTraceReader reader(trace);
    classify::AggregateBuilder builder(spaces);
    while (reader.next_batch(batch, 8192) > 0) {
      labels.resize(batch.size());
      flat.classify_batch(batch, labels);
      builder.add(batch, labels);
      records += static_cast<std::int64_t>(batch.size());
    }
    auto agg = builder.build();
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_EndToEndTraceClassification)->Unit(benchmark::kMillisecond);

void BM_EndToEndTraceClassificationScalarKernel(benchmark::State& state) {
  // Same pipeline pinned to the scalar batch kernel: the end-to-end lift
  // attributable to SIMD is this number against
  // BM_EndToEndTraceClassification.
  const auto& trace = mapped_world_trace();
  const auto& flat = flat_world();
  const std::size_t spaces = world().classifier().space_count();
  net::FlowBatch batch;
  std::vector<classify::Label> labels;
  std::int64_t records = 0;
  for (auto _ : state) {
    net::MappedTraceReader reader(trace);
    classify::AggregateBuilder builder(spaces);
    while (reader.next_batch(batch, 8192) > 0) {
      labels.resize(batch.size());
      flat.classify_batch(batch, labels, classify::SimdKernel::kScalar);
      builder.add(batch, labels);
      records += static_cast<std::int64_t>(batch.size());
    }
    auto agg = builder.build();
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_EndToEndTraceClassificationScalarKernel)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndTraceClassificationPerRecordTrie(benchmark::State& state) {
  // The pre-batching baseline this PR is measured against.
  const auto& w = world();
  for (auto _ : state) {
    auto labels = classify::classify_trace(w.classifier(), w.trace().flows);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.trace().flows.size()));
}
BENCHMARK(BM_EndToEndTraceClassificationPerRecordTrie)
    ->Unit(benchmark::kMillisecond);

// --- streaming report: throughput + constant-memory evidence -----------------

/// Process-lifetime peak resident set in KiB (getrusage; ru_maxrss is
/// KiB on Linux, bytes on macOS). 0 where getrusage is unavailable.
long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
#ifdef __APPLE__
  return static_cast<long>(ru.ru_maxrss / 1024);
#else
  return static_cast<long>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

/// Current resident set in KiB (Linux /proc/self/statm; 0 elsewhere).
/// Unlike peak_rss_kb this can shrink, so deltas around a bench loop
/// measure the memory the loop actually retained.
long current_rss_kb() {
#if defined(__linux__)
  std::ifstream in("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  in >> pages_total >> pages_resident;
  return pages_resident * (::sysconf(_SC_PAGESIZE) / 1024);
#else
  return 0;
#endif
}

/// Writes the bench trace repeated `mult` times as one valid v2 trace
/// file and returns its path. Built at the byte level — header patched
/// to declare mult x records, record bytes written mult times — so a
/// 10x trace never materializes 10x flows in RAM (which would pollute
/// the peak-RSS measurement this file exists for).
std::filesystem::path multiplied_trace_file(int mult) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("spoofscope-bench-report-" + std::to_string(mult) + "x.trace");
  std::ostringstream buf;
  net::write_trace(buf, world().trace());
  const std::string bytes = buf.str();
  std::string header = bytes.substr(0, net::format::kHeaderSizeV2);
  auto* h = reinterpret_cast<std::uint8_t*>(header.data());
  net::format::put_u64(
      h + 24, static_cast<std::uint64_t>(world().trace().flows.size()) *
                  static_cast<std::uint64_t>(mult));
  net::format::put_u32(h + net::format::kHeaderBody,
                       net::format::fnv1a32(h, net::format::kHeaderBody));
  std::ofstream out(path, std::ios::binary);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (int i = 0; i < mult; ++i) {
    out.write(bytes.data() + header.size(),
              static_cast<std::streamsize>(bytes.size() - header.size()));
  }
  if (!out) throw std::runtime_error("bench: cannot write " + path.string());
  return path;
}

void BM_ReportStreaming(benchmark::State& state) {
  // The full `spoofscope report` data path: mmapped trace -> batched
  // decode -> flat classification -> all streaming analysis builders
  // (production caps), with consumed pages released as the pass
  // advances. Arg is the trace-length multiplier; the rss counters are
  // the machine-checked constant-memory evidence (growth must not
  // scale with trace_mult).
  const int mult = static_cast<int>(state.range(0));
  const auto path = multiplied_trace_file(mult);
  const auto& flat = flat_world();
  const std::size_t spaces = world().classifier().space_count();
  std::int64_t records = 0;
  const long rss_before = current_rss_kb();
  for (auto _ : state) {
    net::MappedTrace trace(path.string());
    net::MappedTraceReader reader(trace);
    analysis::ReportOptions opts;
    opts.limits = analysis::ReportLimits::production();
    analysis::StreamingReport report(spaces, opts);
    net::FlowBatch batch;
    std::vector<classify::Label> labels;
    while (reader.next_batch(batch, 8192) > 0) {
      labels.resize(batch.size());
      flat.classify_batch(batch, labels);
      report.add(batch, labels);
      reader.drop_consumed();
      records += static_cast<std::int64_t>(batch.size());
    }
    auto result = report.finish();
    benchmark::DoNotOptimize(result.aggregate.total_flows);
  }
  state.counters["peak_rss_kb"] =
      benchmark::Counter(static_cast<double>(peak_rss_kb()));
  state.counters["rss_growth_kb"] = benchmark::Counter(
      static_cast<double>(std::max(0L, current_rss_kb() - rss_before)));
  state.SetItemsProcessed(records);
  std::filesystem::remove(path);
}
BENCHMARK(BM_ReportStreaming)
    ->ArgName("trace_mult")
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// --- durable state plane -----------------------------------------------------

/// Scratch path for state-plane benches; removed after each bench loop.
std::filesystem::path state_scratch(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

/// A detector that has ingested the whole bench trace — the state size a
/// long-running deployment checkpoints.
classify::StreamingDetector populated_detector() {
  classify::StreamingParams sp;
  sp.reorder_skew_seconds = 60;
  classify::StreamingDetector d(flat_world(), 0, sp);
  d.run(world().trace().flows);
  return d;
}

void BM_DetectorSave(benchmark::State& state) {
  // Crash-safe checkpoint cost: serialize + fsync + rename per save.
  const auto det = populated_detector();
  const auto path = state_scratch("spoofscope-bench-det.ckpt");
  for (auto _ : state) {
    det.save(path.string());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_DetectorSave)->Unit(benchmark::kMillisecond);

void BM_DetectorRestore(benchmark::State& state) {
  const auto path = state_scratch("spoofscope-bench-det.ckpt");
  populated_detector().save(path.string());
  classify::StreamingParams sp;
  sp.reorder_skew_seconds = 60;
  for (auto _ : state) {
    classify::StreamingDetector d(flat_world(), 0, sp);
    const bool ok = d.restore(path.string());
    benchmark::DoNotOptimize(ok);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_DetectorRestore)->Unit(benchmark::kMillisecond);

void BM_FlatPlaneCacheLoad(benchmark::State& state) {
  // The cache-hit cold start (mmap + checksum/digest validation) — the
  // number to hold against BM_FlatCompile, which is what a cold start
  // costs without the cache.
  const auto dir = state_scratch("spoofscope-bench-plane-cache");
  std::filesystem::remove_all(dir);
  state::PlaneCache cache(dir.string());
  cache.load_or_compile(world().classifier(), nullptr);  // populate
  for (auto _ : state) {
    auto loaded = cache.load_or_compile(world().classifier(), nullptr);
    benchmark::DoNotOptimize(loaded.plane);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_FlatPlaneCacheLoad)->Unit(benchmark::kMillisecond);

// --- resident service --------------------------------------------------------

/// The bench trace pre-decoded into routing-round-sized batches, so the
/// serve bench measures shard fan-out + classify + detect, not decode.
const std::vector<net::FlowBatch>& world_trace_batches() {
  static const std::vector<net::FlowBatch> batches = [] {
    std::vector<net::FlowBatch> out;
    net::MappedTraceReader reader(mapped_world_trace());
    net::FlowBatch batch;
    while (reader.next_batch(batch, 8192) > 0) {
      out.push_back(batch);
      batch.clear();
    }
    return out;
  }();
  return batches;
}

void BM_ServeThroughput(benchmark::State& state) {
  // Whole-service ingest throughput at N shards: control thread routes
  // pre-decoded batches, shard workers run the SIMD classify + detect
  // path in parallel. run_benches.sh gates 4-shard >= 2x single-shard
  // on machines with >= 4 cores (the shards are the scaling unit the
  // ISSUE's acceptance criterion measures).
  static const auto plane = std::make_shared<classify::FlatClassifier>(
      classify::FlatClassifier::compile(world().classifier()));
  const auto& batches = world_trace_batches();
  std::int64_t records = 0;
  for (auto _ : state) {
    service::ServerConfig cfg;
    cfg.shards = static_cast<std::size_t>(state.range(0));
    cfg.params.window_seconds = 1800;
    service::Server server(plane, cfg);
    server.start();
    for (const auto& batch : batches) {
      server.submit_batch(batch);
      records += static_cast<std::int64_t>(batch.size());
    }
    server.barrier();
    const auto drained = server.drain();
    benchmark::DoNotOptimize(drained.alerts);
    server.stop();
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- parallel engine scaling -------------------------------------------------

void BM_ClassifyTraceParallel(benchmark::State& state) {
  const auto& w = world();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto labels =
        classify::classify_trace(w.classifier(), w.trace().flows, pool);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.trace().flows.size()));
}
BENCHMARK(BM_ClassifyTraceParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BuildValidSpacesParallel(benchmark::State& state) {
  const auto& w = world();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto members = w.ixp().member_asns();
  for (auto _ : state) {
    auto space = w.factory().build(inference::Method::kFullConeOrg, members,
                                   pool);
    benchmark::DoNotOptimize(space);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(members.size()));
}
BENCHMARK(BM_BuildValidSpacesParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- internet-scale parallel generation --------------------------------------

/// Thread-count points for the scenario-generation benches: 1, 2, and
/// hardware concurrency when it is a distinct third point. Registered
/// via Apply so a 1-core box still gets a (trivially gated) baseline.
void scaling_thread_args(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  b->Arg(1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw >= 2) b->Arg(2);
  if (hw > 2) b->Arg(hw);
}

void BM_TopologyGenerateParallel(benchmark::State& state) {
  // Chunk-parallel KaGen-style generation. chunk_ases is part of the
  // output contract, so it is pinned here: every thread count generates
  // the same ~7-chunk world and the timings are comparable.
  auto params = bench::bench_params().topology;
  params.chunk_ases = 64;
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto topo = topo::generate_topology(params, 7, pool);
    benchmark::DoNotOptimize(topo);
  }
}
BENCHMARK(BM_TopologyGenerateParallel)
    ->Apply(scaling_thread_args)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BgpPropagationParallel(benchmark::State& state) {
  // The internet-scale propagation data path: every plan group fanned
  // over the pool, records streamed per chunk (propagate_collect), with
  // a full-feed spec consuming them. items_per_second = plan groups/s;
  // tools/run_benches.sh gates the threads:1 -> threads:max speedup.
  static const auto topo =
      topo::generate_topology(bench::bench_params().topology, 7);
  static const bgp::Simulator sim(topo);
  static const auto plan = bgp::make_announcement_plan(topo, {}, 11);
  bgp::CollectorSpec spec;
  spec.name = "bench-full-feed";
  for (std::size_t i = 0; i < 8; ++i) spec.feeders.push_back(topo.asn_at(i));
  const std::array<bgp::CollectorSpec, 1> specs{spec};
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::int64_t groups = 0;
  std::size_t records = 0;
  for (auto _ : state) {
    records = 0;
    bgp::propagate_collect(
        sim, plan, specs, pool,
        [&](std::size_t, const bgp::MrtRecord&) { ++records; });
    groups += static_cast<std::int64_t>(plan.groups.size());
  }
  benchmark::DoNotOptimize(records);
  state.SetItemsProcessed(groups);
}
BENCHMARK(BM_BgpPropagationParallel)
    ->Apply(scaling_thread_args)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioEndToEnd(benchmark::State& state) {
  // Full internet-scale world (ScenarioParams::internet(): 80K ASes,
  // on the order of a million announced prefixes) end to end through
  // build_scenario. The rss counters are the bounded-memory evidence:
  // streamed chunked propagation must keep the build inside a fixed
  // route-state budget instead of materializing 80K propagation
  // results. All-origins propagation is inherently O(ASes x links), so
  // SPOOFSCOPE_BENCH_INTERNET_FACTOR (default 8) divides the AS
  // populations; set it to 1 for the real thing (minutes of CPU).
  const char* env = std::getenv("SPOOFSCOPE_BENCH_INTERNET_FACTOR");
  const int factor = env != nullptr ? std::max(1, std::atoi(env)) : 8;
  auto params = scenario::ScenarioParams::internet();
  params.threads = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  auto shrink = [factor](std::size_t& n, std::size_t floor) {
    n = std::max(floor, n / static_cast<std::size_t>(factor));
  };
  shrink(params.topology.num_tier1, 1);
  shrink(params.topology.num_transit, 1);
  shrink(params.topology.num_isp, 1);
  shrink(params.topology.num_hosting, 1);
  shrink(params.topology.num_content, 1);
  shrink(params.topology.num_other, 1);
  shrink(params.ixp.member_count, 8);
  const long rss_before = current_rss_kb();
  for (auto _ : state) {
    auto w = scenario::build_scenario(params);
    state.counters["ases"] =
        benchmark::Counter(static_cast<double>(w->topology().as_count()));
    state.counters["table_prefixes"] =
        benchmark::Counter(static_cast<double>(w->table().prefix_count()));
    benchmark::DoNotOptimize(w);
  }
  state.counters["scale_factor"] =
      benchmark::Counter(static_cast<double>(factor));
  state.counters["peak_rss_kb"] =
      benchmark::Counter(static_cast<double>(peak_rss_kb()));
  state.counters["rss_growth_kb"] = benchmark::Counter(
      static_cast<double>(std::max(0L, current_rss_kb() - rss_before)));
}
/// Registered only when SPOOFSCOPE_BENCH_INTERNET=1: even scaled down
/// it costs whole minutes of CPU, which would dominate every default
/// bench run. tools/run_benches.sh prints how to enable it.
const bool scenario_end_to_end_registered = [] {
  const char* enabled = std::getenv("SPOOFSCOPE_BENCH_INTERNET");
  if (enabled == nullptr || std::string_view(enabled) != "1") return false;
  benchmark::RegisterBenchmark("BM_ScenarioEndToEnd", BM_ScenarioEndToEnd)
      ->Iterations(1)
      ->UseRealTime()
      ->Unit(benchmark::kSecond);
  return true;
}();

void print_reproduction() {
  bench::print_header(
      "performance characterization (no paper counterpart)",
      "the paper's pipeline must keep up with a 5 Tb/s fabric's sampled "
      "flow stream; numbers above are this implementation's budget");
  std::cout << "See the benchmark timings above: classification must stay\n"
            << "well under a microsecond per flow for IXP-scale deployments.\n";

  const auto stats = flat_world().stats();
  const double mib = 1024.0 * 1024.0;
  std::cout << "\nflat engine compile report (DIR-24-8 plane):\n"
            << "  base-class table : " << stats.table_bytes / mib
            << " MiB (2^24 x u32)\n"
            << "  member bitsets   : " << stats.bitset_bytes / mib << " MiB ("
            << stats.members << " members x 8 spaces over " << stats.prefixes
            << " prefixes)\n"
            << "  overflow lane    : " << stats.overflow_prefixes
            << " prefixes longer than /24 in " << stats.overflow_slots
            << " /24 slots\n"
            << "  partial rows     : " << stats.partial_rows
            << " (member,space) rows needing the IntervalSet fallback\n";
}

}  // namespace

SPOOFSCOPE_BENCH_MAIN(print_reproduction)
