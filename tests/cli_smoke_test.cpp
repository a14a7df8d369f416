// End-to-end CLI smoke test: drives the real `spoofscope` binary through
// generate -> classify -> report -> detect -> serve on a temp directory,
// pins the outputs to golden digests, and checks the robustness surface
// (flag validation, strict vs skip on a corrupted trace, output-stream
// failure).
//
// SPOOFSCOPE_CLI_BIN is injected by CMake as the built binary's path.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/trace.hpp"
#include "service/control.hpp"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

/// Runs the CLI with `args`, capturing combined output; `env` holds
/// NAME=value assignments for the CLI's environment alone.
RunResult run_cli(const std::string& args, const fs::path& capture,
                  const std::string& env = "") {
  const std::string cmd = env + " " + std::string(SPOOFSCOPE_CLI_BIN) + " " +
                          args + " > " + capture.string() + " 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(capture);
  std::ostringstream os;
  os << in.rdbuf();
  r.output = os.str();
  return r;
}

/// Runs the CLI with `args`, output to `capture`, and returns the peak
/// RSS in KiB that wait4 reports for that child alone; -1 unless it
/// exits 0.
long cli_peak_rss_kib(const std::vector<std::string>& args,
                      const fs::path& capture) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int out = ::open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out >= 0) {
      ::dup2(out, 1);
      ::dup2(out, 2);
      ::close(out);
    }
    std::vector<char*> argv{const_cast<char*>(SPOOFSCOPE_CLI_BIN)};
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(SPOOFSCOPE_CLI_BIN, argv.data());
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (::wait4(pid, &status, 0, &usage) != pid) return -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return usage.ru_maxrss;
}

/// Writes `flows` as a trace file at `path`.
void write_trace_file(const fs::path& path,
                      std::vector<spoofscope::net::FlowRecord> flows) {
  spoofscope::net::Trace trace;
  trace.flows = std::move(flows);
  std::ofstream out(path, std::ios::binary);
  spoofscope::net::write_trace(out, trace);
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// FNV-1a-64 of `bytes`: the fingerprint the golden outputs are pinned by.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The lines of `out` starting with any of `prefixes` (`keep` = true) or
/// with none of them (`keep` = false), each with its newline.
std::string filter_lines(const std::string& out,
                         std::initializer_list<const char*> prefixes,
                         bool keep = true) {
  std::istringstream lines(out);
  std::string line;
  std::string kept;
  while (std::getline(lines, line)) {
    const bool match =
        std::any_of(prefixes.begin(), prefixes.end(),
                    [&](const char* p) { return line.rfind(p, 0) == 0; });
    if (match == keep) kept += line + "\n";
  }
  return kept;
}

// Golden FNV-1a-64 digests of the seed-7 world's outputs, recorded with
// both of the CLI's former engines (the trie Classifier and the compiled
// plane), which produced exactly these bytes. The plane, now the only
// runtime engine, must keep producing them: the `...OnBothEngines`
// cases check that.
/// classify --labels: the whole per-flow CSV.
constexpr std::uint64_t kGoldenLabelsCsv = 0x9cbdeab08de8f3aaull;
/// classify: the four per-class totals lines.
constexpr std::uint64_t kGoldenClassTotals = 0x405fd0aeb31778daull;
/// report --rpsl: stdout without the `classified ...` summary line.
constexpr std::uint64_t kGoldenReportBody = 0x5b948b29649c2a88ull;
/// detect --window 1800 --skew 60: the alert lines plus the health line.
constexpr std::uint64_t kGoldenDetect = 0x11d5f0ecd0aa156eull;

/// One generated world shared by every test case (generation dominates
/// the suite's runtime).
struct CliWorld {
  fs::path root;   ///< scratch directory for this run
  fs::path world;  ///< generated artifacts
  fs::path log;    ///< output capture file
  bool generated = false;

  CliWorld() {
    root = fs::temp_directory_path() /
           ("spoofscope-smoke-" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
    world = root / "world";
    log = root / "out.log";
    const auto r =
        run_cli("generate --out " + world.string() + " --seed 7", log);
    generated = r.exit_code == 0;
  }
  ~CliWorld() { fs::remove_all(root); }

  std::string mrt() const { return (world / "route-server.mrt").string(); }
  std::string trace() const { return (world / "ixp.trace").string(); }
  std::string rpsl() const { return (world / "registry.rpsl").string(); }
};

CliWorld& cli_world() {
  static CliWorld w;  // destructor removes the scratch directory at exit
  return w;
}

TEST(CliSmoke, GenerateWritesAllArtifacts) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  EXPECT_TRUE(fs::exists(w.world / "topology.txt"));
  EXPECT_TRUE(fs::exists(w.world / "ixp.trace"));
  EXPECT_TRUE(fs::exists(w.world / "route-server.mrt"));
  EXPECT_TRUE(fs::exists(w.world / "registry.rpsl"));
  EXPECT_GT(fs::file_size(w.world / "ixp.trace"), 1000u);
}

TEST(CliSmoke, ClassifyProducesIdenticalLabelsOnBothEngines) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // --simd scalar pins the decode and classify kernels both; neither
  // may move an output byte.
  const std::string runs[] = {"--threads 1", "--threads 0",
                              "--threads 1 --simd scalar"};
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    const std::string& flags = runs[i];
    const fs::path csv = w.root / ("labels-" + std::to_string(i) + ".csv");
    const auto r = run_cli("classify --mrt " + w.mrt() + " --trace " +
                               w.trace() + " --labels " + csv.string() + " " +
                               flags,
                           w.log);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("classified"), std::string::npos);

    const std::string labels = slurp(csv);
    ASSERT_GT(labels.size(), 100u);
    EXPECT_EQ(labels.substr(0, 24), "ts,src,dst,member,class\n");
    EXPECT_EQ(fnv1a64(labels), kGoldenLabelsCsv) << flags;
    EXPECT_EQ(fnv1a64(filter_lines(r.output, {"  Bogon", "  Unrouted",
                                               "  Invalid", "  Valid"})),
              kGoldenClassTotals)
        << r.output;
  }
}

TEST(CliSmoke, ReportRunsEndToEndOnBothEngines) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // --simd scalar also pins the packet-size sketch's compaction kernel;
  // no kernel may move a report byte. An explicit --simd wins over
  // SPOOFSCOPE_SIMD, which only steers auto: the pinned run must not
  // even parse the variable's bogus value.
  const std::pair<std::string, std::string> runs[] = {
      {"", ""}, {" --simd scalar", "SPOOFSCOPE_SIMD=bogus"}};
  for (const auto& [flags, env] : runs) {
    const auto r = run_cli("report --mrt " + w.mrt() + " --trace " +
                               w.trace() + " --rpsl " + w.rpsl() + flags,
                           w.log, env);
    ASSERT_EQ(r.exit_code, 0) << env << flags << "\n" << r.output;
    EXPECT_NE(r.output.find("NTP amplification"), std::string::npos);
    EXPECT_EQ(fnv1a64(filter_lines(r.output, {"classified "}, /*keep=*/false)),
              kGoldenReportBody)
        << env << flags << "\n" << r.output;
  }
}

TEST(CliSmoke, GarbageThreadsFlagIsRejected) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const auto r = run_cli("classify --mrt " + w.mrt() + " --trace " +
                             w.trace() + " --threads bogus",
                         w.log);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads"), std::string::npos);
}

TEST(CliSmoke, CorruptedTraceStrictFailsSkipRecovers) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // Flip one bit inside the record region of a copy of the trace.
  const fs::path bad = w.root / "corrupt.trace";
  std::string bytes = slurp(w.trace());
  ASSERT_GT(bytes.size(), 5000u);
  bytes[5000] = static_cast<char>(bytes[5000] ^ 0x10);
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }

  const auto strict = run_cli(
      "classify --mrt " + w.mrt() + " --trace " + bad.string(), w.log);
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.output.find("error:"), std::string::npos);

  const auto skip =
      run_cli("classify --mrt " + w.mrt() + " --trace " + bad.string() +
                  " --on-error skip",
              w.log);
  ASSERT_EQ(skip.exit_code, 0) << skip.output;
  EXPECT_NE(skip.output.find("ingest:"), std::string::npos);
  EXPECT_NE(skip.output.find("1 skipped"), std::string::npos);
  EXPECT_NE(skip.output.find("classified"), std::string::npos);

  // A header-only trace is well formed: both policies classify nothing
  // and print 0% shares, not NaN.
  const fs::path empty = w.root / "header-only.trace";
  write_trace_file(empty, {});
  for (const std::string policy : {"strict", "skip"}) {
    const auto r = run_cli("classify --mrt " + w.mrt() + " --trace " +
                               empty.string() + " --on-error " + policy,
                           w.log);
    EXPECT_EQ(r.exit_code, 0) << policy << "\n" << r.output;
    EXPECT_NE(r.output.find("classified 0 flows"), std::string::npos)
        << policy << "\n" << r.output;
    EXPECT_EQ(r.output.find("nan"), std::string::npos)
        << policy << "\n" << r.output;
  }
}

TEST(CliSmoke, StatsJsonSchemaOnClassify) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // Corrupt one record so the skipped/error counters are exercised too.
  const fs::path bad = w.root / "stats-corrupt.trace";
  std::string bytes = slurp(w.trace());
  ASSERT_GT(bytes.size(), 5000u);
  bytes[5000] = static_cast<char>(bytes[5000] ^ 0x10);
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }
  const fs::path json_path = w.root / "stats.json";
  const auto r = run_cli("classify --mrt " + w.mrt() + " --trace " +
                             bad.string() + " --rpsl " + w.rpsl() +
                             " --on-error skip --stats-json " +
                             json_path.string(),
                         w.log);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string json = slurp(json_path);
  ASSERT_GT(json.size(), 2u);
  // Shape: one document, a "sources" array with one entry per ingested
  // file (MRT, RPSL, trace) carrying the IngestStats schema.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"sources\":["), std::string::npos);
  for (const std::string& path : {w.mrt(), w.rpsl(), bad.string()}) {
    EXPECT_NE(json.find("\"path\":\"" + path + "\""), std::string::npos)
        << json;
  }
  for (const std::string key :
       {"\"records_ok\":", "\"records_skipped\":", "\"bytes_dropped\":",
        "\"errors\":{", "\"truncated\":", "\"bad-magic\":", "\"bad-version\":",
        "\"checksum\":", "\"parse\":", "\"count-mismatch\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The flipped bit shows up as exactly one skipped checksum record.
  EXPECT_NE(json.find("\"records_skipped\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"checksum\":1"), std::string::npos) << json;
  // classify mode carries no detector section.
  EXPECT_EQ(json.find("\"detector\":"), std::string::npos);
}

TEST(CliSmoke, DetectEmitsHealthInStatsJson) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path json_path = w.root / "detect-stats.json";
  const auto r = run_cli("detect --mrt " + w.mrt() + " --trace " + w.trace() +
                             " --window 1800 --skew 60 --stats-json " +
                             json_path.string(),
                         w.log);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("detect:"), std::string::npos);
  EXPECT_NE(r.output.find("health:"), std::string::npos);

  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"sources\":["), std::string::npos);
  EXPECT_NE(json.find("\"detector\":{"), std::string::npos);
  for (const std::string key :
       {"\"regressions\":", "\"late_drops\":", "\"forced_releases\":",
        "\"member_evictions\":", "\"sample_evictions\":",
        "\"reorder_depth\":", "\"max_reorder_depth\":",
        "\"tracked_members\":", "\"max_window_depth\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(CliSmoke, DetectAlertsIdenticalOnBothEngines) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const auto r = run_cli("detect --mrt " + w.mrt() + " --trace " + w.trace() +
                             " --window 1800 --skew 60",
                         w.log);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string verdicts = filter_lines(r.output, {"alert:", "health:"});
  EXPECT_NE(verdicts.find("alert:"), std::string::npos) << r.output;
  EXPECT_EQ(fnv1a64(verdicts), kGoldenDetect) << r.output;
}

/// First line of `out` starting with `prefix` (empty if none).
std::string line_with(const std::string& out, const std::string& prefix) {
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

int count_lines_with(const std::string& out, const std::string& prefix) {
  std::istringstream lines(out);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(CliSmoke, DetectCheckpointThenResumeReplaysNothing) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path ckpt = w.root / "detect.ckpt";
  const std::string base = "detect --mrt " + w.mrt() + " --trace " +
                           w.trace() + " --window 1800 --skew 60" +
                           " --checkpoint " + ckpt.string();

  const auto first = run_cli(base + " --checkpoint-every 5000", w.log);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_TRUE(fs::exists(ckpt));
  const int alerts = count_lines_with(first.output, "alert:");
  EXPECT_GT(alerts, 0);
  const std::string health = line_with(first.output, "health:");
  ASSERT_FALSE(health.empty());

  // The checkpoint covers the whole stream, so a resumed run restores,
  // fast-forwards past every record, raises no new alert, and reports
  // the exact same health counters.
  const auto resumed = run_cli(base + " --resume", w.log);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resume: restored detector state"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(count_lines_with(resumed.output, "alert:"), 0) << resumed.output;
  EXPECT_EQ(line_with(resumed.output, "health:"), health);
  // Same flows/members; the alert count in the summary is per-run (0
  // new ones after the restore point).
  const std::string first_detect = line_with(first.output, "detect:");
  const std::string prefix = first_detect.substr(0, first_detect.find(" members,") + 9);
  EXPECT_EQ(line_with(resumed.output, "detect:").rfind(prefix, 0), 0u)
      << resumed.output;
  EXPECT_NE(line_with(resumed.output, "detect:").find(" 0 alerts"),
            std::string::npos)
      << resumed.output;
}

TEST(CliSmoke, CheckpointEveryRejectsNonPositiveValues) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path ckpt = w.root / "rejected.ckpt";
  const auto r = run_cli("detect --mrt " + w.mrt() + " --trace " + w.trace() +
                             " --checkpoint " + ckpt.string() +
                             " --checkpoint-every 0",
                         w.log);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--checkpoint-every must be > 0, got: '0'"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(fs::exists(ckpt));
}

TEST(CliSmoke, DetectUpdatesPatchThePlaneAndResumeReplaysThem) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // The route-server feed doubles as a churn stream: its UPDATE lines
  // patch the plane as the trace plays.
  const fs::path ckpt = w.root / "updates.ckpt";
  const std::string base = "detect --mrt " + w.mrt() + " --trace " +
                           w.trace() + " --window 1800 --updates " + w.mrt() +
                           " --checkpoint " + ckpt.string();
  const auto first = run_cli(base + " --checkpoint-every 5000", w.log);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const std::string loaded = line_with(first.output, "updates: ");
  ASSERT_FALSE(loaded.empty()) << first.output;
  EXPECT_EQ(loaded.rfind("updates: 0 ", 0), std::string::npos) << loaded;
  const std::string health = line_with(first.output, "health:");
  ASSERT_FALSE(health.empty());

  // The checkpoint carries the update cursor: the resumed run replays
  // the applied updates into a fresh plane and ends in the same state.
  const auto resumed = run_cli(base + " --resume", w.log);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resume: replayed "), std::string::npos)
      << resumed.output;
  EXPECT_EQ(count_lines_with(resumed.output, "alert:"), 0) << resumed.output;
  EXPECT_EQ(line_with(resumed.output, "health:"), health);
}

TEST(CliSmoke, DeltaCheckpointChainResumesLikeAFullOne) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path ckpt = w.root / "delta.ckpt";
  const std::string base = "detect --mrt " + w.mrt() + " --trace " +
                           w.trace() + " --window 1800 --skew 60" +
                           " --checkpoint " + ckpt.string() +
                           " --checkpoint-delta";

  const auto first = run_cli(base + " --checkpoint-every 5000", w.log);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_TRUE(fs::exists(ckpt));
  // Mid-stream checkpoints landed as delta links chained off the base.
  EXPECT_TRUE(fs::exists(fs::path(ckpt.string() + ".d1"))) << first.output;
  const std::string health = line_with(first.output, "health:");
  ASSERT_FALSE(health.empty());

  const auto resumed = run_cli(base + " --resume", w.log);
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("resume: restored detector state"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(count_lines_with(resumed.output, "alert:"), 0) << resumed.output;
  EXPECT_EQ(line_with(resumed.output, "health:"), health);
}

TEST(CliSmoke, CorruptCheckpointStrictFailsSkipStartsFresh) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path ckpt = w.root / "damaged.ckpt";
  const std::string base = "detect --mrt " + w.mrt() + " --trace " +
                           w.trace() + " --window 1800 --checkpoint " +
                           ckpt.string();
  const auto clean = run_cli(
      "detect --mrt " + w.mrt() + " --trace " + w.trace() + " --window 1800",
      w.log);
  ASSERT_EQ(clean.exit_code, 0);

  const auto first = run_cli(base, w.log);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  std::string bytes = slurp(ckpt);
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto strict = run_cli(base + " --resume", w.log);
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.output.find("error:"), std::string::npos) << strict.output;

  const auto skip = run_cli(base + " --resume --on-error skip", w.log);
  ASSERT_EQ(skip.exit_code, 0) << skip.output;
  EXPECT_NE(skip.output.find("resume: checkpoint unusable, starting fresh"),
            std::string::npos)
      << skip.output;
  // Fresh start over the full stream: same alerts and health as a run
  // that never had a checkpoint.
  EXPECT_EQ(count_lines_with(skip.output, "alert:"),
            count_lines_with(clean.output, "alert:"));
  EXPECT_EQ(line_with(skip.output, "health:"),
            line_with(clean.output, "health:"));
}

TEST(CliSmoke, MisspelledFlagIsRejected) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // A typo must not fall back to the default window silently.
  const auto r = run_cli("detect --mrt " + w.mrt() + " --trace " + w.trace() +
                             " --windw 60",
                         w.log);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown flag for detect: --windw"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(line_with(r.output, "detect:"), "") << r.output;
}

TEST(CliSmoke, EngineFlagIsRejected) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // The compiled plane is the only engine and a fresh compile the only
  // way to get one: a leftover --engine or --plane-cache is an error on
  // every command, not a silently ignored knob (nor is generate's
  // --simd, which never affected its output).
  const std::string inputs = " --mrt " + w.mrt() + " --trace " + w.trace();
  const fs::path cache = w.root / "never-created";
  for (const std::string& flag :
       {std::string("--engine flat"), "--plane-cache " + cache.string()}) {
    const std::string name = flag.substr(0, flag.find(' '));
    for (const std::string cmd : {"classify", "report", "detect"}) {
      const auto r = run_cli(cmd + inputs + " " + flag, w.log);
      EXPECT_EQ(r.exit_code, 2) << cmd << ": " << r.output;
      EXPECT_NE(r.output.find("unknown flag for " + cmd + ": " + name),
                std::string::npos)
          << r.output;
    }
    const auto serve = run_cli("serve" + inputs + " --socket " +
                                   (w.root / "engine.sock").string() + " " +
                                   flag,
                               w.log);
    EXPECT_EQ(serve.exit_code, 2) << serve.output;
    EXPECT_NE(serve.output.find("unknown flag for serve: " + name),
              std::string::npos)
        << serve.output;
  }
  EXPECT_FALSE(fs::exists(cache));
  const fs::path out = w.root / "never-generated";
  for (const std::string flag : {"--engine trie", "--simd scalar"}) {
    const auto gen = run_cli("generate --out " + out.string() + " " + flag,
                             w.log);
    EXPECT_EQ(gen.exit_code, 2) << gen.output;
    EXPECT_NE(gen.output.find("unknown flag for generate: " +
                              flag.substr(0, flag.find(' '))),
              std::string::npos)
        << gen.output;
  }
  EXPECT_FALSE(fs::exists(out));
}

TEST(CliSmoke, WindowAndSkewAboveUint32AreRejected) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // Both are 32-bit settings: a value past UINT32_MAX must be refused,
  // not wrapped (4294967296 would run as a 0 s window).
  const std::string detect = "detect --mrt " + w.mrt() + " --trace " +
                             w.trace();
  const std::string serve = "serve --mrt " + w.mrt() + " --trace " +
                            w.trace() + " --socket " +
                            (w.root / "wrap.sock").string();
  for (const std::string& cmd : {detect, serve}) {
    for (const std::string flag : {"--window", "--skew"}) {
      for (const std::string value : {"4294967296", "4294967297"}) {
        const auto r = run_cli(cmd + " " + flag + " " + value, w.log);
        EXPECT_EQ(r.exit_code, 2) << r.output;
        EXPECT_NE(r.output.find(flag + " expects an integer in [0, "
                                       "4294967295], got: '" + value + "'"),
                  std::string::npos)
            << r.output;
      }
    }
  }
  EXPECT_FALSE(fs::exists(w.root / "wrap.sock"));
  // UINT32_MAX itself is a valid (if very long) window.
  const auto max = run_cli(detect + " --window 4294967295", w.log);
  ASSERT_EQ(max.exit_code, 0) << max.output;
  EXPECT_NE(line_with(max.output, "detect:").find("window 4294967295s"),
            std::string::npos)
      << max.output;
}

TEST(CliSmoke, DetectStrictAbortStillEmitsHealthCheckpointAndStats) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  // Flip a bit inside the record region so strict ingest aborts partway.
  const fs::path bad = w.root / "detect-corrupt.trace";
  std::string bytes = slurp(w.trace());
  ASSERT_GT(bytes.size(), 5000u);
  bytes[5000] = static_cast<char>(bytes[5000] ^ 0x10);
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }
  const fs::path json_path = w.root / "abort-stats.json";
  const fs::path ckpt = w.root / "abort.ckpt";
  const auto r = run_cli("detect --mrt " + w.mrt() + " --trace " +
                             bad.string() + " --window 1800 --stats-json " +
                             json_path.string() + " --checkpoint " +
                             ckpt.string(),
                         w.log);
  // The abort still fails the run...
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
  // ...but the partial detector state is not swallowed: the health line
  // prints, the last-consistent checkpoint lands, and the stats JSON
  // carries the detector section.
  EXPECT_NE(r.output.find("health:"), std::string::npos) << r.output;
  EXPECT_NE(line_with(r.output, "detect:"), "") << r.output;
  EXPECT_TRUE(fs::exists(ckpt));
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"detector\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\":\"" + bad.string() + "\""), std::string::npos)
      << json;
}

TEST(CliSmoke, ReportOverCorruptedTraceStrictFailsSkipRecovers) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path bad = w.root / "report-corrupt.trace";
  std::string bytes = slurp(w.trace());
  ASSERT_GT(bytes.size(), 5000u);
  bytes[5000] = static_cast<char>(bytes[5000] ^ 0x10);
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }

  const auto strict = run_cli("report --mrt " + w.mrt() + " --trace " +
                                  bad.string() + " --rpsl " + w.rpsl(),
                              w.log);
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.output.find("error:"), std::string::npos) << strict.output;

  const auto skip = run_cli("report --mrt " + w.mrt() + " --trace " +
                                bad.string() + " --rpsl " + w.rpsl() +
                                " --on-error skip",
                            w.log);
  ASSERT_EQ(skip.exit_code, 0) << skip.output;
  // The streaming report survives on the remaining records and still
  // surfaces the degraded ingest.
  EXPECT_NE(skip.output.find("ingest:"), std::string::npos) << skip.output;
  EXPECT_NE(skip.output.find("1 skipped"), std::string::npos) << skip.output;
  EXPECT_NE(skip.output.find("NTP amplification"), std::string::npos)
      << skip.output;
  EXPECT_NE(skip.output.find("incidents ("), std::string::npos) << skip.output;

  // A header-only trace is well formed: both policies report on nothing
  // and print 0% shares, not NaN.
  const fs::path empty = w.root / "report-header-only.trace";
  write_trace_file(empty, {});
  for (const std::string policy : {"strict", "skip"}) {
    const auto r = run_cli("report --mrt " + w.mrt() + " --trace " +
                               empty.string() + " --rpsl " + w.rpsl() +
                               " --on-error " + policy,
                           w.log);
    EXPECT_EQ(r.exit_code, 0) << policy << "\n" << r.output;
    EXPECT_NE(r.output.find("classified 0 flows"), std::string::npos)
        << policy << "\n" << r.output;
    EXPECT_EQ(r.output.find("nan"), std::string::npos)
        << policy << "\n" << r.output;
  }
}

// An NTP record's timestamp must not set how much memory `report` takes.
// Each (victim, amplifier) pair keeps only the time bins it touched, so
// 64 pairs at the end of the u32 time range cost what one does; both
// runs pay the one-time global series that reaches that far.
TEST(CliSmoke, ReportMemoryDoesNotScaleWithNtpTimestamps) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const auto late_ntp = [](std::size_t n) {
    std::vector<spoofscope::net::FlowRecord> flows(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& f = flows[i];
      f.ts = 0xFFFFFFF0u;
      f.src = spoofscope::net::Ipv4Addr(0x0A000001u + static_cast<std::uint32_t>(i));
      f.dst = spoofscope::net::Ipv4Addr(0xC6336401u);
      f.member_in = 64512;
      f.proto = spoofscope::net::Proto::kUdp;
      f.sport = 40000;
      f.dport = 123;
      f.packets = 1;
      f.bytes = 48;
    }
    return flows;
  };
  long peak_kib[2] = {};
  const std::size_t records[2] = {1, 64};
  for (int k = 0; k < 2; ++k) {
    const fs::path trace =
        w.root / ("late-ntp-" + std::to_string(records[k]) + ".trace");
    write_trace_file(trace, late_ntp(records[k]));
    peak_kib[k] = cli_peak_rss_kib({"report", "--mrt", w.mrt(), "--trace",
                                    trace.string(), "--threads", "1"},
                                   w.log);
    ASSERT_GT(peak_kib[k], 0) << slurp(w.log);
  }
  EXPECT_LE(peak_kib[1] - peak_kib[0], 32 * 1024)
      << "peak RSS: 1 record " << peak_kib[0] << " KiB, 64 records "
      << peak_kib[1] << " KiB";
}

TEST(CliSmoke, StatsJsonSchemaOnReport) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const fs::path bad = w.root / "report-stats-corrupt.trace";
  std::string bytes = slurp(w.trace());
  ASSERT_GT(bytes.size(), 5000u);
  bytes[5000] = static_cast<char>(bytes[5000] ^ 0x10);
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }
  const fs::path json_path = w.root / "report-stats.json";
  const auto r = run_cli("report --mrt " + w.mrt() + " --trace " +
                             bad.string() + " --rpsl " + w.rpsl() +
                             " --on-error skip --stats-json " +
                             json_path.string(),
                         w.log);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string json = slurp(json_path);
  ASSERT_GT(json.size(), 2u);
  EXPECT_EQ(json.front(), '{');
  // Ingest schema: per-source stats including the skipped record.
  EXPECT_NE(json.find("\"sources\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"records_skipped\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"checksum\":1"), std::string::npos) << json;
  // Report section: streaming-pass outcome counters.
  EXPECT_NE(json.find("\"report\":{"), std::string::npos) << json;
  for (const std::string key :
       {"\"flows\":", "\"members\":", "\"incidents\":",
        "\"ntp_trigger_packets\":", "\"evictions\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " " << json;
  }
  // The bounded production tables never evict on the small world.
  EXPECT_NE(json.find("\"evictions\":0"), std::string::npos) << json;
}

TEST(CliSmoke, ServeRejectsBadShardCounts) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const std::string base = "serve --mrt " + w.mrt() + " --trace " + w.trace() +
                           " --socket " + (w.root / "rej.sock").string();
  for (const std::string bad : {"0", "5000"}) {
    const auto r = run_cli(base + " --shards " + bad, w.log);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(
        r.output.find("--shards must be between 1 and 4096, got: '" + bad + "'"),
        std::string::npos)
        << r.output;
  }
  EXPECT_FALSE(fs::exists(w.root / "rej.sock"));
}

/// Minimal control-socket client: connects once, sends LF-terminated
/// request lines, reads response lines until the status line ("ok..." /
/// "err..."; payload lines never start with either).
class ControlClient {
 public:
  explicit ControlClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  socket_path.c_str());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ControlClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  /// Sends `request` and returns every response line (status line last).
  std::vector<std::string> transact(const std::string& request) {
    return transact_raw(request + "\n");
  }

  /// Sends `wire` as-is and returns every response line; empty when the
  /// server has closed the connection.
  std::vector<std::string> transact_raw(const std::string& wire) {
    std::vector<std::string> lines;
    if (::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      return lines;
    }
    std::string line;
    while (read_line(line)) {
      lines.push_back(line);
      if (line.rfind("ok", 0) == 0 || line.rfind("err", 0) == 0) break;
    }
    return lines;
  }

 private:
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

TEST(CliSmoke, ServeEndToEndOverControlSocket) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const std::string sock = (w.root / "ctl.sock").string();
  const fs::path daemon_log = w.root / "serve.log";

  // One-shot oracle with the same detection knobs.
  const auto detect = run_cli("detect --mrt " + w.mrt() + " --trace " +
                                  w.trace() + " --window 1800",
                              w.log);
  ASSERT_EQ(detect.exit_code, 0) << detect.output;
  const std::string want_health = line_with(detect.output, "health:");
  ASSERT_FALSE(want_health.empty());
  std::vector<std::string> want_alerts;
  {
    std::istringstream lines(detect.output);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("alert:", 0) == 0) want_alerts.push_back(line);
    }
  }
  ASSERT_FALSE(want_alerts.empty());
  // serve's alert listing is in canonical (ts, member) order; detect
  // prints stream order. Compare as sorted sets of lines.
  std::sort(want_alerts.begin(), want_alerts.end());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: become the daemon, output to the log file.
    const int out = ::open(daemon_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out >= 0) {
      ::dup2(out, 1);
      ::dup2(out, 2);
      ::close(out);
    }
    ::execl(SPOOFSCOPE_CLI_BIN, SPOOFSCOPE_CLI_BIN, "serve", "--mrt",
            w.mrt().c_str(), "--trace", w.trace().c_str(), "--socket",
            sock.c_str(), "--shards", "3", "--window", "1800",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Wait for the daemon to bind (or die trying).
  bool up = false;
  for (int i = 0; i < 400 && !up; ++i) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
        << "daemon exited early:\n" << slurp(daemon_log);
    ControlClient probe(sock);
    up = probe.connected();
    if (!up) ::usleep(25 * 1000);
  }
  ASSERT_TRUE(up) << slurp(daemon_log);

  {
    ControlClient first(sock);
    ASSERT_TRUE(first.connected());
    const auto submitted = first.transact("submit " + w.trace());
    ASSERT_FALSE(submitted.empty());
    EXPECT_EQ(submitted.back().rfind("ok submitted flows=", 0), 0u)
        << submitted.back();
  }

  {
    // A client that never sends a newline is cut off at the request-line
    // cap, and the daemon serves the next connection as before.
    ControlClient flood(sock);
    ASSERT_TRUE(flood.connected());
    const auto refused = flood.transact_raw(
        std::string(spoofscope::service::kMaxRequestLine + 1, 'x'));
    ASSERT_EQ(refused.size(), 1u);
    EXPECT_EQ(refused[0], "err request line too long");
    EXPECT_TRUE(flood.transact("health").empty())
        << "connection stays open after an over-long line";
  }

  ControlClient client(sock);
  ASSERT_TRUE(client.connected());

  const auto drained = client.transact("drain");
  ASSERT_FALSE(drained.empty());
  EXPECT_EQ(drained.back().rfind("ok drained", 0), 0u) << drained.back();

  const auto health = client.transact("health");
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0], want_health);
  EXPECT_EQ(health[1].rfind("ok shards=3 processed=", 0), 0u) << health[1];

  const auto stats = client.transact("stats-json");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[1], "ok");
  EXPECT_EQ(stats[0].front(), '{');
  EXPECT_NE(stats[0].find("\"shards\":3"), std::string::npos) << stats[0];
  EXPECT_NE(stats[0].find("\"detector\":{"), std::string::npos) << stats[0];

  auto alerts = client.transact("alerts");
  ASSERT_GE(alerts.size(), 2u);
  EXPECT_EQ(alerts.back(),
            "ok alerts=" + std::to_string(want_alerts.size()));
  alerts.pop_back();
  std::sort(alerts.begin(), alerts.end());
  EXPECT_EQ(alerts, want_alerts);

  const auto bogus = client.transact("restart now");
  ASSERT_EQ(bogus.size(), 1u);
  EXPECT_EQ(bogus[0], "err unknown command: restart");

  const auto bye = client.transact("shutdown");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "ok shutting-down");

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << slurp(daemon_log);
  EXPECT_FALSE(fs::exists(sock)) << "socket not unlinked on shutdown";
}

TEST(CliSmoke, UnwritableLabelsPathFails) {
  auto& w = cli_world();
  ASSERT_TRUE(w.generated);
  const auto r = run_cli(
      "classify --mrt " + w.mrt() + " --trace " + w.trace() +
          " --labels /nonexistent-spoofscope-dir/labels.csv",
      w.log);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

}  // namespace
