// The resident multi-vantage detection server: one shared compiled
// plane, N ingest shards (Shard), a router scattering
// submitted trace segments across them by member AS, and the merge
// stage fusing per-shard alerts and health into the service-wide view.
//
// The server is synchronous at the segment level: submit() decodes a
// trace file batch-at-a-time on the calling (control) thread, routes
// each batch to the shard queues — the shards classify and detect in
// parallel — and barriers before returning, so every control verb
// observes a quiescent, consistent fleet. Within a segment the shards
// overlap with the decode+route loop; across segments the detector
// state persists, so submitting a trace in segments equals submitting
// it whole, which in turn equals the one-shot `detect` run (the
// differential suites assert both equalities bit for bit).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "classify/flat_classifier.hpp"
#include "classify/streaming.hpp"
#include "net/flow_batch.hpp"
#include "service/merge.hpp"
#include "service/router.hpp"
#include "service/shard.hpp"
#include "util/error_policy.hpp"
#include "util/thread_pool.hpp"

namespace spoofscope::service {

struct ServerConfig {
  std::size_t shards = 1;
  std::size_t space_idx = 0;
  classify::StreamingParams params;
  /// Per-shard delta chains live here as shard-<i>-of-<n>.ckpt; empty
  /// disables checkpointing.
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 0;
  std::size_t max_chain = 16;
  bool resume = false;  ///< restore each shard's chain in start()
  util::ErrorPolicy policy = util::ErrorPolicy::kStrict;
  /// Flows decoded per routing round of a submit.
  std::size_t batch_flows = std::size_t{1} << 15;
  /// Optional pool for reload-updates plane repaint fan-out.
  util::ThreadPool* pool = nullptr;
};

/// One submit's outcome.
struct SubmitResult {
  std::uint64_t flows = 0;   ///< records delivered to shards this segment
  std::uint64_t alerts = 0;  ///< alerts raised this segment
  util::IngestStats stats;   ///< trace-decode accounting
};

/// One reload-updates' outcome.
struct ReloadResult {
  classify::FlatClassifier::UpdateApplyStats stats;
  std::size_t updates = 0;    ///< UPDATE messages in the file
  std::size_t rib_lines = 0;  ///< TABLE_DUMP lines ignored
  std::uint64_t epoch = 0;    ///< plane epoch after the patch
  util::IngestStats ingest;   ///< MRT-lite parse accounting
};

struct DrainResult {
  std::uint64_t processed = 0;
  std::uint64_t alerts = 0;
};

class Server {
 public:
  /// Every shard classifies against `plane`; reload_updates patches it
  /// in place.
  Server(std::shared_ptr<classify::FlatClassifier> plane, ServerConfig cfg);

  ~Server();

  struct ResumeInfo {
    std::size_t shards_restored = 0;
    std::uint64_t flows = 0;  ///< total flows the restored cuts had processed
  };

  /// Resumes the shard checkpoint chains (when configured) and launches
  /// the worker threads.
  ResumeInfo start();

  /// Decodes `trace_path`, routes it across the shards, barriers. A
  /// strict-mode decode error still delivers the clean prefix to the
  /// shards before rethrowing, mirroring the one-shot detect command.
  SubmitResult submit(const std::string& trace_path);

  /// Routes one in-memory batch without barriering (the bench and the
  /// in-process tests drive this; pair with barrier()).
  void submit_batch(const net::FlowBatch& batch);

  /// Waits until every shard is idle; rethrows the first dead shard's
  /// stored error.
  void barrier();

  /// Quiesces and snapshots the merged service stats.
  ServiceStats stats();

  /// Quiesces and returns all alerts in canonical (ts, member) order.
  std::vector<classify::SpoofingAlert> merged_alerts();

  /// Applies an MRT-lite route-churn file to the shared plane in place,
  /// with the shards quiesced; each detector picks the patch up through
  /// the plane's epoch(). Malformed lines throw under the strict policy
  /// (the plane is untouched) and are counted in `ingest` under skip.
  ReloadResult reload_updates(const std::string& mrt_path);

  /// Quiesces and cuts a checkpoint on every shard (no-op without a
  /// checkpoint dir).
  void checkpoint();

  /// Flushes every detector (reorder-buffer drain + final checkpoint
  /// cut) and barriers.
  DrainResult drain();

  /// Stops the worker threads (queued work drains first). Idempotent.
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  std::uint64_t plane_epoch() const;
  std::uint64_t segments() const { return segments_; }

 private:
  void build_shards();
  std::uint64_t total_alerts_quiesced() const;

  ServerConfig cfg_;
  std::shared_ptr<classify::FlatClassifier> plane_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardRouter router_;
  std::vector<net::FlowBatch> lanes_;  ///< routing scratch
  std::uint64_t segments_ = 0;
};

/// Binds a Unix-domain stream socket at `socket_path` and serves the
/// control protocol (service/control.hpp) until a `shutdown` request:
/// one client at a time, one request line per response. Progress lines
/// go to `log`. Returns 0 on clean shutdown; throws std::runtime_error
/// if the socket cannot be created.
int run_control_loop(Server& server, const std::string& socket_path,
                     std::ostream& log);

}  // namespace spoofscope::service
