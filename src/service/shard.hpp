// One ingest shard of the resident service: a StreamingDetector pinned
// to a dedicated worker thread behind a bounded task queue. The control
// thread routes flow batches in (submit), the worker runs the SIMD
// batch classify + detect path and appends per-shard delta checkpoints
// (state::DeltaChain) at its configured cadence; alerts accumulate in
// shard-local order for the merge stage.
//
// Threading contract: submit()/flush_async()/checkpoint_async() enqueue
// under the shard mutex (blocking when the queue is full — natural
// backpressure toward the control thread); the worker drains the queue
// holding the mutex only around queue ops, so detection itself runs
// unlocked. wait_idle() barriers until the queue is empty and the
// worker is between tasks — the mutex handoff of that barrier is what
// makes the quiescent accessors (alerts(), health(), detector()) and
// plane republish race-free without per-flow synchronization.
//
// A worker exception (e.g. an injected crash during a checkpoint write)
// marks the shard dead: the error is stored, the queue is discarded,
// and wait_idle()/submit() rethrow it. Recovery is a fresh Shard over
// the same checkpoint base — resume() restores the newest consistent
// cut from the delta chain and re-feeding the shard's flow sequence
// fast-forwards through the already-processed prefix, so the restarted
// shard continues bit-identically (the rolling-restart differential
// proves it under every injected crash kind).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "classify/streaming.hpp"
#include "net/flow_batch.hpp"
#include "state/delta_chain.hpp"
#include "util/error_policy.hpp"

namespace spoofscope::service {

struct ShardConfig {
  std::size_t index = 0;        ///< this shard's slot in [0, shard_count)
  std::size_t shard_count = 1;
  std::size_t space_idx = 0;
  classify::StreamingParams params;
  /// Delta-chain base path; empty disables checkpointing.
  std::string checkpoint_base;
  /// Checkpoint after at least this many newly processed flows (0 with
  /// a base path: only explicit checkpoint()/drain cuts).
  std::uint64_t checkpoint_every = 0;
  std::size_t max_chain = 16;   ///< DeltaChain rollover length
  util::ErrorPolicy policy = util::ErrorPolicy::kStrict;
  /// submit() blocks once this many batches are queued (backpressure).
  std::size_t max_queued_batches = 8;
};

class Shard {
 public:
  /// The shared_ptr keeps the plane alive across a wholesale
  /// republish; the plane object must only be mutated while the shard
  /// is quiescent.
  Shard(std::shared_ptr<const classify::FlatClassifier> plane, ShardConfig cfg);

  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Restores the newest consistent cut from the shard's delta chain
  /// (no-op without a checkpoint base). Subsequent ingest fast-forwards
  /// through the first processed() records it is fed. Call before
  /// start(). Returns the flows the restored cut had processed (0 on a
  /// clean first run).
  std::uint64_t resume(util::IngestStats* stats = nullptr);

  /// Launches the worker thread. Idempotent.
  void start();

  /// Enqueues one routed batch (moved in). Blocks while the queue is
  /// full; rethrows the shard's stored error if the worker died.
  void submit(net::FlowBatch batch);

  /// Enqueues a detector flush (drains the reorder buffer) and, when
  /// checkpointing is configured, a final checkpoint cut.
  void flush_async();

  /// Enqueues an explicit checkpoint cut.
  void checkpoint_async();

  /// Blocks until every queued task has run and the worker is idle;
  /// rethrows the worker's stored exception if it died (preserving the
  /// original type — util::InjectedCrash stays an InjectedCrash).
  void wait_idle();

  /// Stops the worker after the queued tasks drain. Idempotent; the
  /// destructor calls it.
  void stop();

  /// True once the worker died on an exception (until replaced).
  bool dead() const;

  // Quiescent accessors: valid only after wait_idle() (or before
  // start()); the idle barrier's mutex handoff publishes the worker's
  // writes.
  const std::vector<classify::SpoofingAlert>& alerts() const { return alerts_; }
  classify::DetectorHealth health() const { return detector_.health(); }
  std::uint64_t processed() const { return detector_.processed(); }
  const ShardConfig& config() const { return cfg_; }

  /// Re-syncs the shard with the hub's current plane (quiescent only):
  /// a different plane object rebinds the detector; the same object
  /// patched in place is picked up via the detector's epoch sync on the
  /// next ingest.
  void republish(std::shared_ptr<const classify::FlatClassifier> plane);

 private:
  enum class Op { kBatch, kFlush, kCheckpoint };
  struct Task {
    Op op = Op::kBatch;
    net::FlowBatch batch;
  };

  void worker();
  void run_task(Task& task);
  void ingest(const net::FlowBatch& batch);
  void save_checkpoint();

  ShardConfig cfg_;
  std::shared_ptr<const classify::FlatClassifier> plane_;
  classify::StreamingDetector detector_;
  std::optional<state::DeltaChain> chain_;
  std::uint64_t skip_records_ = 0;  ///< resume fast-forward remaining
  std::uint64_t last_saved_ = 0;
  std::vector<classify::SpoofingAlert> alerts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< task available / queue slot free
  std::condition_variable idle_cv_;  ///< queue drained + worker idle
  std::deque<Task> queue_;
  bool busy_ = false;
  bool stopping_ = false;
  bool dead_ = false;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace spoofscope::service
