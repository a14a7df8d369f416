#include "service/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "classify/flat_classifier.hpp"

namespace spoofscope::service {

Shard::Shard(std::shared_ptr<const classify::FlatClassifier> plane,
             ShardConfig cfg)
    : cfg_(std::move(cfg)),
      plane_(std::move(plane)),
      detector_(*plane_, cfg_.space_idx, cfg_.params) {
  if (!cfg_.checkpoint_base.empty()) {
    chain_.emplace(cfg_.checkpoint_base, cfg_.max_chain);
  }
}

Shard::~Shard() { stop(); }

std::uint64_t Shard::resume(util::IngestStats* stats) {
  if (!chain_) return 0;
  const state::DeltaResume res = chain_->resume(detector_, cfg_.policy, stats);
  skip_records_ = res.restored ? detector_.processed() : 0;
  last_saved_ = detector_.processed();
  return skip_records_;
}

void Shard::start() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { worker(); });
}

void Shard::submit(net::FlowBatch batch) {
  std::unique_lock lk(mu_);
  work_cv_.wait(lk, [this] {
    return dead_ || stopping_ || queue_.size() < cfg_.max_queued_batches;
  });
  if (dead_) std::rethrow_exception(error_);
  if (stopping_) throw std::runtime_error("shard is stopping");
  Task task;
  task.op = Op::kBatch;
  task.batch = std::move(batch);
  queue_.push_back(std::move(task));
  work_cv_.notify_all();
}

void Shard::flush_async() {
  std::unique_lock lk(mu_);
  if (dead_) std::rethrow_exception(error_);
  queue_.push_back(Task{Op::kFlush, {}});
  work_cv_.notify_all();
}

void Shard::checkpoint_async() {
  std::unique_lock lk(mu_);
  if (dead_) std::rethrow_exception(error_);
  queue_.push_back(Task{Op::kCheckpoint, {}});
  work_cv_.notify_all();
}

void Shard::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return dead_ || (!busy_ && queue_.empty()); });
  if (dead_) std::rethrow_exception(error_);
}

void Shard::stop() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Shard::dead() const {
  std::lock_guard lk(mu_);
  return dead_;
}

void Shard::republish(std::shared_ptr<const classify::FlatClassifier> plane) {
  if (plane.get() != plane_.get()) {
    detector_.rebind(*plane);
  }
  plane_ = std::move(plane);
}

void Shard::worker() {
  std::unique_lock lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ with nothing left to drain
    Task task = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lk.unlock();
    work_cv_.notify_all();  // a submit() slot freed up
    try {
      run_task(task);
    } catch (...) {
      lk.lock();
      error_ = std::current_exception();
      dead_ = true;
      busy_ = false;
      queue_.clear();
      idle_cv_.notify_all();
      work_cv_.notify_all();
      return;
    }
    lk.lock();
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

void Shard::run_task(Task& task) {
  const auto on_alert = [this](const classify::SpoofingAlert& alert) {
    alerts_.push_back(alert);
  };
  switch (task.op) {
    case Op::kBatch: {
      ingest(task.batch);
      if (chain_ && cfg_.checkpoint_every != 0 &&
          detector_.processed() - last_saved_ >= cfg_.checkpoint_every) {
        save_checkpoint();
      }
      break;
    }
    case Op::kFlush:
      detector_.flush(on_alert);
      if (chain_) save_checkpoint();
      break;
    case Op::kCheckpoint:
      if (chain_) save_checkpoint();
      break;
  }
}

void Shard::ingest(const net::FlowBatch& batch) {
  const auto on_alert = [this](const classify::SpoofingAlert& alert) {
    alerts_.push_back(alert);
  };
  std::size_t start = 0;
  if (skip_records_ > 0) {
    start = static_cast<std::size_t>(
        std::min<std::uint64_t>(skip_records_, batch.size()));
    skip_records_ -= start;
  }
  if (start == 0) {
    detector_.ingest_batch(batch, on_alert);
  } else {
    // Resume fast-forward ends mid-batch: feed the tail per record.
    for (std::size_t i = start; i < batch.size(); ++i) {
      detector_.ingest(batch.record(i), on_alert);
    }
  }
}

void Shard::save_checkpoint() {
  const classify::DetectorCheckpointExtra extra{0, plane_->epoch()};
  chain_->append(detector_, extra);
  last_saved_ = detector_.processed();
}

}  // namespace spoofscope::service
