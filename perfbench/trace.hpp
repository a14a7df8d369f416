// Span tracing for the benchmark driver: spans (name, start, end,
// parent, run id) recorded around the driver's calls into each layer,
// kept in memory and reduced when the run ends. A "run" is one pass or
// one set-up of a pipeline; a disabled tracer records nothing, so the
// untraced end-to-end passes carry no tracing cost beyond a branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on construction and closes it on destruction; nests
  /// under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          {name, Clock::now(), {}, tracer_.open_, tracer_.runs_.size() - 1});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[index_].end = Clock::now();
      tracer_.open_ = tracer_.spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Starts a new run of `pipeline`; spans and counts until the next
  /// begin_run belong to it. Returns the run id (-1 when disabled).
  int begin_run(const std::string& pipeline) {
    if (!enabled_) return -1;
    runs_.push_back({pipeline, {}});
    return static_cast<int>(runs_.size()) - 1;
  }

  /// Adds `value` to a per-run counter recorded at a layer boundary.
  void count(const std::string& name, double value) {
    if (enabled_ && !runs_.empty()) runs_.back().counters[name] += value;
  }

  /// Sets a per-run gauge (last value wins).
  void gauge(const std::string& name, double value) {
    if (enabled_ && !runs_.empty()) runs_.back().counters[name] = value;
  }

  /// Per-run reduction: each span name's total self time (its duration
  /// minus the part its child spans cover), plus the run's counters.
  struct RunSummary {
    std::string pipeline;
    std::map<std::string, double> self_seconds;
    std::map<std::string, double> counters;
    double root_seconds = 0;  ///< wall time of the run's top-level spans
  };

  std::vector<RunSummary> summarize() const {
    std::vector<RunSummary> out(runs_.size());
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      out[r].pipeline = runs_[r].pipeline;
      out[r].counters = runs_[r].counters;
    }
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[s.parent] += seconds_between(s.start, s.end);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double dur = seconds_between(s.start, s.end);
      out[s.run].self_seconds[s.name] += dur - child[i];
      if (s.parent < 0) out[s.run].root_seconds += dur;
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    std::size_t run;
  };
  struct Run {
    std::string pipeline;
    std::map<std::string, double> counters;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Run> runs_;
  int open_ = -1;
};

}  // namespace perfbench
