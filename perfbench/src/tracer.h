// Spans for the traced run, recorded from outside the library around the
// calls into each layer's public functions.
//
// A span is (query, layer, start, end, parent). Spans live in memory and
// are written out as JSONL when the run ends. Simulator callbacks are too
// many to record one span each (a GOSSIP query runs ~10^6), so the
// TimingProgram wrapper coalesces one query's callbacks into a single span
// that carries their estimated summed duration as `busy_ns`; every other
// span's busy time is its own duration. A span's self time is its busy
// time minus the busy time of its children.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "util.h"

namespace perfbench {

struct Span {
  uint32_t query = 0;
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t busy_ns = 0;
  /// Index of the enclosing span in Tracer::spans(); kNoParent for roots.
  uint32_t parent = 0;
};

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Opens a span under the innermost open span (a root if none is open).
  uint32_t Begin(uint32_t query, const char* layer);
  void End(uint32_t span);
  /// Records a finished coalesced span under the innermost open span.
  void AddCoalesced(uint32_t query, const char* layer, int64_t start_ns,
                    int64_t end_ns, int64_t busy_ns);

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfNs() const;
  /// Summed self time of the spans of `layer` (all queries), in ns.
  double LayerSelfNs(const char* layer) const;
  /// Summed busy time of the spans of `layer`, in ns.
  double LayerBusyNs(const char* layer) const;

  /// Copies `other`'s finished spans into this tracer.
  void Append(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t query, const char* layer)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(query, layer) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t span_;
};

/// Host ns one NowNs() call adds to a timed interval (median of repeated
/// back-to-back reads); subtracted from every sampled callback.
double ClockCostNs();

/// Stands in for a query's program on the simulator and times the
/// callbacks into it: protocol handler time, including the sends and
/// combines the handlers call. The inner program sees exactly the calls it
/// would have seen, so results are unchanged.
///
/// Reading the clock around every callback would double the cost of a
/// ~100 ns handler, so one callback in kSampleEvery (drawn by an xorshift
/// stream seeded per wrapper, which no protocol pattern can alias) is
/// timed; the clock's own cost is subtracted and the sum is scaled to all
/// callbacks. Counts are exact.
class TimingProgram : public validity::sim::HostProgram {
 public:
  static constexpr uint64_t kSampleEvery = 16;

  TimingProgram(validity::sim::HostProgram* inner, double clock_cost_ns,
                uint64_t sample_seed)
      : inner_(inner),
        clock_cost_ns_(clock_cost_ns),
        state_(validity::Mix64(sample_seed) | 1) {}

  void OnMessage(validity::HostId self,
                 const validity::sim::Message& msg) override {
    ++messages;
    if (!Sampled()) return inner_->OnMessage(self, msg);
    int64_t t0 = Enter();
    inner_->OnMessage(self, msg);
    Leave(t0);
  }
  void OnTimer(validity::HostId self, uint64_t timer_id) override {
    ++timers;
    if (!Sampled()) return inner_->OnTimer(self, timer_id);
    int64_t t0 = Enter();
    inner_->OnTimer(self, timer_id);
    Leave(t0);
  }
  void OnNeighborFailure(validity::HostId self,
                         validity::HostId failed) override {
    ++failure_callbacks;
    if (!Sampled()) return inner_->OnNeighborFailure(self, failed);
    int64_t t0 = Enter();
    inner_->OnNeighborFailure(self, failed);
    Leave(t0);
  }

  uint64_t callbacks() const { return messages + timers + failure_callbacks; }
  /// Estimated host ns spent in all callbacks so far.
  int64_t busy_ns() const;
  /// Emits the coalesced span of every callback so far; nothing if none.
  void Flush(Tracer* tracer, uint32_t query, const char* layer) const;

  uint64_t messages = 0;
  uint64_t timers = 0;
  uint64_t failure_callbacks = 0;

 private:
  bool Sampled() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_ % kSampleEvery == 0;
  }
  int64_t Enter() {
    int64_t t = NowNs();
    if (first_ns_ == 0) first_ns_ = t;
    return t;
  }
  void Leave(int64_t t0) {
    last_ns_ = NowNs();
    sampled_ns_ += last_ns_ - t0;
    ++sampled_;
  }

  validity::sim::HostProgram* inner_;
  double clock_cost_ns_;
  uint64_t state_;  // xorshift state, never 0
  uint64_t sampled_ = 0;
  int64_t sampled_ns_ = 0;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
