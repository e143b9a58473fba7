// Shared helpers of validity_bench: host clock, order statistics,
// the output digest, peak RSS, and the one-line JSON report.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host seconds elapsed since `start_ns` (a NowNs() reading).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> xs, double q);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Moves the calling thread to each CPU it may run on, in turn. On a shared
/// host each CPU is slowed by neighbouring load in its own periods of
/// seconds to minutes (README.md), so timed work is spread over every CPU
/// and each operation keeps its fastest time. Does nothing where the CPU
/// set cannot be read or changed.
class CpuRotation {
 public:
  /// Host time spent on one CPU before Tick() moves on.
  static constexpr int64_t kStintNs = 250'000'000;

  CpuRotation();
  /// Pins the thread to the next CPU of the set.
  void Next();
  /// Calls Next() once kStintNs have passed since the last move.
  void Tick() {
    if (NowNs() - moved_at_ns_ >= kStintNs) Next();
  }
  /// CPUs in the set; 1 where it cannot be read.
  size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t moved_at_ns_ = 0;
};

/// Order-sensitive 64-bit digest over simulated outputs. Two runs of one
/// build must produce the same digest; a speed-up that changes any
/// simulated statistic changes it.
class Digest {
 public:
  void Add(uint64_t x);
  void AddDouble(double x);
  /// Every simulated field of a query result except the ORACLE's: value,
  /// cost report, D-hat and residency.
  void AddSimulated(const validity::core::QueryResult& r);
  /// AddSimulated plus the validity report and the exact full aggregate.
  void AddResult(const validity::core::QueryResult& r);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ull;
};

/// True iff every field of `a` and `b` is bit-identical.
bool SameResult(const validity::core::QueryResult& a,
                const validity::core::QueryResult& b);
/// SameResult without the ORACLE fields (for runs that differ only in
/// RunConfig::compute_validity).
bool SameSimulated(const validity::core::QueryResult& a,
                   const validity::core::QueryResult& b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result. Printed as the last stdout line, one JSON
/// object with exactly the keys correct/attempted/failed/metrics.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; `ok` false makes it a failure, named
  /// on stderr by `what`.
  void Check(bool ok, const char* what);
};

void PrintReport(const Report& report);

/// Command-line settings shared by every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSONL); empty = nowhere.
  std::string trace_out;
};

/// Repetitions of the set-up phase on each CPU.
inline constexpr int kSetupRepeats = 5;

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
