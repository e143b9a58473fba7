#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  moved_at_ns_ = NowNs();
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(set), &set);  // best effort
}

void Digest::Add(uint64_t x) { h_ = validity::Mix64(h_ ^ x) + 0x9e37u; }

void Digest::AddDouble(double x) { Add(std::bit_cast<uint64_t>(x)); }

void Digest::AddSimulated(const validity::core::QueryResult& r) {
  AddDouble(r.value);
  Add(r.declared);
  Add(r.cost.messages);
  Add(r.cost.bytes);
  Add(r.cost.max_processed);
  AddDouble(r.cost.declared_at);
  AddDouble(r.cost.last_update_at);
  Add(r.cost.sends_per_tick.size());
  for (uint64_t s : r.cost.sends_per_tick) Add(s);
  for (const auto& [value, count] : r.cost.computation_histogram.Items()) {
    Add(static_cast<uint64_t>(value));
    Add(static_cast<uint64_t>(count));
  }
  AddDouble(r.d_hat_used);
  Add(r.resident_state_bytes);
}

void Digest::AddResult(const validity::core::QueryResult& r) {
  AddSimulated(r);
  AddDouble(r.validity.q_low);
  AddDouble(r.validity.q_high);
  Add(r.validity.hc_size);
  Add(r.validity.hu_size);
  Add(r.validity.within);
  Add(r.validity.within_slack);
  AddDouble(r.exact_full);
}

bool SameResult(const validity::core::QueryResult& a,
                const validity::core::QueryResult& b) {
  Digest da;
  Digest db;
  da.AddResult(a);
  db.AddResult(b);
  return da.value() == db.value();
}

bool SameSimulated(const validity::core::QueryResult& a,
                   const validity::core::QueryResult& b) {
  Digest da;
  Digest db;
  da.AddSimulated(a);
  db.AddSimulated(b);
  return da.value() == db.value();
}

void Report::Check(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "check failed: %s\n", what);
}

void PrintReport(const Report& report) {
  bool correct = report.failed == 0 && report.attempted > 0;
  for (const Metric& m : report.metrics) {
    correct = correct && std::isfinite(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
