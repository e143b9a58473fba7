// The benchmark's workloads. Each is a fixed, seeded list of operations
// split into identical rounds; the first round warms the session and is not
// timed. README.md says why each workload was chosen.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "sim/session.h"
#include "topology/graph.h"
#include "util.h"

namespace perfbench {

/// One closed-loop query: the caller waits for its answer before running
/// the next one.
struct ClosedQuery {
  validity::core::QuerySpec spec;
  validity::core::RunConfig config;
  validity::HostId hq = 0;
};

/// How the set-up phase builds its network: a Gnutella-like graph.
struct NetworkSpec {
  uint32_t gnutella_hosts = 0;
  uint64_t graph_seed = 0;
  uint64_t values_seed = 0;
};

/// Everything the set-up phase builds.
struct World {
  std::unique_ptr<validity::topology::Graph> graph;
  std::unique_ptr<validity::core::QueryEngine> engine;
};

/// Host time of each set-up step, in milliseconds; session_ms is the
/// session's or the service's construction.
struct SetupTimes {
  double topology_ms = 0.0;
  double diameter_ms = 0.0;
  double session_ms = 0.0;
  double total_ms = 0.0;
};

/// Per-layer figures of a traced run. Timings are per query, the median
/// over traced rounds; counts are per round (one pass over the workload's
/// operation list) and exact. A layer a workload does not exercise stays 0.
struct LayerValues {
  double topology_build_ms = 0, topology_diameter_ms = 0;
  double session_build_ms = 0, session_reset_us = 0, session_table_mb = 0;
  double sim_events = 0, sim_self_ms = 0, sim_ns_per_event = 0;
  double sim_sends = 0, sim_deliveries = 0, sim_timers = 0;
  double sim_failure_callbacks = 0, fault_drops = 0;
  double handler_ms = 0, ns_per_callback = 0, start_us = 0, state_mb = 0;
  double combine_ns = 0, combines = 0;
  double oracle_ms = 0, harvest_us = 0;
  double submit_us = 0, host_ms_per_delta = 0, lane_occupancy = 0;
  double deferred_frac = 0, queue_wait_p90 = 0, retire_hold_p50 = 0;
  double peak_in_flight = 0;
  double overhead_frac = 0, residual_frac = 0;
};

/// Adds every per-layer metric, by its BENCHMARK.json name and unit.
void AddLayerMetrics(const LayerValues& v, Report* report);

inline constexpr double kBytesPerMb = 1024.0 * 1024.0;

/// Builds topology, values, engine and the (cached) diameter.
World BuildWorld(const NetworkSpec& spec, SetupTimes* times);

/// A built world plus what the workload runs on (a session or a service),
/// which points into the world.
template <typename Runner>
struct Built {
  World world;
  std::unique_ptr<Runner> runner;  // declared last, so destroyed first
  SetupTimes times;                // per-step medians over the set-ups
};

/// The set-up phase: builds the world and its runner (`make_runner(world)`)
/// kSetupRepeats times on each CPU in turn, times each step, and keeps the
/// last build. The reported times are the per-step medians of the CPU whose
/// median total is lowest (README.md, host drift).
template <typename Runner, typename MakeRunner>
Built<Runner> SetUp(const NetworkSpec& spec, MakeRunner make_runner) {
  Built<Runner> built;
  CpuRotation cpus;
  for (size_t c = 0; c < cpus.size(); ++c) {
    cpus.Next();
    std::vector<double> total, topology, diameter, runner;
    for (int i = 0; i < kSetupRepeats; ++i) {
      built.runner.reset();  // it points into the world being replaced
      SetupTimes t;
      built.world = BuildWorld(spec, &t);
      int64_t t0 = NowNs();
      built.runner = make_runner(built.world);
      t.session_ms = static_cast<double>(NowNs() - t0) / 1e6;
      total.push_back(t.total_ms + t.session_ms);
      topology.push_back(t.topology_ms);
      diameter.push_back(t.diameter_ms);
      runner.push_back(t.session_ms);
    }
    if (c == 0 || Median(total) < built.times.total_ms) {
      built.times.topology_ms = Median(topology);
      built.times.diameter_ms = Median(diameter);
      built.times.session_ms = Median(runner);
      built.times.total_ms = Median(total);
    }
  }
  return built;
}

/// Closed loop: paper §6 churn traffic on a 10,000-host Gnutella-like graph.
Report RunPaperChurn(const RunOptions& options);
/// Open loop: Poisson arrivals into a QueryService under churn and faults.
Report RunServiceFaulty(const RunOptions& options);

/// Median host ns of one PartialAggregate::CombineCompare on `fm`-shaped
/// sketches of `kind`, timed in isolation.
double CombineNs(validity::AggregateKind kind, uint32_t fm_vectors,
                 uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
