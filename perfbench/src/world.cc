#include <cstdio>

#include "common/rng.h"
#include "protocols/combiner.h"
#include "topology/generators.h"
#include "topology/topology.h"
#include "workloads.h"

namespace perfbench {

using namespace validity;

World BuildWorld(const NetworkSpec& spec, SetupTimes* times) {
  World world;
  int64_t t0 = NowNs();
  world.graph = std::make_unique<topology::Graph>(
      *topology::MakeGnutellaLike(spec.gnutella_hosts, spec.graph_seed));
  topology::Topology topo = topology::Topology::FromGraph(world.graph.get());
  int64_t t1 = NowNs();
  world.engine = std::make_unique<core::QueryEngine>(
      topo, core::MakeZipfValues(topo.num_hosts(), spec.values_seed));
  int64_t t2 = NowNs();
  world.engine->EstimatedDiameter();  // computed once, then cached
  int64_t t3 = NowNs();
  times->topology_ms = static_cast<double>(t1 - t0) / 1e6;
  times->diameter_ms = static_cast<double>(t3 - t2) / 1e6;
  times->total_ms = static_cast<double>(t3 - t0) / 1e6;
  return world;
}

void AddLayerMetrics(const LayerValues& v, Report* r) {
  r->Add("topology.build_ms", v.topology_build_ms, "ms");
  r->Add("topology.diameter_ms", v.topology_diameter_ms, "ms");
  r->Add("session.build_ms", v.session_build_ms, "ms");
  r->Add("session.reset_us", v.session_reset_us, "us");
  r->Add("session.table_mb", v.session_table_mb, "MB");
  r->Add("sim.events", v.sim_events, "count");
  r->Add("sim.self_ms", v.sim_self_ms, "ms");
  r->Add("sim.ns_per_event", v.sim_ns_per_event, "ns");
  r->Add("sim.sends", v.sim_sends, "count");
  r->Add("sim.deliveries", v.sim_deliveries, "count");
  r->Add("sim.timers", v.sim_timers, "count");
  r->Add("sim.failure_callbacks", v.sim_failure_callbacks, "count");
  r->Add("fault.drops", v.fault_drops, "count");
  r->Add("protocols.handler_ms", v.handler_ms, "ms");
  r->Add("protocols.ns_per_callback", v.ns_per_callback, "ns");
  r->Add("protocols.start_us", v.start_us, "us");
  r->Add("protocols.state_mb", v.state_mb, "MB");
  r->Add("sketch.combine_ns", v.combine_ns, "ns");
  r->Add("sketch.combines", v.combines, "count");
  r->Add("oracle.ms", v.oracle_ms, "ms");
  r->Add("metrics.harvest_us", v.harvest_us, "us");
  r->Add("service.submit_us", v.submit_us, "us");
  r->Add("service.host_ms_per_delta", v.host_ms_per_delta, "ms");
  r->Add("service.lane_occupancy", v.lane_occupancy, "frac");
  r->Add("service.deferred_frac", v.deferred_frac, "frac");
  r->Add("service.queue_wait_p90", v.queue_wait_p90, "delta");
  r->Add("service.retire_hold_p50", v.retire_hold_p50, "delta");
  r->Add("service.peak_in_flight", v.peak_in_flight, "count");
  r->Add("trace.overhead_frac", v.overhead_frac, "frac");
  r->Add("trace.residual_frac", v.residual_frac, "frac");
}

double CombineNs(AggregateKind kind, uint32_t fm_vectors, uint64_t seed) {
  constexpr int kPool = 64;
  constexpr int kFold = 8;     // combines per fresh accumulator
  constexpr int kReps = 4096;  // accumulators per block
  constexpr int kBlocks = 15;
  protocols::CombinerKind combiner = protocols::CombinerFor(kind, false);
  sketch::FmParams params;
  params.num_vectors = fm_vectors;
  Rng rng(seed);
  std::vector<protocols::PartialAggregate> pool;
  pool.reserve(kPool);
  for (int i = 0; i < kPool; ++i) {
    double value = static_cast<double>(10 + rng.NextBelow(491));
    pool.push_back(protocols::PartialAggregate::Initial(
        combiner, static_cast<HostId>(i), value, params, &rng));
  }
  std::vector<double> per_combine;
  uint64_t sink = 0;
  for (int block = 0; block < kBlocks; ++block) {
    int64_t t0 = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      protocols::PartialAggregate acc = pool[rep % kPool];
      for (int j = 0; j < kFold; ++j) {
        auto outcome = acc.CombineCompare(pool[(rep * 7 + j * 13 + 1) % kPool]);
        sink += outcome.changed + 2u * outcome.same_as_other;
      }
    }
    per_combine.push_back(static_cast<double>(NowNs() - t0) /
                          (kReps * kFold));
  }
  // Keeps the combines observable so the loop cannot be elided.
  if (sink == 0) std::fprintf(stderr, "combine sink empty\n");
  return Median(per_combine);
}

}  // namespace perfbench
