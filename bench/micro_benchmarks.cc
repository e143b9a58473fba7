// Google-benchmark micro benchmarks for the hot substrate paths: FM sketch
// operations, partial-aggregate combines, event-queue throughput, topology
// generation, and a full small WILDFIRE query as an end-to-end unit.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/query_service.h"
#include "core/sweep.h"
#include "protocols/combiner.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/session.h"
#include "sketch/fm_sketch.h"
#include "topology/generators.h"

namespace validity {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  auto zipf = ZipfGenerator::Make(10, 500, 1.0);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(zipf->Sample(&rng));
}
BENCHMARK(BM_ZipfSample);

void BM_FmInsertDistinct(benchmark::State& state) {
  sketch::FmSketch s(sketch::FmParams{16});
  Rng rng(1);
  for (auto _ : state) s.InsertDistinctElement(&rng);
}
BENCHMARK(BM_FmInsertDistinct);

void BM_FmForMagnitude(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::FmSketch::ForMagnitude(
        sketch::FmParams{16}, static_cast<uint64_t>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_FmForMagnitude)->Arg(10)->Arg(500)->Arg(100000);

void BM_FmMergeOr(benchmark::State& state) {
  Rng rng(1);
  sketch::FmSketch a =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 1000, &rng);
  sketch::FmSketch b =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 2000, &rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.MergeOr(b));
  state.SetLabel(sketch::ActiveSketchKernel());
}
BENCHMARK(BM_FmMergeOr);

void BM_FmMergeOrScalar(benchmark::State& state) {
  // The portable word loop, pinned: the gap to BM_FmMergeOr is the SIMD
  // kernel's win on this machine (zero on hardware without AVX2).
  Rng rng(1);
  sketch::FmSketch a =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 1000, &rng);
  sketch::FmSketch b =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{16}, 2000, &rng);
  sketch::ForceScalarSketchKernels(true);
  for (auto _ : state) benchmark::DoNotOptimize(a.MergeOr(b));
  sketch::ForceScalarSketchKernels(false);
}
BENCHMARK(BM_FmMergeOrScalar);

void BM_CombinerCombineFm(benchmark::State& state) {
  Rng rng(1);
  protocols::PartialAggregate a = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 0, 250, sketch::FmParams{16}, &rng);
  protocols::PartialAggregate b = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 1, 400, sketch::FmParams{16}, &rng);
  for (auto _ : state) {
    protocols::PartialAggregate c = a;
    benchmark::DoNotOptimize(c.CombineFrom(b));
  }
}
BENCHMARK(BM_CombinerCombineFm);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int64_t sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      q.ScheduleAt(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    q.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventQueueTypedScheduleRun(benchmark::State& state) {
  // The allocation-free protocol path: tagged POD events dispatched through
  // the installed handler, no closures anywhere.
  struct Counter {
    int64_t fired = 0;
    static void Handle(void* ctx, const sim::Event& event) {
      static_cast<Counter*>(ctx)->fired += static_cast<int64_t>(event.payload);
    }
  };
  for (auto _ : state) {
    sim::EventQueue q;
    Counter counter;
    q.SetTypedHandler(&Counter::Handle, &counter);
    for (int i = 0; i < state.range(0); ++i) {
      q.ScheduleTyped(static_cast<double>(i % 97), sim::EventTag::kTimer, 0,
                      kInvalidHost, 0, 1);
    }
    q.RunAll();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueTypedScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorBroadcastFanout(benchmark::State& state) {
  // Hub broadcast on a star: one message slab slot shared by N-1 typed
  // deliveries (includes simulator construction, so this tracks the CSR
  // build as well).
  auto graph = topology::MakeStar(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    sim::Message msg;
    msg.kind = 1;
    simulator.SendToNeighbors(0, msg);
    simulator.Run();
    benchmark::DoNotOptimize(simulator.metrics().messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) - 1));
}
BENCHMARK(BM_SimulatorBroadcastFanout)->Arg(1000)->Arg(100000);

void BM_MakeRandomTopology(benchmark::State& state) {
  for (auto _ : state) {
    auto g = topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0,
                                  42);
    benchmark::DoNotOptimize(g->num_edges());
  }
}
BENCHMARK(BM_MakeRandomTopology)->Arg(1000)->Arg(10000);

void BM_WildfireCountQuery(benchmark::State& state) {
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  for (auto _ : state) {
    auto result = engine.Run(spec, core::RunConfig{}, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WildfireCountQuery)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_WildfireCountQueryFaulted(benchmark::State& state) {
  // The active fault path for scale: drops, duplicates, and delays all
  // firing. Not a regression gate (the workload legitimately differs) —
  // recorded so fault-plane changes have a yardstick.
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  core::RunConfig config;
  config.fault.drop_rate = 0.1;
  config.fault.duplicate_rate = 0.1;
  config.fault.delay_rate = 0.1;
  config.fault.max_delay_hops = 2;
  for (auto _ : state) {
    auto result = engine.Run(spec, config, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WildfireCountQueryFaulted)
    ->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_SpanningTreeCountQuery(benchmark::State& state) {
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  core::RunConfig config;
  config.protocol = protocols::ProtocolKind::kSpanningTree;
  for (auto _ : state) {
    auto result = engine.Run(spec, config, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpanningTreeCountQuery)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_ChurnSweep(benchmark::State& state) {
  // The figure workload in miniature: a (churn level, trial, protocol) grid
  // through the parallel sweep driver. Arg = worker threads; output is
  // bit-identical across thread counts, wall clock scales with the
  // hardware's real parallelism (on a single-core host all thread counts
  // cost the same).
  auto graph = topology::MakeRandom(1500, 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  std::vector<core::ProtocolSpec> lineup;
  lineup.push_back({"wildfire", protocols::ProtocolKind::kWildfire,
                    protocols::ProtocolOptions{}});
  lineup.push_back({"spanning-tree", protocols::ProtocolKind::kSpanningTree,
                    protocols::ProtocolOptions{}});
  core::ChurnSweepOptions options;
  options.trials = 4;
  options.threads = static_cast<uint32_t>(state.range(0));
  const std::vector<uint32_t> removals{32, 96};
  for (auto _ : state) {
    auto cells = core::RunChurnSweep(engine, spec, 0, lineup, removals,
                                     options);
    benchmark::DoNotOptimize(cells.front().value.mean);
  }
  // cells = levels * trials * protocols engine runs per iteration.
  state.SetItemsProcessed(state.iterations() * removals.size() *
                          options.trials * lineup.size());
}
BENCHMARK(BM_ChurnSweep)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CombinerCombineCompareFm(benchmark::State& state) {
  // The fused WILDFIRE receive path: combine + same-as-sender in one pass
  // (BM_CombinerCombineFm is the copy + two-pass baseline).
  Rng rng(1);
  protocols::PartialAggregate a = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 0, 250, sketch::FmParams{16}, &rng);
  protocols::PartialAggregate b = protocols::PartialAggregate::Initial(
      protocols::CombinerKind::kFmSum, 1, 400, sketch::FmParams{16}, &rng);
  for (auto _ : state) {
    auto outcome = a.CombineCompare(b);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CombinerCombineCompareFm);

void BM_WildfireDenseCountQuery(benchmark::State& state) {
  // Dense-graph regression guard for the O(1) reverse neighbor-slot lookup:
  // every convergecast receive used to pay an O(degree) scan, quadratic per
  // tick at average degree 60.
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 60.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  for (auto _ : state) {
    auto result = engine.Run(spec, core::RunConfig{}, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WildfireDenseCountQuery)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MillionHostActivation(benchmark::State& state) {
  // The cold-start scenario: construction + first COUNT query, where the
  // broadcast disc touches a small fraction of a large wireless grid.
  // Arg = D-hat (disc radius is 2 * D-hat hops). The grid is implicit —
  // neighbors are served arithmetically and liveness/metrics pages
  // materialize on first touch — so the *whole* cold path (simulator build
  // included) scales with the disc, not the grid.
  constexpr uint32_t kSide = 1000;  // 10^6 hosts
  topology::Topology grid = *topology::Topology::Grid(kSide);
  static std::vector<double> values(grid.num_hosts(), 1.0);
  core::QueryEngine engine(grid, values);
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  spec.d_hat = static_cast<double>(state.range(0));
  core::RunConfig config;
  config.sim_options.medium = sim::MediumKind::kWireless;
  config.compute_validity = false;
  const HostId hq = (kSide / 2) * kSide + kSide / 2;
  size_t resident = 0;
  for (auto _ : state) {
    auto result = engine.Run(spec, config, hq);
    resident = result->resident_state_bytes;
    benchmark::DoNotOptimize(result->value);
  }
  state.counters["resident_state_MB"] =
      static_cast<double>(resident) / 1e6;
}
BENCHMARK(BM_MillionHostActivation)
    ->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_MillionHostActivationCsr(benchmark::State& state) {
  // The same cold query over a materialized graph: every iteration pays the
  // O(n) CSR + table build the implicit path eliminates. The gap to
  // BM_MillionHostActivation is the price of materialization.
  constexpr uint32_t kSide = 1000;
  static auto grid = topology::MakeGrid(kSide);
  static std::vector<double> values(grid->num_hosts(), 1.0);
  core::QueryEngine engine(&*grid, values);
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  spec.d_hat = static_cast<double>(state.range(0));
  core::RunConfig config;
  config.sim_options.medium = sim::MediumKind::kWireless;
  config.compute_validity = false;
  const HostId hq = (kSide / 2) * kSide + kSide / 2;
  for (auto _ : state) {
    auto result = engine.Run(spec, config, hq);
    benchmark::DoNotOptimize(result->value);
  }
}
BENCHMARK(BM_MillionHostActivationCsr)
    ->Arg(10)->Unit(benchmark::kMillisecond);

void BM_SessionReuse(benchmark::State& state) {
  // Same query as BM_WildfireCountQuery, but on a SimulatorSession: the
  // O(n) simulator build/teardown is paid once outside the loop, and every
  // measured iteration is a warm epoch reset + the query itself. The gap to
  // BM_WildfireCountQuery is the per-query construction overhead the
  // session amortizes away.
  auto graph =
      topology::MakeRandom(static_cast<uint32_t>(state.range(0)), 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  sim::SimulatorSession session(&*graph, sim::SimOptions{});
  for (auto _ : state) {
    auto result = engine.Run(&session, spec, core::RunConfig{}, 0);
    benchmark::DoNotOptimize(result->value);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SessionReuse)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_QueryServiceThroughput(benchmark::State& state) {
  // The open-arrival layer end to end: Arg queries submitted against one
  // churning service timeline (staggered arrivals, lane cap 4) and drained
  // to completion. The gap to Arg x BM_SessionReuse is the service's own
  // overhead: admission, arrival/retirement closures, lane multiplexing,
  // and trace recording. Items/s is queries per second.
  auto graph = topology::MakeRandom(1000, 5.0, 42);
  core::QueryEngine engine(&*graph, core::MakeZipfValues(graph->num_hosts(),
                                                         43));
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  core::ServiceOptions options;
  options.max_in_flight = 4;
  const uint64_t queries = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    core::QueryService service(&engine, options);
    for (uint64_t i = 0; i < queries; ++i) {
      core::RunConfig config;
      config.sketch_seed = 100 + i;
      auto id = service.Submit(static_cast<SimTime>(i) * 0.5, spec, config,
                               /*hq=*/0);
      benchmark::DoNotOptimize(id.value());
    }
    service.Drain();
    core::QueryService::Completion done;
    while (service.Poll(&done)) benchmark::DoNotOptimize(done.result.value);
  }
  state.SetItemsProcessed(state.iterations() * queries);
}
BENCHMARK(BM_QueryServiceThroughput)
    ->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_MillionHostSecondQuery(benchmark::State& state) {
  // The session payoff at scale: BM_MillionHostActivation measures the
  // *cold* path; here the 10^6-host simulator is cached in a session and
  // warmed by one query, so every measured iteration is the *second*
  // query — epoch reset plus disc-proportional work. With the implicit
  // grid the cold and warm paths now differ only by the warm pages and
  // pools. Arg = D-hat (disc radius is 2 * D-hat hops).
  constexpr uint32_t kSide = 1000;  // 10^6 hosts
  topology::Topology grid = *topology::Topology::Grid(kSide);
  static std::vector<double> values(grid.num_hosts(), 1.0);
  core::QueryEngine engine(grid, values);
  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;
  spec.d_hat = static_cast<double>(state.range(0));
  core::RunConfig config;
  config.sim_options.medium = sim::MediumKind::kWireless;
  config.compute_validity = false;
  const HostId hq = (kSide / 2) * kSide + kSide / 2;
  sim::SimulatorSession session(grid, config.sim_options);
  {
    auto warm = engine.Run(&session, spec, config, hq);  // first query: cold
    benchmark::DoNotOptimize(warm->value);
  }
  size_t resident = 0;
  for (auto _ : state) {
    auto result = engine.Run(&session, spec, config, hq);
    resident = result->resident_state_bytes;
    benchmark::DoNotOptimize(result->value);
  }
  state.counters["resident_state_MB"] =
      static_cast<double>(resident) / 1e6;
}
BENCHMARK(BM_MillionHostSecondQuery)
    ->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_ExponentialChurnMaterialized(benchmark::State& state) {
  // Baseline: build + sort the event vector, then schedule (the pre-PR-2
  // MakeExponentialLifetimeChurn + ScheduleChurn path).
  auto graph = topology::MakeRandom(static_cast<uint32_t>(state.range(0)),
                                    5.0, 42);
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    Rng rng(7);
    auto events = sim::MakeExponentialLifetimeChurn(
        graph->num_hosts(), 0, /*mean_lifetime=*/10.0, /*horizon=*/30.0,
        &rng);
    sim::ScheduleChurn(&simulator, events);
    benchmark::DoNotOptimize(events.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialChurnMaterialized)->Arg(100000);

void BM_ExponentialChurnDirect(benchmark::State& state) {
  // Same lifetimes fed straight to the calendar heap: no vector, no sort.
  auto graph = topology::MakeRandom(static_cast<uint32_t>(state.range(0)),
                                    5.0, 42);
  for (auto _ : state) {
    sim::Simulator simulator(*graph, sim::SimOptions{});
    Rng rng(7);
    uint32_t scheduled = sim::ScheduleExponentialLifetimeChurn(
        &simulator, 0, /*mean_lifetime=*/10.0, /*horizon=*/30.0, &rng);
    benchmark::DoNotOptimize(scheduled);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialChurnDirect)->Arg(100000);

}  // namespace
}  // namespace validity

BENCHMARK_MAIN();
