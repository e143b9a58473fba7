// The closed-loop workload, paper_churn: one caller runs each query of the
// paper's §6 traffic (5 protocols x {COUNT, SUM} x 3 uniform-churn levels,
// ORACLE on) on one warm SimulatorSession over a 10,000-host Gnutella-like
// graph, and waits for its answer before issuing the next.
//
// The timed run measures QueryEngine::Run; the traced run replays the same
// queries step by step through the public layer APIs (tracer.h) and must
// reproduce every untraced result bit for bit.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/aggregate.h"
#include "common/rng.h"
#include "protocols/factory.h"
#include "protocols/oracle.h"
#include "sim/churn.h"
#include "sim/trace.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

using namespace validity;

namespace {

/// A query's simulated outcome: its result plus the events it executed.
struct Outcome {
  core::QueryResult result;
  uint64_t events = 0;
};

/// The built world plus the warm session every query runs on.
using Bench = Built<sim::SimulatorSession>;

Bench SetUpSession(const NetworkSpec& spec) {
  return SetUp<sim::SimulatorSession>(spec, [](const World& world) {
    return std::make_unique<sim::SimulatorSession>(world.engine->topology(),
                                                   sim::SimOptions{});
  });
}

/// One untraced query through the engine's session path.
bool RunQuery(Bench* bench, const ClosedQuery& q, Outcome* out) {
  StatusOr<core::QueryResult> r =
      bench->world.engine->Run(bench->runner.get(), q.spec, q.config, q.hq);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    return false;
  }
  out->result = *std::move(r);
  out->events = bench->runner->simulator().events_executed();
  return true;
}

/// Exact per-round counts of the traced run.
struct LayerCounts {
  uint64_t events = 0, sends = 0, deliveries = 0, drops = 0;
  uint64_t messages = 0, timers = 0, failure_callbacks = 0;
  uint64_t combine_messages = 0;  // OnMessage calls of WILDFIRE and DAG
  uint64_t overflowed = 0;  // events the recorder could not keep
  uint64_t state_bytes = 0;
  size_t table_bytes = 0;  // max over the round

  /// The counts every traced round must repeat exactly.
  bool SameWork(const LayerCounts& o) const {
    return events == o.events && messages == o.messages &&
           timers == o.timers && failure_callbacks == o.failure_callbacks &&
           combine_messages == o.combine_messages &&
           state_bytes == o.state_bytes;
  }
};

bool MergesSketches(protocols::ProtocolKind kind) {
  return kind == protocols::ProtocolKind::kWildfire ||
         kind == protocols::ProtocolKind::kDag;
}

/// QueryEngine::Run(session, ...) replayed step by step through public
/// APIs, with a span around every layer call. Mirrors the engine's plan for
/// the queries these workloads run (no link faults, no byzantine hosts,
/// no randomized reports). A non-null `recorder` is attached to count
/// sends, deliveries and drops.
Outcome TracedQuery(Bench* bench, const ClosedQuery& q, uint32_t qid,
                    double clock_cost_ns, Tracer* tracer,
                    sim::TraceRecorder* recorder, LayerCounts* counts) {
  const core::QueryEngine& engine = *bench->world.engine;
  sim::SimulatorSession& session = *bench->runner;
  sim::Simulator& sim = session.simulator();
  const protocols::ProtocolKind kind = q.config.protocol;
  const uint32_t park_key = static_cast<uint32_t>(kind);
  ScopedSpan root(tracer, qid, "query");

  const double d_hat = q.spec.d_hat > 0.0
                           ? q.spec.d_hat
                           : static_cast<double>(engine.EstimatedDiameter()) +
                                 core::kDefaultDiameterMargin;
  const double horizon = 2.0 * d_hat * q.config.sim_options.delta;
  protocols::QueryContext ctx;
  ctx.aggregate = q.spec.aggregate;
  ctx.combiner =
      protocols::CombinerFor(q.spec.aggregate, q.spec.exact_combiners);
  ctx.fm.num_vectors = q.spec.fm_vectors;
  ctx.d_hat = d_hat;
  ctx.sketch_seed = q.config.sketch_seed;
  ctx.values = &engine.values();

  {
    ScopedSpan span(tracer, qid, "session.reset");
    session.Reset();
    sim.set_failure_detection(q.config.sim_options.failure_detection ||
                              kind == protocols::ProtocolKind::kSpanningTree ||
                              kind == protocols::ProtocolKind::kDag);
    sim.set_max_events(q.config.sim_options.max_events);
  }
  if (q.config.churn_removals > 0) {
    ScopedSpan span(tracer, qid, "churn.schedule");
    Rng churn_rng(q.config.churn_seed);
    sim::ScheduleChurn(
        &sim, sim::MakeUniformChurn(engine.topology().num_hosts(), q.hq,
                                    q.config.churn_removals,
                                    q.config.churn_start_frac * horizon,
                                    q.config.churn_end_frac * horizon,
                                    &churn_rng));
  }
  std::unique_ptr<protocols::ProtocolBase> protocol;
  {
    ScopedSpan span(tracer, qid, "protocols.acquire");
    if (std::unique_ptr<sim::HostProgram> parked =
            session.TakeParkedProgram(park_key)) {
      protocol.reset(static_cast<protocols::ProtocolBase*>(parked.release()));
      protocols::ResetProtocol(protocol.get(), kind, ctx,
                               q.config.protocol_options);
    } else {
      protocol = protocols::MakeProtocol(kind, &sim, ctx,
                                         q.config.protocol_options);
    }
  }
  TimingProgram timing(protocol.get(), clock_cost_ns, qid);
  sim.AttachTrace(recorder);
  sim.AttachProgram(&timing);
  {
    ScopedSpan span(tracer, qid, "protocols.start");
    protocol->Start(q.hq);
  }
  {
    ScopedSpan span(tracer, qid, "sim.run");
    sim.Run();
    timing.Flush(tracer, qid, "protocols.handlers");
  }

  Outcome out;
  out.events = sim.events_executed();
  core::QueryResult& r = out.result;
  r.value = protocol->result().value;
  r.declared = protocol->result().declared;
  r.d_hat_used = d_hat;
  r.resident_state_bytes = protocol->ResidentStateBytes();
  {
    ScopedSpan span(tracer, qid, "metrics.harvest");
    const sim::Metrics& m = sim.metrics();
    r.cost.messages = m.messages_sent();
    r.cost.bytes = m.bytes_sent();
    r.cost.max_processed = m.MaxProcessed();
    r.cost.declared_at = protocol->result().declared_at;
    r.cost.last_update_at = protocol->result().last_update_at;
    r.cost.sends_per_tick = m.SendsPerTick();
    r.cost.computation_histogram = m.ComputationCostDistribution();
  }
  if (q.config.compute_validity) {
    ScopedSpan span(tracer, qid, "oracle");
    protocols::OracleReport oracle = protocols::ComputeOracle(
        sim, q.hq, 0.0, horizon, q.spec.aggregate, engine.values());
    r.validity.q_low = oracle.q_low;
    r.validity.q_high = oracle.q_high;
    r.validity.hc_size = oracle.hc.size();
    r.validity.hu_size = oracle.hu.size();
    r.validity.within = r.declared && oracle.Contains(r.value);
    r.validity.within_slack =
        r.declared && oracle.ContainsWithin(r.value, core::kApproxSlackFactor);
    r.exact_full = ExactAggregateOverAll(q.spec.aggregate, engine.values(),
                                         engine.topology().num_hosts());
  }
  sim.AttachProgram(nullptr);
  sim.AttachTrace(nullptr);
  session.ParkProgram(park_key, std::move(protocol));

  counts->events += out.events;
  if (recorder != nullptr) {
    counts->sends += recorder->CountOf(sim::TraceEventKind::kSend);
    counts->deliveries += recorder->CountOf(sim::TraceEventKind::kDeliver);
    counts->drops += recorder->CountOf(sim::TraceEventKind::kDrop);
    counts->overflowed += recorder->overflowed();
    recorder->Clear();
  }
  counts->messages += timing.messages;
  counts->timers += timing.timers;
  counts->failure_callbacks += timing.failure_callbacks;
  if (MergesSketches(kind)) counts->combine_messages += timing.messages;
  counts->state_bytes += r.resident_state_bytes;
  counts->table_bytes = std::max(counts->table_bytes, sim.ResidentTableBytes());
  return out;
}

struct ClosedWorkload {
  const char* name;
  NetworkSpec network;
  std::vector<ClosedQuery> round;
};

/// Sampled correctness check outside the timed rounds: seeded queries
/// re-run on a fresh simulator must equal their session runs. Returns
/// valid_frac, the share of the round's declared answers that are valid.
double SampledChecks(Bench* bench, const ClosedWorkload& wl,
                     const std::vector<Outcome>& ref, Rng* sample_rng,
                     Report* report) {
  for (uint32_t i : sample_rng->SampleWithoutReplacement(
           static_cast<uint32_t>(wl.round.size()), 3)) {
    const ClosedQuery& q = wl.round[i];
    StatusOr<core::QueryResult> fresh =
        bench->world.engine->Run(q.spec, q.config, q.hq);
    report->Check(fresh.ok() && SameResult(*fresh, ref[i].result),
                  "fresh run equals session run");
  }
  double declared = 0, within = 0;
  for (const Outcome& o : ref) {
    declared += o.result.declared;
    within += o.result.declared && o.result.validity.within_slack;
  }
  return within / declared;
}

/// Runs the round once, untimed: the reference every later round (and the
/// traced replay) must reproduce bit for bit.
std::vector<Outcome> WarmUp(Bench* bench, const ClosedWorkload& wl,
                            Report* report) {
  std::vector<Outcome> ref(wl.round.size());
  for (size_t i = 0; i < wl.round.size(); ++i) {
    bool ok = RunQuery(bench, wl.round[i], &ref[i]);
    report->Check(ok && ref[i].result.declared, "warm-up query answered");
  }
  Digest digest;
  for (const Outcome& o : ref) {
    digest.AddResult(o.result);
    digest.Add(o.events);
  }
  std::printf("%s digest %016" PRIx64 " over %zu queries\n", wl.name,
              digest.value(), ref.size());
  return ref;
}

/// One timed untraced round; returns its summed query host time (s). A
/// non-null `best_ns` keeps each query's fastest host time so far; a
/// non-null `cpus` moves between queries to the next CPU every stint.
double TimedRound(Bench* bench, const ClosedWorkload& wl,
                  const std::vector<Outcome>& ref, Report* report,
                  std::vector<int64_t>* best_ns, CpuRotation* cpus) {
  int64_t busy = 0;
  Outcome out;
  for (size_t i = 0; i < wl.round.size(); ++i) {
    if (cpus != nullptr) cpus->Tick();
    int64_t t0 = NowNs();
    bool ok = RunQuery(bench, wl.round[i], &out);
    int64_t dt = NowNs() - t0;
    busy += dt;
    if (best_ns != nullptr) (*best_ns)[i] = std::min((*best_ns)[i], dt);
    report->Check(ok && SameResult(out.result, ref[i].result) &&
                      out.events == ref[i].events,
                  "round result equals warm-up result");
  }
  return static_cast<double>(busy) / 1e9;
}

Report RunTimed(const ClosedWorkload& wl, const RunOptions& options) {
  Report report;
  Bench bench = SetUpSession(wl.network);
  std::vector<Outcome> ref = WarmUp(&bench, wl, &report);

  // Each query's host time is its fastest over the timed rounds, which move
  // across every CPU (README.md: neighbouring load only ever slows a query,
  // on one CPU at a time, for seconds to minutes).
  std::vector<int64_t> best_ns(wl.round.size(), INT64_MAX);
  CpuRotation cpus;
  size_t rounds = 0;
  int64_t start = NowNs();
  while (rounds < 3 || SecondsSince(start) < options.seconds) {
    TimedRound(&bench, wl, ref, &report, &best_ns, &cpus);
    ++rounds;
  }
  double rss_mb = PeakRssMb();

  std::vector<double> query_ms;
  double busy_s = 0.0, events = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    query_ms.push_back(static_cast<double>(best_ns[i]) / 1e6);
    busy_s += static_cast<double>(best_ns[i]) / 1e9;
    events += static_cast<double>(ref[i].events);
  }
  Rng check_rng(Mix64(options.seed ^ 0xc4ecull));
  double valid = SampledChecks(&bench, wl, ref, &check_rng, &report);
  std::vector<double> latency;
  for (const Outcome& o : ref) latency.push_back(o.result.cost.declared_at);

  std::printf("%s timed rounds=%zu of %zu queries\n", wl.name, rounds,
              wl.round.size());
  report.Add("setup_s", bench.times.total_ms / 1e3, "s");
  report.Add("queries_per_s", static_cast<double>(ref.size()) / busy_s, "1/s");
  report.Add("query_ms_p50", Quantile(query_ms, 0.5), "ms");
  report.Add("query_ms_p90", Quantile(query_ms, 0.9), "ms");
  report.Add("events_per_s", events / busy_s, "1/s");
  report.Add("peak_rss_mb", rss_mb, "MB");
  report.Add("valid_frac", valid, "frac");
  report.Add("sim_latency_p50", Quantile(latency, 0.5), "delta");
  report.Add("sim_latency_p90", Quantile(latency, 0.9), "delta");
  return report;
}

Report RunTraced(const ClosedWorkload& wl, const RunOptions& options) {
  Report report;
  Bench bench = SetUpSession(wl.network);
  std::vector<Outcome> ref = WarmUp(&bench, wl, &report);
  const size_t n = wl.round.size();
  const double nd = static_cast<double>(n);
  const double clock_cost_ns = ClockCostNs();

  // Counting pass with a TraceRecorder attached: exact send, delivery and
  // drop counts. Its timings are discarded, since recording every event
  // would inflate them.
  LayerCounts first;
  {
    sim::TraceRecorder recorder(size_t{1} << 28);
    Tracer scratch;
    for (size_t i = 0; i < n; ++i) {
      Outcome out = TracedQuery(&bench, wl.round[i], static_cast<uint32_t>(i),
                                clock_cost_ns, &scratch, &recorder, &first);
      report.Check(SameResult(out.result, ref[i].result) &&
                       out.events == ref[i].events,
                   "traced replay equals untraced result");
    }
    report.Check(first.overflowed == 0, "trace recorder kept every event");
  }

  std::vector<double> untraced_qps, traced_qps;
  std::vector<double> reset_us, self_ms, ns_per_event, handler_ms, ns_per_cb;
  std::vector<double> start_us, oracle_ms, harvest_us, residual;
  Tracer all;
  CpuRotation cpus;
  int64_t start = NowNs();
  for (uint32_t round = 0;
       round == 0 || SecondsSince(start) < options.seconds; ++round) {
    cpus.Next();  // the untraced and the traced round share a CPU
    untraced_qps.push_back(
        nd / TimedRound(&bench, wl, ref, &report, nullptr, nullptr));

    Tracer tracer;
    LayerCounts counts;
    int64_t busy = 0;
    for (size_t i = 0; i < n; ++i) {
      int64_t t0 = NowNs();
      Outcome out = TracedQuery(&bench, wl.round[i],
                                round * static_cast<uint32_t>(n) +
                                    static_cast<uint32_t>(i),
                                clock_cost_ns, &tracer, nullptr, &counts);
      busy += NowNs() - t0;
      report.Check(SameResult(out.result, ref[i].result) &&
                       out.events == ref[i].events,
                   "traced replay equals untraced result");
    }
    report.Check(counts.SameWork(first), "layer counts equal across rounds");
    traced_qps.push_back(nd * 1e9 / static_cast<double>(busy));

    double run_self = tracer.LayerSelfNs("sim.run");
    double handlers = tracer.LayerBusyNs("protocols.handlers");
    double callbacks = static_cast<double>(
        counts.messages + counts.timers + counts.failure_callbacks);
    reset_us.push_back(tracer.LayerBusyNs("session.reset") / nd / 1e3);
    self_ms.push_back(run_self / nd / 1e6);
    ns_per_event.push_back(run_self / static_cast<double>(counts.events));
    handler_ms.push_back(handlers / nd / 1e6);
    ns_per_cb.push_back(callbacks == 0 ? 0.0 : handlers / callbacks);
    start_us.push_back(tracer.LayerBusyNs("protocols.start") / nd / 1e3);
    oracle_ms.push_back(tracer.LayerBusyNs("oracle") / nd / 1e6);
    harvest_us.push_back(tracer.LayerBusyNs("metrics.harvest") / nd / 1e3);
    residual.push_back(tracer.LayerSelfNs("query") /
                       tracer.LayerBusyNs("query"));
    all.Append(tracer);
  }
  if (!options.trace_out.empty() && !all.WriteJsonl(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    report.Check(false, "spans written");
  }

  LayerValues v;
  v.topology_build_ms = bench.times.topology_ms;
  v.topology_diameter_ms = bench.times.diameter_ms;
  v.session_build_ms = bench.times.session_ms;
  v.session_reset_us = Median(reset_us);
  v.session_table_mb = static_cast<double>(first.table_bytes) / kBytesPerMb;
  v.sim_events = static_cast<double>(first.events);
  v.sim_self_ms = Median(self_ms);
  v.sim_ns_per_event = Median(ns_per_event);
  v.sim_sends = static_cast<double>(first.sends);
  v.sim_deliveries = static_cast<double>(first.deliveries);
  v.sim_timers = static_cast<double>(first.timers);
  v.sim_failure_callbacks = static_cast<double>(first.failure_callbacks);
  v.fault_drops = static_cast<double>(first.drops);
  v.handler_ms = Median(handler_ms);
  v.ns_per_callback = Median(ns_per_cb);
  v.start_us = Median(start_us);
  v.state_mb = static_cast<double>(first.state_bytes) / nd / kBytesPerMb;
  v.combines = static_cast<double>(first.combine_messages) / nd;
  v.oracle_ms = Median(oracle_ms);
  v.harvest_us = Median(harvest_us);
  v.overhead_frac = 1.0 - Median(traced_qps) / Median(untraced_qps);
  v.residual_frac = Median(residual);
  // The sketch kernel on this workload's FM shapes, timed in isolation.
  std::vector<AggregateKind> kinds;
  for (const ClosedQuery& q : wl.round) {
    if (std::find(kinds.begin(), kinds.end(), q.spec.aggregate) ==
        kinds.end()) {
      kinds.push_back(q.spec.aggregate);
    }
  }
  for (AggregateKind kind : kinds) {
    v.combine_ns += CombineNs(kind, wl.round[0].spec.fm_vectors, options.seed) /
                    static_cast<double>(kinds.size());
  }
  std::printf("%s traced rounds=%zu spans=%zu\n", wl.name, traced_qps.size(),
              all.spans().size());
  AddLayerMetrics(v, &report);
  return report;
}

Report Run(const ClosedWorkload& wl, const RunOptions& options) {
  return options.trace ? RunTraced(wl, options) : RunTimed(wl, options);
}

}  // namespace

Report RunPaperChurn(const RunOptions& options) {
  constexpr uint32_t kHosts = 10'000;
  // Above the graph's estimated diameter (12-14) on every seed, so the
  // horizon, and with it each protocol's work, does not move with the seed.
  constexpr double kDhat = 16;
  ClosedWorkload wl;
  wl.name = "paper_churn";
  wl.network.gnutella_hosts = kHosts;
  wl.network.graph_seed = Mix64(options.seed ^ 0x6e7ull);
  wl.network.values_seed = Mix64(options.seed ^ 0x7a1full);
  Rng rng(Mix64(options.seed ^ 0x9c11ull));
  const protocols::ProtocolKind kProtocols[] = {
      protocols::ProtocolKind::kWildfire, protocols::ProtocolKind::kGossip,
      protocols::ProtocolKind::kDag, protocols::ProtocolKind::kSpanningTree,
      protocols::ProtocolKind::kAllReport};
  const AggregateKind kAggregates[] = {AggregateKind::kCount,
                                       AggregateKind::kSum};
  const uint32_t kChurn[] = {0, 250, 1000};
  // Every combination three times, so each protocol is 20% of a round.
  for (int copy = 0; copy < 3; ++copy) {
    for (protocols::ProtocolKind protocol : kProtocols) {
      for (AggregateKind aggregate : kAggregates) {
        for (uint32_t removals : kChurn) {
          ClosedQuery q;
          q.spec.aggregate = aggregate;
          q.spec.fm_vectors = 16;
          q.spec.d_hat = kDhat;
          q.config.protocol = protocol;
          q.config.churn_removals = removals;
          q.config.churn_seed = rng.Next();
          q.config.sketch_seed = rng.Next();
          q.hq = static_cast<HostId>(rng.NextBelow(kHosts));
          wl.round.push_back(q);
        }
      }
    }
  }
  rng.Shuffle(&wl.round);
  return Run(wl, options);
}

}  // namespace perfbench
