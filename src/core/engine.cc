#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "common/zipf.h"
#include "protocols/factory.h"
#include "sim/churn.h"
#include "topology/algorithms.h"

namespace validity::core {

namespace {

// The caller-set timing options the simulator relies on (its constructor
// CHECKs delta; a negative heartbeat would schedule failure detections in
// the past).
Status CheckSimOptions(const sim::SimOptions& options) {
  if (!(std::isfinite(options.delta) && options.delta > 0.0)) {
    return Status::InvalidArgument("sim_options.delta must be finite and > 0");
  }
  if (!(std::isfinite(options.heartbeat_interval) &&
        options.heartbeat_interval >= 0.0)) {
    return Status::InvalidArgument(
        "sim_options.heartbeat_interval must be finite and >= 0");
  }
  return Status::Ok();
}

}  // namespace

QueryEngine::QueryEngine(const topology::Graph* graph,
                         std::vector<double> values)
    : QueryEngine(topology::Topology::FromGraph(graph), std::move(values)) {}

QueryEngine::QueryEngine(topology::Topology topology,
                         std::vector<double> values)
    : topo_(topology), values_(std::move(values)) {
  VALIDITY_CHECK(values_.size() >= topo_.num_hosts(),
                 "need one value per host (%zu < %u)", values_.size(),
                 topo_.num_hosts());
}

uint32_t QueryEngine::EstimatedDiameter() const {
  std::call_once(diameter_once_, [this] {
    if (topo_.implicit()) {
      // Regular shapes know their diameter exactly; no sweeps, no O(n).
      cached_diameter_ = topo_.ImplicitDiameter();
    } else {
      Rng rng(0xd1a4e7e5u);
      cached_diameter_ =
          topology::EstimateDiameter(*topo_.graph(), /*sweeps=*/4, &rng);
    }
  });
  return cached_diameter_;
}

Status QueryEngine::PlanRun(const QuerySpec& spec, const RunConfig& config,
                            HostId hq, RunPlan* plan) const {
  if (hq >= topo_.num_hosts()) {
    return Status::OutOfRange("querying host out of range");
  }
  if (Status status = CheckSimOptions(config.sim_options); !status.ok()) {
    return status;
  }
  if (spec.fm_vectors == 0) {
    return Status::InvalidArgument("fm_vectors must be >= 1");
  }
  if (spec.d_hat != 0.0 && !(std::isfinite(spec.d_hat) && spec.d_hat >= 1.0)) {
    return Status::InvalidArgument("d_hat must be 0 (auto) or finite and >= 1");
  }
  if (config.churn_removals >= topo_.num_hosts()) {
    return Status::InvalidArgument("cannot remove every host");
  }
  if (!(std::isfinite(config.churn_end_frac) &&
        config.churn_start_frac >= 0.0 &&
        config.churn_start_frac <= config.churn_end_frac)) {
    return Status::InvalidArgument(
        "churn window needs finite 0 <= churn_start_frac <= churn_end_frac");
  }
  if (config.protocol == protocols::ProtocolKind::kRandomizedReport &&
      spec.aggregate != AggregateKind::kCount &&
      spec.aggregate != AggregateKind::kSum) {
    return Status::InvalidArgument(
        "randomized-report answers count/sum queries only");
  }
  const bool direct_reports =
      config.protocol == protocols::ProtocolKind::kRandomizedReport ||
      (config.protocol == protocols::ProtocolKind::kAllReport &&
       config.protocol_options.all_report.routing ==
           protocols::ReportRouting::kDirect);
  if (direct_reports &&
      config.sim_options.medium != sim::MediumKind::kPointToPoint) {
    return Status::InvalidArgument(
        "direct report delivery needs a point-to-point medium");
  }

  plan->d_hat = spec.d_hat;
  if (plan->d_hat == 0.0) {
    plan->d_hat =
        static_cast<double>(EstimatedDiameter()) + kDefaultDiameterMargin;
  }

  // The tree/DAG baselines track child liveness through heartbeats.
  plan->failure_detection =
      config.sim_options.failure_detection ||
      config.protocol == protocols::ProtocolKind::kSpanningTree ||
      config.protocol == protocols::ProtocolKind::kDag;

  plan->ctx.aggregate = spec.aggregate;
  plan->ctx.combiner =
      protocols::CombinerFor(spec.aggregate, spec.exact_combiners);
  plan->ctx.fm.num_vectors = spec.fm_vectors;
  plan->ctx.d_hat = plan->d_hat;
  plan->ctx.sketch_seed = config.sketch_seed;
  plan->ctx.values = &values_;

  plan->protocol_options = config.protocol_options;
  protocols::RandomizedReportOptions& randomized =
      plan->protocol_options.randomized;
  if (config.protocol == protocols::ProtocolKind::kRandomizedReport &&
      randomized.p_override == 0.0 && randomized.n_estimate <= 1.0) {
    randomized.n_estimate = static_cast<double>(topo_.num_hosts());
  }
  return Status::Ok();
}

Status QueryEngine::CheckSession(const sim::SimulatorSession& session,
                                 const sim::SimOptions& sim_options) const {
  if (!session.topology().SameAs(topo_)) {
    return Status::InvalidArgument(
        "session was built over a different topology than this engine");
  }
  const sim::SimOptions& built = session.simulator().options();
  if (built.delta != sim_options.delta || built.medium != sim_options.medium ||
      built.heartbeat_interval != sim_options.heartbeat_interval) {
    return Status::InvalidArgument(
        "session structural sim options (delta, medium, heartbeat) do not "
        "match the run config");
  }
  return Status::Ok();
}

Status QueryEngine::CheckJoinsTimeline(const Timeline& timeline,
                                       const RunConfig& config, double d_hat,
                                       HostId hq) {
  if (config.churn_removals != timeline.churn_removals ||
      config.churn_seed != timeline.churn_seed ||
      config.churn_start_frac != timeline.churn_start_frac ||
      config.churn_end_frac != timeline.churn_end_frac) {
    return Status::InvalidArgument(
        "queries sharing one network timeline must agree on its churn "
        "schedule");
  }
  if (!(config.fault == timeline.fault)) {
    return Status::InvalidArgument(
        "queries sharing one network timeline must agree on its fault plane");
  }
  if (timeline.churn_removals > 0 &&
      (d_hat != timeline.d_hat || hq != timeline.hq)) {
    return Status::InvalidArgument(
        "churned queries sharing one timeline must share D-hat and the "
        "querying host (the churn window and the protected host derive from "
        "them)");
  }
  return Status::Ok();
}

void QueryEngine::ArmTimeline(sim::SimulatorSession* session,
                              const Timeline& timeline, bool failure_detection,
                              uint64_t max_events) const {
  session->Reset();
  sim::Simulator& simulator = session->simulator();
  simulator.set_failure_detection(failure_detection);
  simulator.set_max_events(max_events);
  simulator.InstallFaults(&timeline.fault);
  if (timeline.churn_removals == 0) return;
  SimTime horizon = QueryHorizon(timeline.d_hat, simulator.options().delta);
  Rng churn_rng(timeline.churn_seed);
  sim::ScheduleChurn(
      &simulator,
      sim::MakeUniformChurn(topo_.num_hosts(), timeline.hq,
                            timeline.churn_removals,
                            timeline.churn_start_frac * horizon,
                            timeline.churn_end_frac * horizon, &churn_rng));
}

void QueryEngine::OpenLane(sim::SimulatorSession* session,
                           const RunConfig& config, const RunPlan& plan,
                           HostId hq, bool direct, Lane* lane) const {
  lane->kind = config.protocol;
  if (std::unique_ptr<sim::HostProgram> parked =
          session->TakeParkedProgram(static_cast<uint32_t>(lane->kind))) {
    lane->protocol.reset(
        static_cast<protocols::ProtocolBase*>(parked.release()));
    protocols::ResetProtocol(lane->protocol.get(), lane->kind, plan.ctx,
                             plan.protocol_options);
  } else {
    lane->protocol = protocols::MakeProtocol(lane->kind, &session->simulator(),
                                             plan.ctx, plan.protocol_options);
  }
  sim::HostProgram* program = lane->protocol.get();
  if (config.fault.HasByzantine()) {
    lane->mutator = std::make_unique<protocols::StandardByzantineMutator>(
        lane->kind, config.fault, plan.ctx.combiner, plan.ctx.fm,
        topo_.num_hosts());
    lane->interposer = std::make_unique<sim::ByzantineInterposer>(
        &config.fault, lane->mutator.get(), program, hq);
    program = lane->interposer.get();
  }
  sim::Simulator& simulator = session->simulator();
  if (direct) {
    simulator.AttachProgram(program);
    return;
  }
  const uint32_t instance_id = lane->protocol->instance_id();
  lane->metrics = session->AcquireMetrics();
  session->mux().Register(instance_id, program);
  simulator.AttachInstanceMetrics(instance_id, lane->metrics);
}

void QueryEngine::CloseLane(sim::SimulatorSession* session, Lane* lane) const {
  if (lane->metrics != nullptr) {
    const uint32_t instance_id = lane->protocol->instance_id();
    session->simulator().DetachInstanceMetrics(instance_id);
    session->mux().Unregister(instance_id);
    session->ReleaseMetrics(lane->metrics);
    lane->metrics = nullptr;
  }
  session->ParkProgram(static_cast<uint32_t>(lane->kind),
                       std::move(lane->protocol));
  // Unreachable from the simulator now: in-flight traffic of this instance
  // is dropped on delivery, exactly like a stale epoch's.
  lane->interposer.reset();
  lane->mutator.reset();
}

QueryResult QueryEngine::HarvestResult(const sim::Simulator& simulator,
                                       const Lane& lane, const QuerySpec& spec,
                                       const RunConfig& config, double d_hat,
                                       HostId hq, SimTime start_at) const {
  const protocols::ProtocolBase& protocol = *lane.protocol;
  const sim::Metrics& metrics =
      lane.metrics != nullptr ? *lane.metrics : simulator.metrics();
  QueryResult result;
  result.value = protocol.result().value;
  result.declared = protocol.result().declared;
  result.d_hat_used = d_hat;
  result.resident_state_bytes = protocol.ResidentStateBytes();

  result.cost.messages = metrics.messages_sent();
  result.cost.bytes = metrics.bytes_sent();
  result.cost.max_processed = metrics.MaxProcessed();
  result.cost.declared_at = protocol.result().declared_at;
  result.cost.last_update_at = protocol.result().last_update_at;
  result.cost.sends_per_tick = metrics.SendsPerTick();
  result.cost.computation_histogram = metrics.ComputationCostDistribution();

  // The ORACLE and the exact full aggregate read ground truth for the whole
  // network; million-host callers that touch a small disc skip them.
  if (config.compute_validity) {
    SimTime horizon = QueryHorizon(d_hat, simulator.options().delta);
    protocols::OracleReport oracle = protocols::ComputeOracle(
        simulator, hq, /*t_begin=*/start_at, /*t_end=*/start_at + horizon,
        spec.aggregate, values_);
    result.validity.q_low = oracle.q_low;
    result.validity.q_high = oracle.q_high;
    result.validity.hc_size = oracle.hc.size();
    result.validity.hu_size = oracle.hu.size();
    result.validity.within = result.declared && oracle.Contains(result.value);
    result.validity.within_slack =
        result.declared &&
        oracle.ContainsWithin(result.value, kApproxSlackFactor);

    result.exact_full =
        ExactAggregateOverAll(spec.aggregate, values_, topo_.num_hosts());
  }
  return result;
}

StatusOr<QueryResult> QueryEngine::Run(const QuerySpec& spec,
                                       const RunConfig& config,
                                       HostId hq) const {
  // Checked before the transient session is built: its simulator CHECKs.
  if (Status status = CheckSimOptions(config.sim_options); !status.ok()) {
    return status;
  }
  sim::SimulatorSession session(topo_, config.sim_options);
  return Run(&session, spec, config, hq);
}

StatusOr<QueryResult> QueryEngine::Run(sim::SimulatorSession* session,
                                       const QuerySpec& spec,
                                       const RunConfig& config,
                                       HostId hq) const {
  StatusOr<std::vector<QueryResult>> results =
      RunConcurrent(session, {ConcurrentQuery{spec, config, hq}});
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

StatusOr<std::vector<QueryResult>> QueryEngine::RunConcurrent(
    sim::SimulatorSession* session,
    const std::vector<ConcurrentQuery>& queries) const {
  VALIDITY_CHECK(session != nullptr);
  if (queries.empty()) return std::vector<QueryResult>();

  // One shared timeline, defined by the first query: the network dynamics
  // every query observes must be identical. Failure detection is on if any
  // query needs it. Event budgets guard the whole timeline: take the
  // largest finite budget, but let any query's 0 ("unlimited") win — a
  // finite batch-mate must not abort a query that asked for no limit.
  std::vector<RunPlan> plans(queries.size());
  Timeline timeline;
  bool failure_detection = false;
  uint64_t max_events = 0;
  bool unlimited = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ConcurrentQuery& q = queries[i];
    if (Status status = CheckSession(*session, q.config.sim_options);
        !status.ok()) {
      return status;
    }
    if (!std::isfinite(q.start_at) || q.start_at < 0.0) {
      return Status::InvalidArgument(
          "concurrent query start times must be finite and >= 0");
    }
    if (Status status = PlanRun(q.spec, q.config, q.hq, &plans[i]);
        !status.ok()) {
      return status;
    }
    if (i == 0) {
      timeline = Timeline{q.config.churn_removals, q.config.churn_start_frac,
                          q.config.churn_end_frac, q.config.churn_seed,
                          plans[0].d_hat, q.hq, q.config.fault};
    }
    if (Status status =
            CheckJoinsTimeline(timeline, q.config, plans[i].d_hat, q.hq);
        !status.ok()) {
      return status;
    }
    failure_detection = failure_detection || plans[i].failure_detection;
    unlimited = unlimited || q.config.sim_options.max_events == 0;
    max_events = std::max(max_events, q.config.sim_options.max_events);
  }
  ArmTimeline(session, timeline, failure_detection,
              unlimited ? 0 : max_events);

  // A lone query needs no routing: its program is attached directly and
  // charged to the simulator's own metrics. A batch routes through the mux,
  // one metrics lane per query.
  const bool direct = queries.size() == 1;
  sim::Simulator& simulator = session->simulator();
  std::vector<Lane> lanes(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    OpenLane(session, queries[i].config, plans[i], queries[i].hq, direct,
             &lanes[i]);
  }
  if (!direct) simulator.AttachProgram(&session->mux());
  // Queries at t=0 start immediately, in batch order; staggered queries are
  // scheduled onto the shared timeline and fire at their start_at, again in
  // batch order among equals (deterministic: equal-time events run in
  // schedule order). A staggered protocol anchors its horizon at its own
  // Start instant, so its behavior matches a solo query issued at that
  // time.
  for (size_t i = 0; i < lanes.size(); ++i) {
    protocols::ProtocolBase* protocol = lanes[i].protocol.get();
    const HostId hq = queries[i].hq;
    if (queries[i].start_at == 0.0) {
      protocol->Start(hq);
    } else {
      simulator.ScheduleAt(queries[i].start_at,
                           [protocol, hq] { protocol->Start(hq); });
    }
  }
  simulator.Run();

  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results.push_back(HarvestResult(simulator, lanes[i], queries[i].spec,
                                    queries[i].config, plans[i].d_hat,
                                    queries[i].hq, queries[i].start_at));
  }
  simulator.AttachProgram(nullptr);
  simulator.InstallFaults(nullptr);
  for (Lane& lane : lanes) CloseLane(session, &lane);
  return results;
}

std::vector<double> MakeZipfValues(uint32_t num_hosts, uint64_t seed,
                                   int64_t low, int64_t high, double theta) {
  auto zipf = ZipfGenerator::Make(low, high, theta);
  VALIDITY_CHECK(zipf.ok(), "bad zipf parameters");
  Rng rng(seed);
  std::vector<double> values(num_hosts);
  for (double& v : values) {
    v = static_cast<double>(zipf->Sample(&rng));
  }
  return values;
}

}  // namespace validity::core
