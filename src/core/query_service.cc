#include "core/query_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace validity::core {

ServiceOptions ServiceOptionsFor(const QuerySpec& spec,
                                 const RunConfig& config, HostId hq) {
  ServiceOptions options;
  options.sim_options = config.sim_options;
  options.max_events = config.sim_options.max_events;
  options.churn_removals = config.churn_removals;
  options.churn_start_frac = config.churn_start_frac;
  options.churn_end_frac = config.churn_end_frac;
  options.churn_seed = config.churn_seed;
  options.churn_d_hat = spec.d_hat;
  options.churn_hq = hq;
  options.fault = config.fault;
  return options;
}

QueryService::QueryService(const QueryEngine* engine,
                           const ServiceOptions& options)
    : engine_(engine),
      owned_session_(std::make_unique<sim::SimulatorSession>(
          engine->topology(), options.sim_options)),
      session_(owned_session_.get()),
      options_(options) {
  ArmTimeline();
}

QueryService::QueryService(const QueryEngine* engine,
                           sim::SimulatorSession* session,
                           const ServiceOptions& options)
    : engine_(engine), session_(session), options_(options) {
  VALIDITY_CHECK(session != nullptr);
  VALIDITY_CHECK(engine->CheckSession(*session, options_.sim_options).ok(),
                 "a borrowed service session must be built over the engine's "
                 "topology with the service's structural sim options");
  ArmTimeline();
}

QueryService::~QueryService() {
  for (auto& [id, q] : queries_) {
    if (q->phase == Phase::kRunning) engine_->CloseLane(session_, &q->lane);
  }
  sim::Simulator& sim = session_->simulator();
  sim.AttachProgram(nullptr);
  sim.InstallFaults(nullptr);
}

void QueryService::ArmTimeline() {
  VALIDITY_CHECK(options_.max_in_flight >= 1,
                 "the service needs at least one lane");
  VALIDITY_CHECK(options_.churn_removals == 0 ||
                     options_.churn_hq < session_->simulator().num_hosts(),
                 "churn-protected host out of range");
  const double d_hat =
      options_.churn_d_hat > 0.0
          ? options_.churn_d_hat
          : static_cast<double>(engine_->EstimatedDiameter()) +
                kDefaultDiameterMargin;
  timeline_ = QueryEngine::Timeline{
      options_.churn_removals, options_.churn_start_frac,
      options_.churn_end_frac, options_.churn_seed, d_hat, options_.churn_hq,
      options_.fault};
  // Failure detection is always on: detect events are uncharged and
  // ignored by protocols that do not subscribe, so a lane whose solo run
  // had detection off still matches bit-for-bit — and lanes that need it
  // (tree/DAG) can arrive at any time, long after the churn events were
  // scheduled.
  engine_->ArmTimeline(session_, timeline_, /*failure_detection=*/true,
                       options_.max_events);
  session_->simulator().AttachProgram(&session_->mux());
}

SimTime QueryService::Now() const { return session_->simulator().Now(); }

StatusOr<QueryService::QueryId> QueryService::Submit(SimTime submit_time,
                                                     const QuerySpec& spec,
                                                     const RunConfig& config,
                                                     HostId hq) {
  if (Status s = engine_->CheckSession(*session_, config.sim_options);
      !s.ok()) {
    return s;
  }
  if (!std::isfinite(submit_time) || submit_time < Now()) {
    return Status::InvalidArgument(
        "submit time must be finite and >= the timeline's current time");
  }
  QueryEngine::RunPlan plan;
  if (Status s = engine_->PlanRun(spec, config, hq, &plan); !s.ok()) return s;
  if (config.sim_options.max_events != 0 &&
      config.sim_options.max_events != options_.max_events) {
    return Status::InvalidArgument(
        "the service timeline owns the event budget; set "
        "ServiceOptions.max_events instead of a per-query one");
  }
  if (Status s = QueryEngine::CheckJoinsTimeline(timeline_, config,
                                                 plan.d_hat, hq);
      !s.ok()) {
    return s;
  }

  QueryId id = next_id_++;
  auto state = std::make_unique<QueryState>();
  state->id = id;
  state->arrival = Arrival{submit_time, spec, config, hq};
  state->plan = plan;
  trace_.arrivals.push_back(state->arrival);
  queries_.emplace(id, std::move(state));
  ++submitted_;
  if (submit_time == 0.0 && Now() == 0.0 && !timeline_started_) {
    // Mirror RunConcurrent's t=0 path: Start runs before any event of the
    // t=0 bucket executes, exactly like the pre-loop Start of a batch.
    OnArrival(id);
  } else {
    session_->simulator().ScheduleAt(submit_time,
                                     [this, id] { OnArrival(id); });
  }
  return id;
}

void QueryService::OnArrival(QueryId id) {
  auto it = queries_.find(id);
  VALIDITY_DCHECK(it != queries_.end());
  QueryState* q = it->second.get();
  if (q->phase == Phase::kCancelled) {
    queries_.erase(it);
    return;
  }
  if (in_flight_ < options_.max_in_flight) {
    StartLane(q);
  } else {
    q->phase = Phase::kDeferred;
    deferred_.push_back(id);
  }
}

void QueryService::StartLane(QueryState* q) {
  sim::Simulator& sim = session_->simulator();
  q->phase = Phase::kRunning;
  q->started_at = sim.Now();
  q->retire_at = RetireTimeFor(*q, q->started_at);
  engine_->OpenLane(session_, q->arrival.config, q->plan, q->arrival.hq,
                    /*direct=*/false, &q->lane);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  q->lane.protocol->Start(q->arrival.hq);
  sim.ScheduleAt(q->retire_at, [this, id = q->id] { OnRetire(id); });
}

void QueryService::OnRetire(QueryId id) {
  auto it = queries_.find(id);
  VALIDITY_DCHECK(it != queries_.end());
  // Detach from the map first: the completion callback may Submit follow-up
  // queries, which would invalidate `it`.
  std::unique_ptr<QueryState> q = std::move(it->second);
  queries_.erase(it);
  VALIDITY_DCHECK(in_flight_ > 0);
  --in_flight_;
  if (q->phase == Phase::kRunning) {
    Completion done;
    done.id = id;
    done.submitted_at = q->arrival.submit_time;
    done.started_at = q->started_at;
    done.retired_at = session_->simulator().Now();
    done.result = engine_->HarvestResult(
        session_->simulator(), q->lane, q->arrival.spec, q->arrival.config,
        q->plan.d_hat, q->arrival.hq, q->started_at);
    engine_->CloseLane(session_, &q->lane);
    ++completed_;
    if (on_completion_) on_completion_(done);
    completions_.push_back(std::move(done));
  }
  // A retirement frees exactly one lane slot (cancelled lanes keep theirs
  // occupied until here, so admission transitions stay on scheduled
  // events); deferred queries start strictly in arrival order.
  while (in_flight_ < options_.max_in_flight && !deferred_.empty()) {
    QueryId next_id = deferred_.front();
    deferred_.pop_front();
    StartLane(queries_.at(next_id).get());
  }
}

SimTime QueryService::RetireTimeFor(const QueryState& q,
                                    SimTime started) const {
  const sim::SimOptions& so = session_->simulator().options();
  const double delta = so.delta;
  const sim::FaultSpec& fault = options_.fault;
  const bool delayed = fault.delay_rate > 0.0 || fault.duplicate_rate > 0.0;
  const double hop =
      delta * (1.0 + (delayed ? static_cast<double>(fault.max_delay_hops)
                              : 0.0));
  const double d_hat = q.plan.d_hat;
  const double horizon = QueryHorizon(d_hat, delta);
  // No protocol sends after its horizon; the last delivery lands within one
  // (possibly fault-delayed) hop of it.
  SimTime quiet = started + horizon + hop;
  // Tree/DAG eager convergecast: a churn failure detected late (at
  // t_fail + T_hb + delta) can trigger a report cascade of up to one hop
  // per tree level, down and back up a tree of depth <= d_hat + 1.
  if (q.plan.failure_detection && options_.churn_removals > 0) {
    SimTime churn_end =
        timeline_.churn_end_frac * QueryHorizon(timeline_.d_hat, delta);
    SimTime detect = churn_end + so.heartbeat_interval + delta;
    quiet = std::max(quiet, std::max(started + horizon, detect) +
                                2.0 * (d_hat + 1.0) * hop);
  }
  // Gossip's round ladder outlives the 2*D-hat horizon: hosts activated any
  // time before it still run their full round count, and hq declares at
  // start + (rounds + 2) * delta.
  if (q.arrival.config.protocol == protocols::ProtocolKind::kGossip) {
    const double rounds =
        static_cast<double>(q.plan.protocol_options.gossip.rounds);
    quiet = std::max(quiet, started + horizon + (rounds + 2.0) * delta + hop);
  }
  // Strict margin: the retirement event must execute after every event this
  // lane can generate. A generous bound only delays lane recycling; it can
  // never change a result.
  return quiet + 2.0 * delta;
}

Status QueryService::Cancel(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("unknown or already-completed query id");
  }
  QueryState* q = it->second.get();
  switch (q->phase) {
    case Phase::kScheduled:
      q->phase = Phase::kCancelled;  // the arrival event discards it
      ++cancelled_;
      return Status::Ok();
    case Phase::kDeferred:
      deferred_.erase(std::find(deferred_.begin(), deferred_.end(), id));
      queries_.erase(it);
      ++cancelled_;
      return Status::Ok();
    case Phase::kRunning:
      // Routing and accounting detach now (in-flight traffic drops at the
      // mux); the lane slot frees at the original retirement instant so
      // admission stays on scheduled events.
      engine_->CloseLane(session_, &q->lane);
      q->phase = Phase::kCancelled;
      ++cancelled_;
      return Status::Ok();
    case Phase::kCancelled:
      return Status::FailedPrecondition("query already cancelled");
  }
  return Status::Internal("unreachable");
}

void QueryService::RunUntil(SimTime t) {
  timeline_started_ = true;
  session_->simulator().RunUntil(t);
}

void QueryService::Drain() {
  timeline_started_ = true;
  session_->simulator().Run();
}

bool QueryService::Poll(Completion* out) {
  if (completions_.empty()) return false;
  *out = std::move(completions_.front());
  completions_.pop_front();
  return true;
}

void QueryService::set_on_completion(
    std::function<void(const Completion&)> callback) {
  on_completion_ = std::move(callback);
}

void QueryService::Reset() {
  for (auto& [id, q] : queries_) {
    if (q->phase == Phase::kRunning) engine_->CloseLane(session_, &q->lane);
  }
  queries_.clear();
  deferred_.clear();
  completions_.clear();
  trace_.arrivals.clear();
  in_flight_ = 0;
  peak_in_flight_ = 0;
  timeline_started_ = false;
  // ArmTimeline's session Reset rewinds the timeline (pending arrival/retire
  // closures and message slab references drain through EventQueue::Clear)
  // and drops the mux, fault, and instance-metrics attachments; warm parked
  // protocols and metrics lanes survive for the next epoch.
  ArmTimeline();
}

StatusOr<std::vector<QueryService::Completion>> QueryService::Replay(
    const QueryEngine& engine, const ServiceOptions& options,
    const ArrivalTrace& trace) {
  QueryService service(&engine, options);
  std::vector<QueryId> ids;
  ids.reserve(trace.arrivals.size());
  for (const Arrival& a : trace.arrivals) {
    StatusOr<QueryId> id = service.Submit(a.submit_time, a.spec, a.config,
                                          a.hq);
    if (!id.ok()) return id.status();
    ids.push_back(id.value());
  }
  service.Drain();
  std::map<QueryId, Completion> by_id;
  Completion done;
  while (service.Poll(&done)) by_id.emplace(done.id, std::move(done));
  std::vector<Completion> in_arrival_order;
  in_arrival_order.reserve(ids.size());
  for (QueryId id : ids) {
    auto it = by_id.find(id);
    if (it == by_id.end()) {
      return Status::Internal("replayed query did not complete");
    }
    in_arrival_order.push_back(std::move(it->second));
  }
  return in_arrival_order;
}

}  // namespace validity::core
