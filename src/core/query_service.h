// QueryService: the open query-arrival layer.
//
// RunConcurrent serves a closed batch known up front; production traffic is
// an open stream. A QueryService owns one long-lived churning timeline (a
// SimulatorSession) onto which queries are *submitted* at arbitrary
// simulated times, admitted to a bounded set of instance lanes (the
// engine's lane lifecycle: kInstanceTagShift tagging, the session mux and a
// per-query Metrics lane), and completed through a poll/callback API as the
// timeline advances.
//
// Determinism contract (docs/SERVICE.md, tests/query_service_test.cc):
// every completed query's QueryResult is bit-identical, field for field, to
// a solo run of the same query issued at the same start time —
// QueryEngine::Run for queries started at t=0, a single-query staggered
// RunConcurrent otherwise. The recorded ArrivalTrace replayed into a fresh
// service reproduces the live run exactly. This extends the
// fresh == session-reused == concurrent fingerprint matrix with a fourth
// column, `service`.
//
// How a lane stays solo-identical while being recycled:
//
//  - Admission and deferred starts happen *inside scheduled events*, so
//    they are part of the deterministic timeline: an arrival event fires at
//    submit_time; if all lanes are busy the query joins a FIFO queue and
//    starts inside the retirement event that frees a lane. Equal-time
//    events run in schedule order (the calendar queue's per-bucket FIFO),
//    so ties are deterministic too.
//
//  - A lane retires at a conservative, protocol-aware *quiescence bound*
//    computed from the query's plan (horizon 2*D-hat*delta, plus fault
//    delay tails, the heartbeat-detection + eager-convergecast cascade for
//    tree/DAG, and gossip's fixed round ladder). Until that instant the
//    lane's protocol, mux registration, and metrics lane stay attached, so
//    every late delivery is routed and charged exactly as in the solo run.
//    Harvesting at the bound is equivalent to harvesting at end-of-run: the
//    oracle reads only liveness inside [start, start + horizon], which is
//    fully executed by then.
//
//  - The network dynamics are properties of the *timeline*, not of a query:
//    churn schedule and fault plane come from ServiceOptions, are armed
//    once at construction, and every submitted config must agree with them
//    (the same check RunConcurrent applies to a batch). Failure
//    detection is always on — detect events are uncharged and ignored by
//    protocols that do not subscribe, so solo runs without it still match.
//
// Sessions are single-threaded, and so is a service. For sweep-style
// service benchmarks across worker threads, give each worker its own
// service over a sim::SessionPool lane (sim/session.h).

#ifndef VALIDITY_CORE_QUERY_SERVICE_H_
#define VALIDITY_CORE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/engine.h"

namespace validity::core {

/// Timeline-level configuration: everything shared by all queries a service
/// will ever run. The churn fields mirror RunConfig's; submitted configs
/// must carry identical values (Submit validates), exactly as concurrent
/// batch members must.
struct ServiceOptions {
  /// Structural simulator knobs (delta, medium, heartbeat). The per-query
  /// fields are owned by the service: failure_detection is forced on for
  /// the timeline's lifetime, max_events below is the event budget.
  sim::SimOptions sim_options;

  /// Admission: at most this many queries in flight at once; later arrivals
  /// wait in a FIFO deferred queue and start when a lane retires.
  uint32_t max_in_flight = 8;

  /// Event budget for the whole timeline (0 = unlimited). Per-query
  /// sim_options.max_events must be 0 or equal to this.
  uint64_t max_events = 0;

  // --- timeline dynamics (the RunConfig churn/fault fields) -------------
  uint32_t churn_removals = 0;
  double churn_start_frac = 0.0;
  double churn_end_frac = 1.0;
  uint64_t churn_seed = 1;
  /// D-hat the churn window derives from (horizon 2 * churn_d_hat * delta).
  /// 0 = the engine's estimated diameter + kDefaultDiameterMargin — the
  /// same resolution PlanRun applies to a query with spec.d_hat == 0.
  /// Churned queries must plan to exactly this value (Submit validates).
  double churn_d_hat = 0.0;
  /// The host churn protects; churned queries must use it as hq.
  HostId churn_hq = 0;
  sim::FaultSpec fault;
};

/// One recorded submission. A trace is the complete input of a service run:
/// replaying it into a fresh service reproduces every result bit-for-bit.
struct Arrival {
  SimTime submit_time = 0.0;
  QuerySpec spec;
  RunConfig config;
  HostId hq = 0;
};

struct ArrivalTrace {
  std::vector<Arrival> arrivals;
};

/// Derives the ServiceOptions under which `config` is admissible: the
/// timeline fields are copied from the query's own config (the common
/// single-profile pattern in tests and benches). churn_d_hat comes from
/// spec.d_hat (0 = auto, matching PlanRun's resolution).
ServiceOptions ServiceOptionsFor(const QuerySpec& spec,
                                 const RunConfig& config, HostId hq);

class QueryService {
 public:
  using QueryId = uint64_t;

  struct Completion {
    QueryId id = 0;
    SimTime submitted_at = 0.0;
    /// When the query was admitted to a lane (== submitted_at unless it
    /// waited in the deferred queue). The solo-equivalence anchor.
    SimTime started_at = 0.0;
    /// When the lane retired (the quiescence bound, not declared_at).
    SimTime retired_at = 0.0;
    QueryResult result;
  };

  /// Service over its own session built from `engine`'s topology and
  /// `options.sim_options`. `engine` must outlive the service.
  QueryService(const QueryEngine* engine, const ServiceOptions& options);

  /// Service over a borrowed session (e.g. a sim::SessionPool lane). The
  /// session must be built over `engine`'s topology with structural options
  /// matching `options.sim_options`; it is Reset() here — the service owns
  /// its epochs until destruction. Both must outlive the service.
  QueryService(const QueryEngine* engine, sim::SimulatorSession* session,
               const ServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  /// Submits a query arriving at `submit_time` (simulated; must be >= the
  /// timeline's current time). Validates like RunConcurrent: structural sim
  /// options must match the session, the config's churn/fault fields must
  /// equal the timeline's, and churned queries must plan to the timeline's
  /// D-hat and hq. The query starts at submit_time if a lane is free, else
  /// when one retires (FIFO). Recorded in trace().
  StatusOr<QueryId> Submit(SimTime submit_time, const QuerySpec& spec,
                           const RunConfig& config, HostId hq);

  /// Withdraws a query. Scheduled/deferred queries simply never start. A
  /// running query's lane is detached immediately — its in-flight traffic
  /// is dropped by the mux from now on — but the lane slot frees at the
  /// query's original retirement instant, keeping admission transitions on
  /// scheduled events (deterministic). Cancellation is an external control
  /// action: it is NOT recorded in the ArrivalTrace, so a replayed trace
  /// reproduces submissions, not cancellations. NotFound if the id is
  /// unknown or already completed.
  Status Cancel(QueryId id);

  /// Advances the shared timeline. Completions become pollable (and the
  /// callback fires) as retirement events execute.
  void RunUntil(SimTime t);
  /// Runs the timeline dry: every submitted query completes (or was
  /// cancelled) when this returns.
  void Drain();

  /// Pops the oldest unconsumed completion; false if none. Completions
  /// surface in retirement order.
  bool Poll(Completion* out);
  /// Optional push interface: invoked inside the retirement event, before
  /// the completion becomes pollable. Callbacks may Submit follow-up
  /// queries (at times >= now) but must not re-enter Run/Drain/Reset.
  void set_on_completion(std::function<void(const Completion&)> callback);

  /// Abandons everything — pending arrivals, deferred queue, running lanes,
  /// unconsumed completions, the recorded trace — and rewinds the timeline
  /// to t=0 (a fresh session epoch, O(touched)). Warm protocol instances
  /// and metrics lanes are kept parked for reuse.
  void Reset();

  /// Replays a recorded trace into a fresh service over `engine` and drains
  /// it. Returns the completions in *arrival order* (trace order), each
  /// bit-identical to the corresponding live-run completion.
  static StatusOr<std::vector<Completion>> Replay(const QueryEngine& engine,
                                                  const ServiceOptions& options,
                                                  const ArrivalTrace& trace);

  // --- introspection ----------------------------------------------------

  SimTime Now() const;
  const ServiceOptions& options() const { return options_; }
  const ArrivalTrace& trace() const { return trace_; }
  sim::SimulatorSession& session() { return *session_; }
  /// The resolved churn D-hat (after the 0 = auto resolution).
  double churn_d_hat() const { return timeline_.d_hat; }

  /// Lanes currently occupied (includes cancelled lanes until their
  /// retirement instant frees the slot).
  uint32_t in_flight() const { return in_flight_; }
  /// High-water mark of in_flight() — never exceeds max_in_flight.
  uint32_t peak_in_flight() const { return peak_in_flight_; }
  size_t deferred() const { return deferred_.size(); }
  uint64_t submitted() const { return submitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  enum class Phase : uint8_t { kScheduled, kDeferred, kRunning, kCancelled };

  /// Everything the service tracks per submitted query; stable address
  /// (unique_ptr in the map) because the fault interposer and the arrival/
  /// retire closures point into it.
  struct QueryState {
    QueryId id = 0;
    Arrival arrival;
    QueryEngine::RunPlan plan;
    Phase phase = Phase::kScheduled;
    SimTime started_at = 0.0;
    SimTime retire_at = 0.0;
    /// Open from StartLane until retirement or cancellation.
    QueryEngine::Lane lane;
  };

  /// Starts a fresh session epoch and arms the timeline: failure
  /// detection, event budget, fault plane, churn schedule, mux attachment.
  void ArmTimeline();
  void OnArrival(QueryId id);
  void StartLane(QueryState* q);
  void OnRetire(QueryId id);
  /// The deterministic quiescence bound: no event of this lane can execute
  /// at or after the returned instant.
  SimTime RetireTimeFor(const QueryState& q, SimTime started) const;

  const QueryEngine* engine_;
  std::unique_ptr<sim::SimulatorSession> owned_session_;
  sim::SimulatorSession* session_;
  ServiceOptions options_;
  /// The timeline's dynamics: options_ with churn_d_hat resolved.
  QueryEngine::Timeline timeline_;

  QueryId next_id_ = 1;
  std::map<QueryId, std::unique_ptr<QueryState>> queries_;
  std::deque<QueryId> deferred_;
  std::deque<Completion> completions_;
  std::function<void(const Completion&)> on_completion_;
  ArrivalTrace trace_;
  /// False until the first RunUntil/Drain: t=0 submissions before then
  /// start synchronously, mirroring RunConcurrent's pre-loop Start path.
  bool timeline_started_ = false;

  uint32_t in_flight_ = 0;
  uint32_t peak_in_flight_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace validity::core

#endif  // VALIDITY_CORE_QUERY_SERVICE_H_
