// SimulatorSession: a cached per-graph simulator with O(touched) inter-query
// reset and multi-query routing.
//
// Building a Simulator is O(network): CSR adjacency, liveness tables, and
// per-host metrics all scale with num_hosts. Protocol-side cost has been
// disc-proportional since the state was paged, so on million-host graphs
// the O(n) build dominates every query (BM_MillionHostActivation). A
// session amortizes it: the graph-derived structures are built once, and
// everything mutable per run — pending events, message slab references,
// liveness flags flipped by churn, hosts joined at runtime, metrics —
// resets between queries by draining dirty lists, in time proportional to
// what the previous query touched (see Simulator::Reset).
//
// Each reset starts a new *epoch*. Protocol per-host state participates via
// the epoch counters inside PagedStates (common/paged_state.h): a protocol
// re-armed with ResetForQuery keeps its warm pages and body pools, and the
// second query on a cached 10^6-host session costs ≈disc time instead of
// the ≈0.1 s rebuild (BM_MillionHostSecondQuery).
//
// Multi-query concurrency: message kinds and timer ids carry their protocol
// instance's id in the upper bits (message.h's kInstanceTagShift), so N
// query programs can share one simulator timeline. QueryProgramMux routes
// callbacks to the owning instance, and Simulator::AttachInstanceMetrics
// routes each instance's cost accounting to its own Metrics lane. The
// contract — fresh construction, session reuse, and concurrent execution
// all produce bit-identical per-query results — is documented in
// docs/SESSIONS.md and enforced by tests/session_test.cc.
//
// Sessions are single-threaded objects (one session per thread; the sweep
// driver gives every worker its own). The graph must outlive the session.

#ifndef VALIDITY_SIM_SESSION_H_
#define VALIDITY_SIM_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace validity::sim {

/// Demultiplexes one simulator's callbacks to N concurrently-running query
/// programs by the instance tag in message kinds / timer ids. Traffic whose
/// tag matches no registered program (stale epochs, detached queries) is
/// dropped, exactly as a lone protocol's DecodeKind would drop it, and
/// counted: a lane retired at its quiescence bound leaves none behind.
class QueryProgramMux : public HostProgram {
 public:
  void Register(uint32_t instance_id, HostProgram* program);
  void Unregister(uint32_t instance_id);
  /// Unregisters every program and zeroes dropped() (a new session epoch).
  void Clear() {
    entries_.clear();
    dropped_ = 0;
  }
  size_t size() const { return entries_.size(); }
  /// Messages and timers dropped as unroutable since the last Clear().
  uint64_t dropped() const { return dropped_; }

  void OnMessage(HostId self, const Message& msg) override;
  void OnTimer(HostId self, uint64_t timer_id) override;
  /// Failure detection is a property of the shared network, not of one
  /// query: every registered program hears about it.
  void OnNeighborFailure(HostId self, HostId failed) override;

 private:
  HostProgram* Lookup(uint32_t instance_id) const;

  struct Entry {
    uint32_t instance_id;
    HostProgram* program;
  };
  std::vector<Entry> entries_;
  uint64_t dropped_ = 0;
};

class SimulatorSession {
 public:
  /// Builds the one simulator this session will reuse — O(network) for
  /// graph-backed topologies, O(1)-ish for implicit ones (grid/ring/torus),
  /// which never materialize adjacency or liveness tables at all. For
  /// kGraph topologies the underlying graph must outlive the session.
  /// `options.failure_detection` and `options.max_events` are per-query
  /// knobs the engine retunes on every run; the structural options (delta,
  /// medium, heartbeat_interval, materialize_adjacency) are fixed for the
  /// session's lifetime.
  SimulatorSession(topology::Topology topology, SimOptions options);

  /// Convenience over a materialized graph (must outlive the session).
  SimulatorSession(const topology::Graph* graph, SimOptions options);

  SimulatorSession(const SimulatorSession&) = delete;
  SimulatorSession& operator=(const SimulatorSession&) = delete;

  const topology::Topology& topology() const { return topo_; }
  /// The materialized graph (kGraph topologies only).
  const topology::Graph& graph() const {
    VALIDITY_CHECK(topo_.graph() != nullptr,
                   "session over an implicit topology has no graph");
    return *topo_.graph();
  }
  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }
  QueryProgramMux& mux() { return mux_; }

  /// Epochs completed so far; bumped by every Reset().
  uint64_t epoch() const { return epoch_; }

  /// Starts a new epoch: the simulator returns to its pristine t=0 state
  /// (Simulator::Reset, O(touched)), and any programs registered with the
  /// mux are dropped. Call before issuing the next query (or batch of
  /// concurrent queries).
  void Reset();

  /// Borrows a per-query metrics lane for concurrent runs. Lanes are
  /// constructed once (O(network)) and reset on acquisition (O(touched)),
  /// so a session settles on one lane per concurrent query slot.
  Metrics* AcquireMetrics();
  void ReleaseMetrics(Metrics* metrics);

  /// Parking lot for reusable per-query objects that must survive between
  /// epochs — the engine parks protocol instances here, keyed by protocol
  /// kind, so their warm state pages and body pools carry to the next query
  /// on this session. Take returns nullptr when nothing is parked under
  /// `key`; several objects may be parked under one key (concurrent queries
  /// of the same protocol).
  std::unique_ptr<HostProgram> TakeParkedProgram(uint32_t key);
  void ParkProgram(uint32_t key, std::unique_ptr<HostProgram> program);

 private:
  topology::Topology topo_;
  Simulator sim_;
  QueryProgramMux mux_;
  uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<Metrics>> metrics_lanes_;
  std::vector<Metrics*> metrics_free_;
  std::vector<std::pair<uint32_t, std::unique_ptr<HostProgram>>> parked_;
};

/// A thread-safe pool of warm session lanes over one shared topology.
///
/// Sessions are single-threaded, so multi-threaded drivers (the sweep
/// runner, service throughput benches) need one session per worker — but
/// the topology handle itself is immutable and shareable, so the pool
/// stores it once. Implicit topologies make each lane O(1)-ish to build;
/// graph-backed ones pay the O(network) build once per lane and then reuse
/// it for every query that worker runs.
///
/// Acquire/Release only hand lanes out and back under a mutex; all actual
/// simulation happens on the acquired lane, single-threaded, with no
/// cross-lane sharing. A released lane keeps its warm state (parked
/// protocols, metrics lanes, paged tables) for the next borrower.
class SessionPool {
 public:
  /// `options` is the structural profile every lane is built with. For
  /// kGraph topologies the underlying graph must outlive the pool.
  SessionPool(topology::Topology topology, SimOptions options);
  SessionPool(const topology::Graph* graph, SimOptions options);

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Returns a free lane, building a new one if all are out. The caller
  /// owns the lane (single-threaded use) until Release.
  SimulatorSession* Acquire();
  /// Returns a lane to the pool. The lane keeps its warm state; the next
  /// Acquire may hand it to a different thread (Reset() it per query as
  /// usual — the engine's session overloads already do).
  void Release(SimulatorSession* session);

  /// Lanes constructed so far (== high-water mark of concurrent borrowers).
  size_t size() const;
  const topology::Topology& topology() const { return topo_; }
  const SimOptions& options() const { return options_; }

 private:
  topology::Topology topo_;
  SimOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SimulatorSession>> lanes_;
  std::vector<SimulatorSession*> free_;
};

/// RAII lease on a pool lane.
class SessionLease {
 public:
  explicit SessionLease(SessionPool* pool)
      : pool_(pool), session_(pool->Acquire()) {}
  ~SessionLease() { pool_->Release(session_); }
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  SimulatorSession* get() { return session_; }
  SimulatorSession& operator*() { return *session_; }
  SimulatorSession* operator->() { return session_; }

 private:
  SessionPool* pool_;
  SimulatorSession* session_;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_SESSION_H_
