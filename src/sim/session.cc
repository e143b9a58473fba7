#include "sim/session.h"

#include <algorithm>

namespace validity::sim {

void QueryProgramMux::Register(uint32_t instance_id, HostProgram* program) {
  VALIDITY_DCHECK(program != nullptr);
  VALIDITY_DCHECK(Lookup(instance_id) == nullptr,
                  "instance %u registered twice", instance_id);
  entries_.push_back(Entry{instance_id, program});
}

void QueryProgramMux::Unregister(uint32_t instance_id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->instance_id == instance_id) {
      entries_.erase(it);
      return;
    }
  }
}

HostProgram* QueryProgramMux::Lookup(uint32_t instance_id) const {
  for (const Entry& entry : entries_) {
    if (entry.instance_id == instance_id) return entry.program;
  }
  return nullptr;
}

void QueryProgramMux::OnMessage(HostId self, const Message& msg) {
  HostProgram* program = Lookup(msg.kind >> kInstanceTagShift);
  if (program != nullptr) {
    program->OnMessage(self, msg);
  } else {
    ++dropped_;
  }
}

void QueryProgramMux::OnTimer(HostId self, uint64_t timer_id) {
  HostProgram* program =
      Lookup(static_cast<uint32_t>(timer_id >> kInstanceTagShift));
  if (program != nullptr) {
    program->OnTimer(self, timer_id);
  } else {
    ++dropped_;
  }
}

void QueryProgramMux::OnNeighborFailure(HostId self, HostId failed) {
  for (const Entry& entry : entries_) {
    entry.program->OnNeighborFailure(self, failed);
  }
}

SimulatorSession::SimulatorSession(topology::Topology topology,
                                   SimOptions options)
    : topo_(topology), sim_(topo_, options) {}

SimulatorSession::SimulatorSession(const topology::Graph* graph,
                                   SimOptions options)
    : SimulatorSession(topology::Topology::FromGraph(graph), options) {}

void SimulatorSession::Reset() {
  ++epoch_;
  mux_.Clear();
  sim_.Reset();
}

Metrics* SimulatorSession::AcquireMetrics() {
  if (!metrics_free_.empty()) {
    Metrics* lane = metrics_free_.back();
    metrics_free_.pop_back();
    lane->Reset(sim_.num_hosts());
    return lane;
  }
  metrics_lanes_.push_back(std::make_unique<Metrics>(sim_.num_hosts()));
  return metrics_lanes_.back().get();
}

void SimulatorSession::ReleaseMetrics(Metrics* metrics) {
  VALIDITY_DCHECK(metrics != nullptr);
  metrics_free_.push_back(metrics);
}

std::unique_ptr<HostProgram> SimulatorSession::TakeParkedProgram(
    uint32_t key) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->first == key) {
      std::unique_ptr<HostProgram> program = std::move(it->second);
      parked_.erase(it);
      return program;
    }
  }
  return nullptr;
}

void SimulatorSession::ParkProgram(uint32_t key,
                                   std::unique_ptr<HostProgram> program) {
  VALIDITY_DCHECK(program != nullptr);
  parked_.emplace_back(key, std::move(program));
}

SessionPool::SessionPool(topology::Topology topology, SimOptions options)
    : topo_(topology), options_(options) {}

SessionPool::SessionPool(const topology::Graph* graph, SimOptions options)
    : SessionPool(topology::Topology::FromGraph(graph), options) {}

SimulatorSession* SessionPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    SimulatorSession* lane = free_.back();
    free_.pop_back();
    return lane;
  }
  lanes_.push_back(std::make_unique<SimulatorSession>(topo_, options_));
  return lanes_.back().get();
}

void SessionPool::Release(SimulatorSession* session) {
  VALIDITY_DCHECK(session != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(session);
}

size_t SessionPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

}  // namespace validity::sim
