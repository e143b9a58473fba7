// DIRECTEDACYCLICGRAPH (paper §4.4): the multi-parent best-effort baseline.
//
// Broadcast organizes hosts into a level-DAG: a host at depth d adopts up to
// k parents among its depth-(d-1) neighbors (all of whose query copies
// arrive in the same wave instant). Convergecast propagates partial
// aggregates to *all* adopted parents, so a single parent failure no longer
// severs a subtree. Because a value can now reach hq along multiple routes,
// the combine function must be duplicate-insensitive — the implementation
// follows the paper (§6: "Our implementation of DIRECTEDACYCLICGRAPH uses
// the distributed count and sum operators"), i.e. the same FM sketches that
// WILDFIRE uses (or exact union combiners in tests).
//
// The level wave, report slots and pacing are SPANNINGTREE's
// (protocols/level_convergecast.h). In kEager a host registers with every
// extra parent it adopts (one extra tiny kRegister message each); the
// forward registers it with the first.

#ifndef VALIDITY_PROTOCOLS_DAG_H_
#define VALIDITY_PROTOCOLS_DAG_H_

#include <optional>
#include <vector>

#include "protocols/level_convergecast.h"

namespace validity::protocols {

struct DagOptions {
  /// Maximum number of parents per host (paper evaluates k = 2 and k = 3).
  uint32_t max_parents = 2;
  TreePacing pacing = TreePacing::kSlotted;
};

struct DagHostState : LevelState {
  std::vector<HostId> parents;
  std::optional<PartialAggregate> agg;
};
static_assert(sizeof(DagHostState) == 176);  // in resident_state_bytes

class DagProtocol
    : public LevelConvergecast<DagProtocol, DagHostState, DagOptions> {
 public:
  DagProtocol(sim::Simulator* sim, QueryContext ctx, DagOptions options = {})
      : LevelConvergecast(sim, std::move(ctx), options) {
    VALIDITY_CHECK(options_.max_parents >= 1, "DAG needs k >= 1");
  }

  std::string_view name() const override { return "dag"; }

  /// Parents adopted by `h` (empty if never activated).
  const std::vector<HostId>& ParentsOf(HostId h) const;

 private:
  friend LevelConvergecast;
  static constexpr uint32_t kRegister = 3;  // payload: the addressee HostId

  void OnReset() override { report_pool_.ResetRecycleOrder(); }

  /// Pooled report body: the aggregate plus the addressee list. Recycled
  /// bodies keep the sketch words' and parent vector's capacity, so
  /// steady-state reports allocate nothing. Not an AggregateBody: the
  /// byzantine mutator passes this private format through.
  struct DagReportBody : sim::MessageBody {
    PartialAggregate agg;
    std::vector<HostId> to_parents;  // addressees (wireless filtering)
    size_t SizeBytes() const override {
      return agg.SizeBytes() + to_parents.size() * sizeof(HostId);
    }
  };

  HostId JoinWave(HostId self, HostId parent, DagHostState& st);
  void OnLateForward(HostId self, HostId sender, int32_t hop,
                     DagHostState& st);
  bool Fold(HostId self, uint32_t local, const sim::Message& msg,
            DagHostState* st);
  void Report(HostId self, const DagHostState& st);
  double Extract(const DagHostState& st) const { return st.agg->Estimate(); }

  sim::BodyPool<DagReportBody> report_pool_;
  std::vector<HostId> empty_;
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_DAG_H_
