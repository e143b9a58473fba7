// SPANNINGTREE (paper §4.4): the efficient best-effort baseline.
//
// Broadcast organizes hosts into a spanning tree rooted at hq (parent =
// sender of the first query copy received, TAG-style); Convergecast
// propagates duplicate-sensitive partial aggregates from the leaves to the
// root along unique tree paths. A host failure during Convergecast silently
// drops its whole collected subtree — the protocol can be arbitrarily
// invalid (Theorem 4.4), which Figs. 7-9 quantify. The level wave and its
// pacing are the DAG's too (level_convergecast.h); this file holds the one
// parent and the ScalarPartial report.

#ifndef VALIDITY_PROTOCOLS_SPANNING_TREE_H_
#define VALIDITY_PROTOCOLS_SPANNING_TREE_H_

#include "protocols/level_convergecast.h"
#include "protocols/scalar_partial.h"

namespace validity::protocols {

struct SpanningTreeOptions {
  TreePacing pacing = TreePacing::kSlotted;
};

struct TreeHostState : LevelState {
  HostId parent = kInvalidHost;
  ScalarPartial partial;
};
static_assert(sizeof(TreeHostState) == 72);  // in resident_state_bytes

class SpanningTreeProtocol
    : public LevelConvergecast<SpanningTreeProtocol, TreeHostState,
                               SpanningTreeOptions> {
 public:
  SpanningTreeProtocol(sim::Simulator* sim, QueryContext ctx,
                       SpanningTreeOptions options = {})
      : LevelConvergecast(sim, std::move(ctx), options) {}

  std::string_view name() const override { return "spanning-tree"; }

  /// Tree parent of `h` (kInvalidHost for hq and never-activated hosts).
  HostId ParentOf(HostId h) const;

  /// The report's inline wire payload (no body allocation anywhere in this
  /// protocol). The byzantine mutator rewrites it.
  struct ReportPayload {
    ScalarPartial partial;
    HostId to_parent = kInvalidHost;  // addressee (wireless filtering)
  };

 private:
  friend LevelConvergecast;

  HostId JoinWave(HostId self, HostId parent, TreeHostState& st);
  void OnLateForward(HostId, HostId, int32_t, TreeHostState&) {}
  bool Fold(HostId self, uint32_t local, const sim::Message& msg,
            TreeHostState* st);
  void Report(HostId self, const TreeHostState& st);
  double Extract(const TreeHostState& st) const {
    return st.partial.Extract(ctx_.aggregate);
  }
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_SPANNING_TREE_H_
