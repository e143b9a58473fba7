// The level-wave convergecast shared by SPANNINGTREE and
// DIRECTEDACYCLICGRAPH (paper §4.4: the DAG is the tree with up to k parents
// and a duplicate-insensitive combine).
//
// Broadcast: a host activates on its first query copy, at depth = sender's
// depth + 1, adopts the sender as its (first) parent and forwards the query
// once to every neighbor. Convergecast sends each host's partial aggregate
// to its parents, the root declares.
//
// Convergecast pacing (TreePacing):
//  - kSlotted (default, TAG/paper-faithful): a host at depth d holds its
//    partial aggregate until its slot (2*D-hat - d - 0.5) * delta and then
//    reports to its parents; child reports land exactly at the parent's
//    slot and are folded in first. Data therefore sits in interior hosts
//    for most of the query window — exactly the exposure that makes trees
//    collapse under churn in Figs. 7-9.
//  - kEager (ablation): hosts discover their children (each forward names
//    the sender's parent, costing nothing extra), report as soon as every
//    live child reported (heartbeats prune dead children), and fall back to
//    the slot deadline. Much lower latency and far more churn-robust than
//    the protocol the paper evaluates; the ablation bench quantifies the
//    difference.
//
// The protocol (CRTP `Derived`) supplies what §4.4 lets differ, as members
// this base calls: JoinWave (adopt the first parent, start the partial,
// return the parent the forward names), OnLateForward (a copy reaching an
// active host), Fold (handle a reply; true iff a child's report was folded
// in), Report (send the partial upward in the protocol's wire format) and
// Extract (the root's answer).

#ifndef VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_
#define VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_

#include <algorithm>
#include <vector>

#include "protocols/protocol.h"

namespace validity::protocols {

enum class TreePacing { kSlotted, kEager };

/// Per-host fields of every level convergecast; protocols derive their
/// record from it. resident_state_bytes counts whole records, so each
/// protocol pins its record's size.
struct LevelState {
  bool active = false;
  bool children_known = false;
  bool sent_up = false;
  int32_t depth = 0;
  std::vector<HostId> pending_children;
};

template <typename Derived, typename State, typename Options>
class LevelConvergecast : public ProtocolBase {
 public:
  /// kEager: children become known this many delta after activation (own
  /// forward out: +delta; children's forwards back: +2*delta; +0.5 to order
  /// the timer after same-instant deliveries).
  static constexpr double kChildDiscoveryDelay = 2.5;

  LevelConvergecast(sim::Simulator* sim, QueryContext ctx, Options options)
      : ProtocolBase(sim, std::move(ctx)), options_(options) {}

  void Start(HostId hq) override {
    VALIDITY_CHECK(sim_->IsAlive(hq), "querying host must be alive");
    hq_ = hq;
    start_time_ = sim_->Now();
    states_.Reset(sim_->num_hosts());
    Activate(hq, kInvalidHost, 0);
    // Root declaration: at the horizon with whatever has been folded in
    // (kEager may declare earlier through MaybeCompleteEager).
    ScheduleLocalTimer(hq, Horizon(), kTimerDeclare);
  }

  void OnMessage(HostId self, const sim::Message& msg) override {
    uint32_t local = 0;
    if (!DecodeKind(msg.kind, &local)) return;
    State* st = states_.Find(self);
    if (local == kBroadcast) {
      const auto in = msg.LoadInline<ForwardPayload>();
      if (st == nullptr || !st->active) {
        if (sim_->Now() >= Horizon()) return;
        Activate(self, msg.src, in.hop + 1);
        return;
      }
      derived().OnLateForward(self, msg.src, in.hop, *st);
      // The sender registered with us as its parent.
      if (Eager() && in.parent == self) st->pending_children.push_back(msg.src);
      return;
    }
    if (!derived().Fold(self, local, msg, st)) return;
    if (self == hq_) result_.last_update_at = sim_->Now();
    ForgetChild(*st, msg.src);
    if (Eager()) MaybeCompleteEager(self);
  }

  void OnNeighborFailure(HostId self, HostId failed) override {
    if (!Eager()) return;
    State* st = states_.Find(self);
    // A failed child will never report; stop waiting for it. (Its subtree is
    // simply lost — the best-effort behaviour the paper critiques.)
    if (Collecting(st) && ForgetChild(*st, failed)) MaybeCompleteEager(self);
  }

  /// Session reuse: rebind context + options and re-arm (see ProtocolBase).
  void ResetForQuery(QueryContext ctx, const Options& options) {
    options_ = options;
    ProtocolBase::ResetForQuery(std::move(ctx));
  }
  size_t ResidentStateBytes() const override { return states_.ResidentBytes(); }

  /// Wave depth of `h` (-1 if never activated).
  int32_t DepthOf(HostId h) const {
    const State* st = states_.Find(h);
    return st == nullptr || !st->active ? -1 : st->depth;
  }

 protected:
  enum LocalKind : uint32_t { kBroadcast = 1, kReport = 2 };

  /// The query forward's inline payload.
  struct ForwardPayload {
    int32_t hop = 0;               // sender's depth
    HostId parent = kInvalidHost;  // the parent the sender registers with
  };

  bool Eager() const { return options_.pacing == TreePacing::kEager; }
  /// Activated and not yet reported upward: reports still fold in.
  static bool Collecting(const State* st) {
    return st != nullptr && st->active && !st->sent_up;
  }

  /// Sends a report upward: one transmission on the wireless medium (only
  /// addressees fold it in), else one message per live parent.
  void SendToParents(HostId self, sim::Message msg, const HostId* parents,
                     size_t count) {
    if (sim_->options().medium == sim::MediumKind::kWireless) {
      sim_->SendToNeighbors(self, std::move(msg));
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      // A dead parent's share is lost (the whole subtree, for the tree).
      if (sim_->IsAlive(parents[i])) sim_->SendTo(self, parents[i], msg);
    }
  }

  Options options_;
  PagedStates<State> states_;

 private:
  enum LocalTimer : uint32_t {
    kTimerChildrenKnown = 1,
    kTimerSlot = 2,
    kTimerSendUp = 3,
    kTimerDeclare = 4,
  };

  Derived& derived() { return static_cast<Derived&>(*this); }

  void OnLocalTimer(HostId self, uint32_t local_id) override {
    switch (local_id) {
      case kTimerChildrenKnown:
        states_.Find(self)->children_known = true;
        MaybeCompleteEager(self);
        break;
      case kTimerSlot:
        ScheduleLocalTimer(self, sim_->Now(), kTimerSendUp);
        break;
      case kTimerSendUp:
        SendUp(self);
        break;
      case kTimerDeclare:
        Declare(self);
        break;
    }
  }

  /// The slot instant at which a depth-d host reports upward.
  SimTime SlotTime(int32_t depth, SimTime activation_time) const {
    SimTime delta = sim_->options().delta;
    // Depth-d slot: child reports (depth d+1, one slot earlier) arrive
    // exactly at this instant; SendUp requeues itself behind them. The
    // ladder is sound for D-hat >= depth_max + 1.
    SimTime slot = start_time_ + (2.0 * ctx_.d_hat -
                                  static_cast<double>(depth) - 0.5) * delta;
    // Late activation (churn-stretched paths): never report before having
    // existed for a moment.
    return std::max(slot, activation_time + 0.5 * delta);
  }

  void Activate(HostId self, HostId parent, int32_t depth) {
    State& st = states_.Touch(self);
    st.active = true;
    st.depth = depth;
    // Forward the query to every neighbor, the parent included: in kEager
    // the forward registers this host with the parent it names.
    sim::Message out;
    out.kind = MakeKind(kBroadcast);
    out.StoreInline(ForwardPayload{depth, derived().JoinWave(self, parent, st)},
                    sizeof(int32_t) + sizeof(HostId));
    sim_->SendToNeighbors(self, std::move(out));

    if (Eager()) {
      ScheduleLocalTimer(
          self, sim_->Now() + kChildDiscoveryDelay * sim_->options().delta,
          kTimerChildrenKnown);
    }
    // The report slot. In kEager it acts as a deadline fallback; in kSlotted
    // it is the only send trigger. The handler requeues at the same instant
    // so that child reports delivered at this exact time are folded in
    // first.
    ScheduleLocalTimer(self, SlotTime(depth, sim_->Now()), kTimerSlot);
  }

  /// Stops waiting for `child`; false if it was not awaited.
  static bool ForgetChild(State& st, HostId child) {
    auto it = std::find(st.pending_children.begin(),
                        st.pending_children.end(), child);
    if (it == st.pending_children.end()) return false;
    st.pending_children.erase(it);
    return true;
  }

  void MaybeCompleteEager(HostId self) {
    const State& st = *states_.Find(self);
    if (st.children_known && st.pending_children.empty()) SendUp(self);
  }

  void SendUp(HostId self) {
    State& st = *states_.Find(self);
    if (!st.active || st.sent_up) return;
    st.sent_up = true;
    if (self == hq_) {
      if (Eager()) Declare(self);
      return;  // kSlotted: the root declares at the horizon
    }
    derived().Report(self, st);
  }

  void Declare(HostId self) {
    if (result_.declared) return;
    result_.value = derived().Extract(*states_.Find(self));
    result_.declared_at = sim_->Now();
    result_.declared = true;
  }
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_
