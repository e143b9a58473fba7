#include "protocols/dag.h"

#include <algorithm>

namespace validity::protocols {

const std::vector<HostId>& DagProtocol::ParentsOf(HostId h) const {
  const DagHostState* st = states_.Find(h);
  return st == nullptr || !st->active ? empty_ : st->parents;
}

HostId DagProtocol::JoinWave(HostId self, HostId parent, DagHostState& st) {
  if (parent != kInvalidHost) st.parents.push_back(parent);
  st.agg = InitialAggregate(self);
  // kEager: the forward registers this host with its first parent.
  return Eager() ? parent : kInvalidHost;
}

void DagProtocol::OnLateForward(HostId self, HostId sender, int32_t hop,
                                DagHostState& st) {
  // Additional parent: a same-wave copy from one level up, adopted until
  // k parents are held (copies from the previous wave all land at this
  // same instant, before any report could have been sent).
  if (st.sent_up || hop != st.depth - 1 ||
      st.parents.size() >= options_.max_parents ||
      std::find(st.parents.begin(), st.parents.end(), sender) !=
          st.parents.end()) {
    return;
  }
  st.parents.push_back(sender);
  if (!Eager()) return;
  // Tell the extra parent it has a child to wait for.
  sim::Message out;
  out.kind = MakeKind(kRegister);
  out.StoreInline(sender, sizeof(HostId));  // addressee (wireless filtering)
  if (sim_->options().medium == sim::MediumKind::kWireless) {
    sim_->SendToNeighbors(self, std::move(out));
  } else {
    sim_->SendTo(self, sender, std::move(out));
  }
}

bool DagProtocol::Fold(HostId self, uint32_t local, const sim::Message& msg,
                       DagHostState* st) {
  if (local == kRegister) {
    if (msg.LoadInline<HostId>() == self && Collecting(st)) {
      st->pending_children.push_back(msg.src);
    }
    return false;
  }
  const auto& body = static_cast<const DagReportBody&>(*msg.body);
  const auto& to = body.to_parents;  // wireless: overheard by non-addressees
  if (std::find(to.begin(), to.end(), self) == to.end() || !Collecting(st)) {
    return false;
  }
  st->agg->CombineFrom(body.agg);  // duplicate-insensitive merge
  return true;
}

void DagProtocol::Report(HostId self, const DagHostState& st) {
  DagReportBody* body = report_pool_.Acquire();
  body->agg = *st.agg;
  body->to_parents = st.parents;
  sim::Message out;
  out.kind = MakeKind(kReport);
  out.body = sim::BodyRef(body);
  // On the wireless medium one transmission reaches every parent (paper
  // §6.6: on Grid the DAG convergecast costs the same as the tree's,
  // whatever k is).
  SendToParents(self, std::move(out), st.parents.data(), st.parents.size());
}

}  // namespace validity::protocols
