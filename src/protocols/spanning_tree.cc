#include "protocols/spanning_tree.h"

namespace validity::protocols {

HostId SpanningTreeProtocol::ParentOf(HostId h) const {
  const TreeHostState* st = states_.Find(h);
  return st == nullptr || !st->active ? kInvalidHost : st->parent;
}

HostId SpanningTreeProtocol::JoinWave(HostId self, HostId parent,
                                      TreeHostState& st) {
  st.parent = parent;
  st.partial.AddHost(HostValue(self));
  return parent;  // named in every forward; only kEager reads it
}

bool SpanningTreeProtocol::Fold(HostId self, uint32_t /*local: kReport*/,
                                const sim::Message& msg, TreeHostState* st) {
  const auto in = msg.LoadInline<ReportPayload>();
  if (in.to_parent != self || !Collecting(st)) return false;  // overheard
  st->partial.Merge(in.partial);
  return true;
}

void SpanningTreeProtocol::Report(HostId self, const TreeHostState& st) {
  sim::Message out;
  out.kind = MakeKind(kReport);
  // Wire size excludes the addressee field: the report payload proper is
  // the fixed 32-byte ScalarPartial record.
  out.StoreInline(ReportPayload{st.partial, st.parent},
                  ScalarPartial::kWireBytes);
  SendToParents(self, std::move(out), &st.parent, 1);
}

}  // namespace validity::protocols
