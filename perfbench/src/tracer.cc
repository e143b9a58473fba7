#include "tracer.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint32_t Tracer::Begin(uint32_t query, const char* layer) {
  Span span;
  span.query = query;
  span.layer = layer;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  uint32_t index = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(uint32_t span) {
  Span& s = spans_[span];
  s.end_ns = NowNs();
  s.busy_ns = s.end_ns - s.start_ns;
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddCoalesced(uint32_t query, const char* layer, int64_t start_ns,
                          int64_t end_ns, int64_t busy_ns) {
  Span span;
  span.query = query;
  span.layer = layer;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = busy_ns;
  spans_.push_back(span);
}

void Tracer::Append(const Tracer& other) {
  uint32_t offset = static_cast<uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy_ns;
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent] -= s.busy_ns;
  }
  return self;
}

double Tracer::LayerSelfNs(const char* layer) const {
  std::vector<int64_t> self = SelfNs();
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].layer, layer) == 0) total += self[i];
  }
  return static_cast<double>(total);
}

double Tracer::LayerBusyNs(const char* layer) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.layer, layer) == 0) total += s.busy_ns;
  }
  return static_cast<double>(total);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::vector<int64_t> self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %lld, \"query\": %" PRIu32
                 ", \"layer\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"busy_ns\": %" PRId64
                 ", \"self_ns\": %" PRId64 "}\n",
                 i, parent, s.query, s.layer, s.start_ns, s.end_ns, s.busy_ns,
                 self[i]);
  }
  return std::fclose(out) == 0;
}

double ClockCostNs() {
  constexpr int kReads = 1000;
  std::vector<double> per_read;
  for (int block = 0; block < 15; ++block) {
    int64_t sink = 0;
    int64_t t0 = NowNs();
    for (int i = 0; i < kReads; ++i) sink += NowNs();
    int64_t t1 = NowNs();
    if (sink == 0) std::fprintf(stderr, "clock sink empty\n");
    per_read.push_back(static_cast<double>(t1 - t0) / kReads);
  }
  return Median(per_read);
}

int64_t TimingProgram::busy_ns() const {
  if (sampled_ == 0) return 0;
  double net = static_cast<double>(sampled_ns_) -
               clock_cost_ns_ * static_cast<double>(sampled_);
  double scaled = net * static_cast<double>(callbacks()) /
                  static_cast<double>(sampled_);
  return scaled > 0.0 ? static_cast<int64_t>(scaled) : 0;
}

void TimingProgram::Flush(Tracer* tracer, uint32_t query,
                          const char* layer) const {
  if (callbacks() == 0) return;
  tracer->AddCoalesced(query, layer, first_ns_, last_ns_, busy_ns());
}

}  // namespace perfbench
