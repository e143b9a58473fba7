// The open-loop workload: seeded query arrivals, in simulated time, into
// one QueryService on a 5,000-host Gnutella-like graph whose timeline
// carries uniform churn and active link faults (drop, duplicate and delay
// at 5% each, up to 2 extra hops). Eight lanes; arrivals every 12 delta on
// average, below the service's capacity but close enough that on most seeds
// a few queries wait for a lane.
//
// A round rewinds the service and replays the same arrivals: the timeline
// is advanced in slices of at most one delta, each arrival is submitted
// when the timeline reaches its instant, and completions are polled after
// every slice. Every round runs the same slices, and each slice is timed;
// a query's host time is its share of the slices it was working during.
// The traced run times the same calls (Reset, Submit, RunUntil, Poll) and
// wraps the session's query mux to time the protocol callbacks; it must
// reproduce every untraced completion bit for bit.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "core/query_service.h"
#include "sim/trace.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

using namespace validity;

namespace {

// Half of paper_churn's graph: a round then takes about 3 s, so a run
// times every slice on 10 or more rounds (README.md, host drift).
constexpr uint32_t kHosts = 5'000;
constexpr uint32_t kLanes = 8;
constexpr size_t kArrivals = 120;
// Gaps are uniform in [0.5, 1.5] x kMeanGap delta. With Poisson gaps the
// seed decided how many floods overlap, and peak RSS moved by 0.15-0.26
// across seeds (README.md).
constexpr double kMeanGap = 12.0;
// D-hat of every query and of the churn window, as in paper_churn.
constexpr double kDhat = 16;

struct Arrival {
  SimTime at = 0.0;
  core::QuerySpec spec;
  core::RunConfig config;
};

/// One slice of timeline: the simulated interval (from, to] that one
/// RunUntil call advanced, then polled.
struct Slice {
  SimTime from = 0.0, to = 0.0;
};

/// What one round produced, indexed by arrival.
struct RoundResult {
  std::vector<core::QueryService::Completion> done;
  std::vector<Slice> slices;
  std::vector<int64_t> slice_ns;   // host time of each slice's calls
  std::vector<int64_t> submit_ns;  // host time of each arrival's Submit
  uint64_t events = 0;
  double busy_s = 0.0;  // host time of the whole round
  double occupancy = 0.0;
  uint32_t peak_in_flight = 0;
  size_t table_bytes = 0;
  bool ok = true;
};

bool SameCompletion(const core::QueryService::Completion& a,
                    const core::QueryService::Completion& b) {
  return a.submitted_at == b.submitted_at && a.started_at == b.started_at &&
         a.retired_at == b.retired_at && SameResult(a.result, b.result);
}

bool SameSlices(const std::vector<Slice>& a, const std::vector<Slice>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Slice& x, const Slice& y) {
                      return x.from == y.from && x.to == y.to;
                    });
}

/// Timing hooks of the traced run. A null recorder records no events.
struct RoundTrace {
  Tracer* tracer = nullptr;
  sim::TraceRecorder* recorder = nullptr;
  uint32_t round = 0;
  double clock_cost_ns = 0.0;
  uint64_t messages = 0, timers = 0, failure_callbacks = 0;
  uint64_t sends = 0, deliveries = 0, drops = 0;  // from the recorder
  uint64_t overflowed = 0;  // events the recorder could not keep
};

/// Churned service queries share one querying host. The 100th
/// best-connected host (ties to the lower id) plays the same role on every
/// seed: its degree is 15 or 16, where the top hub's ranges from 80 to 159
/// across seeds.
HostId WellConnectedHost(const topology::Graph& graph) {
  std::vector<HostId> hosts(graph.num_hosts());
  for (HostId h = 0; h < graph.num_hosts(); ++h) hosts[h] = h;
  std::stable_sort(hosts.begin(), hosts.end(), [&](HostId a, HostId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  return hosts[std::min<size_t>(99, hosts.size() - 1)];
}

class ServiceBench {
 public:
  ServiceBench(const RunOptions& options, LayerValues* layers) {
    const uint64_t seed = options.seed;
    NetworkSpec spec;
    spec.gnutella_hosts = kHosts;
    spec.graph_seed = Mix64(seed ^ 0x6e7ull);
    spec.values_seed = Mix64(seed ^ 0x7a1full);
    Rng rng(Mix64(seed ^ 0x5e7full));
    service_options_.max_in_flight = kLanes;
    service_options_.churn_removals = 250;
    service_options_.churn_seed = rng.Next();
    service_options_.churn_d_hat = kDhat;
    service_options_.fault.seed = rng.Next();
    service_options_.fault.drop_rate = 0.05;
    service_options_.fault.duplicate_rate = 0.05;
    service_options_.fault.delay_rate = 0.05;
    service_options_.fault.max_delay_hops = 2;

    built_ = SetUp<core::QueryService>(spec, [&](const World& world) {
      service_options_.churn_hq = WellConnectedHost(*world.graph);
      return std::make_unique<core::QueryService>(world.engine.get(),
                                                  service_options_);
    });
    layers->topology_build_ms = built_.times.topology_ms;
    layers->topology_diameter_ms = built_.times.diameter_ms;
    layers->session_build_ms = built_.times.session_ms;

    // 70% of queries retire fast (WILDFIRE, ALL-REPORT: a lane is held
    // about one horizon) and 30% slowly (SPANNINGTREE, DAG: held through
    // churn failure detection), so the latency p50 falls inside the first
    // cluster and p90 inside the second, never on their boundary. Every
    // block of 20 arrivals has that mix, in a seeded order.
    std::vector<protocols::ProtocolKind> mix;
    for (size_t block = 0; block < kArrivals; block += 20) {
      std::vector<protocols::ProtocolKind> order;
      for (size_t k = 0; k < 20; ++k) {
        order.push_back(k < 7    ? protocols::ProtocolKind::kWildfire
                        : k < 14 ? protocols::ProtocolKind::kAllReport
                        : k < 17 ? protocols::ProtocolKind::kSpanningTree
                                 : protocols::ProtocolKind::kDag);
      }
      rng.Shuffle(&order);
      mix.insert(mix.end(), order.begin(), order.end());
    }
    SimTime at = 0.0;
    for (size_t i = 0; i < kArrivals; ++i) {
      Arrival a;
      at += kMeanGap * (0.5 + rng.NextDouble());
      a.at = at;
      a.spec.aggregate =
          i % 3 == 2 ? AggregateKind::kSum : AggregateKind::kCount;
      a.spec.fm_vectors = 16;
      a.spec.d_hat = kDhat;
      a.config.protocol = mix[i];
      a.config.churn_removals = service_options_.churn_removals;
      a.config.churn_seed = service_options_.churn_seed;
      a.config.fault = service_options_.fault;
      a.config.sketch_seed = rng.Next();
      arrivals_.push_back(a);
    }
  }

  double setup_s() const { return built_.times.total_ms / 1e3; }
  HostId hq() const { return service_options_.churn_hq; }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

  /// Rewinds the service and runs every arrival to completion. A non-null
  /// `cpus` moves between slices to the next CPU every stint.
  RoundResult Round(RoundTrace* trace, CpuRotation* cpus = nullptr) {
    RoundResult out;
    out.done.resize(arrivals_.size());
    std::map<core::QueryService::QueryId, size_t> index;
    sim::Simulator& sim = service()->session().simulator();
    Tracer* tracer = trace != nullptr ? trace->tracer : nullptr;
    const uint32_t qid = trace != nullptr ? trace->round : 0;
    double occupied = 0.0;

    sim::QueryProgramMux& mux = service()->session().mux();
    // One slice of timeline: up to `until`, then poll what retired.
    auto advance = [&](SimTime until) {
      if (cpus != nullptr) cpus->Tick();
      const SimTime from = service()->Now();
      const int64_t t0 = NowNs();
      if (tracer == nullptr) {
        service()->RunUntil(until);
      } else {
        TimingProgram timing(&mux, trace->clock_cost_ns, out.slices.size());
        sim.AttachProgram(&timing);
        {
          ScopedSpan span(tracer, qid, "service.run_until");
          service()->RunUntil(until);
          timing.Flush(tracer, qid, "protocols.handlers");
        }
        sim.AttachProgram(&mux);
        trace->messages += timing.messages;
        trace->timers += timing.timers;
        trace->failure_callbacks += timing.failure_callbacks;
        if (sim::TraceRecorder* recorder = trace->recorder) {
          trace->sends += recorder->CountOf(sim::TraceEventKind::kSend);
          trace->deliveries += recorder->CountOf(sim::TraceEventKind::kDeliver);
          trace->drops += recorder->CountOf(sim::TraceEventKind::kDrop);
          trace->overflowed += recorder->overflowed();
          recorder->Clear();
        }
      }
      occupied += service()->in_flight();
      {
        ScopedSpan span(tracer, qid, "service.poll");
        core::QueryService::Completion c;
        while (service()->Poll(&c)) {
          size_t i = index.at(c.id);
          out.done[i] = std::move(c);
        }
      }
      out.slices.push_back({from, service()->Now()});
      out.slice_ns.push_back(NowNs() - t0);
    };
    auto step_to = [&](SimTime target) {
      while (service()->Now() < target) {
        advance(std::min(target, std::floor(service()->Now()) + 1.0));
      }
    };

    int64_t t0 = NowNs();
    {
      ScopedSpan root(tracer, qid, "service.round");
      {
        ScopedSpan span(tracer, qid, "session.reset");
        service()->Reset();
      }
      if (trace != nullptr && trace->recorder != nullptr) {
        sim.AttachTrace(trace->recorder);
      }
      for (size_t i = 0; i < arrivals_.size(); ++i) {
        const Arrival& a = arrivals_[i];
        step_to(a.at);
        auto submit = [&] {
          ScopedSpan span(tracer, qid, "service.submit");
          return service()->Submit(a.at, a.spec, a.config, hq());
        };
        const int64_t s0 = NowNs();
        StatusOr<core::QueryService::QueryId> id = submit();
        out.submit_ns.push_back(NowNs() - s0);
        if (!id.ok()) {
          std::fprintf(stderr, "submit failed: %s\n",
                       id.status().ToString().c_str());
          out.ok = false;
          continue;
        }
        index[*id] = i;
      }
      while (service()->completed() < service()->submitted()) {
        advance(std::floor(service()->Now()) + 1.0);
      }
    }
    out.busy_s = static_cast<double>(NowNs() - t0) / 1e9;

    sim.AttachTrace(nullptr);
    out.events = sim.events_executed();
    out.occupancy =
        occupied / static_cast<double>(out.slices.size()) / kLanes;
    out.peak_in_flight = service()->peak_in_flight();
    out.table_bytes = sim.ResidentTableBytes();
    return out;
  }

  /// Re-runs completion `c` of arrival `a` alone, started at its
  /// started_at, and checks it is bit-identical (docs/SERVICE.md).
  bool SoloMatches(const Arrival& a,
                   const core::QueryService::Completion& c) {
    const core::QueryEngine& engine = *built_.world.engine;
    if (c.started_at == 0.0) {
      StatusOr<core::QueryResult> solo = engine.Run(a.spec, a.config, hq());
      return solo.ok() && SameResult(*solo, c.result);
    }
    if (solo_session_ == nullptr) {
      solo_session_ = std::make_unique<sim::SimulatorSession>(
          engine.topology(), service_options_.sim_options);
    }
    core::QueryEngine::ConcurrentQuery q{a.spec, a.config, hq(), c.started_at};
    StatusOr<std::vector<core::QueryResult>> solo =
        engine.RunConcurrent(solo_session_.get(), {q});
    return solo.ok() && solo->size() == 1 && SameResult((*solo)[0], c.result);
  }

 private:
  core::QueryService* service() { return built_.runner.get(); }

  core::ServiceOptions service_options_;
  Built<core::QueryService> built_;
  std::unique_ptr<sim::SimulatorSession> solo_session_;
  std::vector<Arrival> arrivals_;
};

/// Checks a round against the reference round; counts every completion.
void CheckRound(const RoundResult& round, const RoundResult& ref,
                Report* report) {
  report->Check(round.ok && round.events == ref.events &&
                    SameSlices(round.slices, ref.slices),
                "round events and slices equal warm-up's");
  for (size_t i = 0; i < round.done.size(); ++i) {
    report->Check(SameCompletion(round.done[i], ref.done[i]),
                  "completion equals warm-up completion");
  }
}

RoundResult WarmUp(ServiceBench* bench, Report* report) {
  RoundResult ref = bench->Round(nullptr);
  report->Check(ref.ok, "every arrival accepted");
  Digest digest;
  digest.Add(ref.events);
  for (const core::QueryService::Completion& c : ref.done) {
    report->Check(c.result.declared, "query declared");
    digest.AddDouble(c.submitted_at);
    digest.AddDouble(c.started_at);
    digest.AddDouble(c.retired_at);
    digest.AddResult(c.result);
  }
  std::printf("service_faulty digest %016" PRIx64 " over %zu queries\n",
              digest.value(), ref.done.size());
  return ref;
}

/// Host time of each query, in ms: its Submit plus, for every slice it was
/// working during, that slice's time shared equally among the queries
/// working then. A query works from started_at until its answer is final
/// (the later of declared_at and last_update_at); after that its lane only
/// waits for retirement.
std::vector<double> QueryHostMs(const RoundResult& ref,
                                const std::vector<int64_t>& slice_ns,
                                const std::vector<int64_t>& submit_ns) {
  std::vector<double> ns(ref.done.size());
  std::vector<SimTime> working_until(ref.done.size());
  for (size_t i = 0; i < ns.size(); ++i) {
    const core::QueryService::Completion& c = ref.done[i];
    ns[i] = static_cast<double>(submit_ns[i]);
    working_until[i] = c.result.declared
                           ? std::max(c.result.cost.declared_at,
                                      c.result.cost.last_update_at)
                           : c.retired_at;
  }
  std::vector<size_t> active;
  for (size_t k = 0; k < ref.slices.size(); ++k) {
    active.clear();
    for (size_t i = 0; i < ref.done.size(); ++i) {
      if (ref.done[i].started_at <= ref.slices[k].to &&
          working_until[i] > ref.slices[k].from) {
        active.push_back(i);
      }
    }
    for (size_t i : active) {
      ns[i] += static_cast<double>(slice_ns[k]) /
               static_cast<double>(active.size());
    }
  }
  for (double& x : ns) x /= 1e6;
  return ns;
}

Report RunTimed(const RunOptions& options) {
  Report report;
  LayerValues unused;
  ServiceBench bench(options, &unused);
  RoundResult ref = WarmUp(&bench, &report);

  // Each slice's and each Submit's host time is its fastest over the timed
  // rounds, which move across every CPU (README.md: neighbouring load only
  // ever slows a call, on one CPU at a time, for seconds to minutes).
  std::vector<int64_t> slice_ns(ref.slices.size(), INT64_MAX);
  std::vector<int64_t> submit_ns(ref.done.size(), INT64_MAX);
  auto keep_best = [](const std::vector<int64_t>& ns,
                      std::vector<int64_t>* best) {
    if (ns.size() != best->size()) return;  // CheckRound counts the failure
    for (size_t i = 0; i < ns.size(); ++i) {
      (*best)[i] = std::min((*best)[i], ns[i]);
    }
  };
  CpuRotation cpus;
  size_t rounds = 0;
  int64_t start = NowNs();
  while (rounds < 3 || SecondsSince(start) < options.seconds) {
    RoundResult round = bench.Round(nullptr, &cpus);
    CheckRound(round, ref, &report);
    keep_best(round.slice_ns, &slice_ns);
    keep_best(round.submit_ns, &submit_ns);
    ++rounds;
  }
  double rss_mb = PeakRssMb();

  // A seeded sample of completions re-run solo at their start instants.
  Rng rng(Mix64(options.seed ^ 0xc4ecull));
  for (uint32_t i : rng.SampleWithoutReplacement(
           static_cast<uint32_t>(ref.done.size()), 3)) {
    report.Check(bench.SoloMatches(bench.arrivals()[i], ref.done[i]),
                 "solo re-run equals service completion");
  }

  std::vector<double> query_ms = QueryHostMs(ref, slice_ns, submit_ns);
  double busy_s = 0.0;
  for (int64_t ns : slice_ns) busy_s += static_cast<double>(ns) / 1e9;
  for (int64_t ns : submit_ns) busy_s += static_cast<double>(ns) / 1e9;
  std::vector<double> latency;
  double declared = 0, within = 0;
  size_t deferred = 0;
  for (const core::QueryService::Completion& c : ref.done) {
    latency.push_back(c.retired_at - c.submitted_at);
    declared += c.result.declared;
    within += c.result.declared && c.result.validity.within_slack;
    deferred += c.started_at > c.submitted_at;
  }
  const double n = static_cast<double>(ref.done.size());
  std::printf("service_faulty timed rounds=%zu of %zu queries (%zu waited "
              "for a lane), %zu slices\n",
              rounds, ref.done.size(), deferred, ref.slices.size());
  report.Add("setup_s", bench.setup_s(), "s");
  report.Add("queries_per_s", n / busy_s, "1/s");
  report.Add("query_ms_p50", Quantile(query_ms, 0.5), "ms");
  report.Add("query_ms_p90", Quantile(query_ms, 0.9), "ms");
  report.Add("events_per_s", static_cast<double>(ref.events) / busy_s, "1/s");
  report.Add("peak_rss_mb", rss_mb, "MB");
  report.Add("valid_frac", within / declared, "frac");
  report.Add("sim_latency_p50", Quantile(latency, 0.5), "delta");
  report.Add("sim_latency_p90", Quantile(latency, 0.9), "delta");
  return report;
}

Report RunTraced(const RunOptions& options) {
  Report report;
  LayerValues v;
  ServiceBench bench(options, &v);
  RoundResult ref = WarmUp(&bench, &report);
  const double n = static_cast<double>(ref.done.size());

  // Counting pass with a TraceRecorder attached: exact send, delivery and
  // drop counts, taken and cleared after every slice. Its timings are
  // discarded, since recording every event would inflate them.
  const double clock_cost_ns = ClockCostNs();
  RoundTrace first;
  first.clock_cost_ns = clock_cost_ns;
  {
    sim::TraceRecorder recorder(size_t{1} << 24);
    Tracer scratch;
    first.tracer = &scratch;
    first.recorder = &recorder;
    CheckRound(bench.Round(&first), ref, &report);
    report.Check(first.overflowed == 0, "trace recorder kept every event");
    v.sim_sends = static_cast<double>(first.sends);
    v.sim_deliveries = static_cast<double>(first.deliveries);
    v.fault_drops = static_cast<double>(first.drops);
    first.tracer = nullptr;
    first.recorder = nullptr;
  }

  std::vector<double> untraced_qps, traced_qps, reset_us, submit_us;
  std::vector<double> ms_per_delta, self_ms, ns_per_event, handler_ms;
  std::vector<double> ns_per_cb, residual;
  Tracer all;
  CpuRotation cpus;
  int64_t start = NowNs();
  for (uint32_t round = 0;
       round == 0 || SecondsSince(start) < options.seconds; ++round) {
    cpus.Next();  // the untraced and the traced round share a CPU
    RoundResult plain = bench.Round(nullptr);
    CheckRound(plain, ref, &report);
    untraced_qps.push_back(n / plain.busy_s);

    Tracer tracer;
    RoundTrace trace;
    trace.tracer = &tracer;
    trace.round = round;
    trace.clock_cost_ns = clock_cost_ns;
    RoundResult traced = bench.Round(&trace);
    CheckRound(traced, ref, &report);
    traced_qps.push_back(n / traced.busy_s);
    report.Check(trace.messages == first.messages &&
                     trace.timers == first.timers &&
                     trace.failure_callbacks == first.failure_callbacks,
                 "callback counts equal across rounds");

    double run = tracer.LayerBusyNs("service.run_until");
    double run_self = tracer.LayerSelfNs("service.run_until");
    double handlers = tracer.LayerBusyNs("protocols.handlers");
    double callbacks = static_cast<double>(trace.messages + trace.timers +
                                           trace.failure_callbacks);
    SimTime timeline = 1.0;  // simulated span of the round
    for (const core::QueryService::Completion& c : traced.done) {
      timeline = std::max(timeline, c.retired_at);
    }
    reset_us.push_back(tracer.LayerBusyNs("session.reset") / 1e3);
    submit_us.push_back(tracer.LayerBusyNs("service.submit") / n / 1e3);
    ms_per_delta.push_back(run / 1e6 / timeline);
    self_ms.push_back(run_self / n / 1e6);
    ns_per_event.push_back(run_self / static_cast<double>(traced.events));
    handler_ms.push_back(handlers / n / 1e6);
    ns_per_cb.push_back(callbacks == 0 ? 0.0 : handlers / callbacks);
    residual.push_back(tracer.LayerSelfNs("service.round") /
                       tracer.LayerBusyNs("service.round"));
    all.Append(tracer);
  }
  if (!options.trace_out.empty() && !all.WriteJsonl(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    report.Check(false, "spans written");
  }

  std::vector<double> wait, hold;
  double deferred = 0, state_bytes = 0;
  for (const core::QueryService::Completion& c : ref.done) {
    wait.push_back(c.started_at - c.submitted_at);
    deferred += c.started_at > c.submitted_at;
    if (c.result.declared) {
      hold.push_back(c.retired_at - c.result.cost.declared_at);
    }
    state_bytes += static_cast<double>(c.result.resident_state_bytes);
  }
  v.session_reset_us = Median(reset_us);
  v.session_table_mb = static_cast<double>(ref.table_bytes) / kBytesPerMb;
  v.sim_events = static_cast<double>(ref.events);
  v.sim_self_ms = Median(self_ms);
  v.sim_ns_per_event = Median(ns_per_event);
  v.sim_timers = static_cast<double>(first.timers);
  v.sim_failure_callbacks = static_cast<double>(first.failure_callbacks);
  v.handler_ms = Median(handler_ms);
  v.ns_per_callback = Median(ns_per_cb);
  v.state_mb = state_bytes / n / kBytesPerMb;
  v.combine_ns = (CombineNs(AggregateKind::kCount, 16, options.seed) +
                  CombineNs(AggregateKind::kSum, 16, options.seed)) /
                 2.0;
  v.submit_us = Median(submit_us);
  v.host_ms_per_delta = Median(ms_per_delta);
  v.lane_occupancy = ref.occupancy;
  v.deferred_frac = deferred / n;
  v.queue_wait_p90 = Quantile(wait, 0.9);
  v.retire_hold_p50 = Quantile(hold, 0.5);
  v.peak_in_flight = ref.peak_in_flight;
  v.overhead_frac = 1.0 - Median(traced_qps) / Median(untraced_qps);
  v.residual_frac = Median(residual);
  std::printf("service_faulty traced rounds=%zu spans=%zu\n", traced_qps.size(),
              all.spans().size());
  AddLayerMetrics(v, &report);
  return report;
}

}  // namespace

Report RunServiceFaulty(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunTimed(options);
}

}  // namespace perfbench
