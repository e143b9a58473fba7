// Shared fingerprint fixtures for the determinism-contract tests: the
// 37-case (spec, config, hq) matrix, the 30-case fault matrix, and the
// field-for-field QueryResult comparison. Used by tests/session_test.cc
// (fresh == session-reused == concurrent), tests/query_service_test.cc (the
// fourth column: the open query-arrival service), tests/fault_test.cc (the
// same contract under faults), tests/fingerprint_fuzz_test.cc (the
// randomized differential harness over the same comparator), and
// tests/golden_fingerprint_test.cc (both matrices pinned to committed
// hashes).

#ifndef VALIDITY_TESTS_FINGERPRINT_MATRIX_H_
#define VALIDITY_TESTS_FINGERPRINT_MATRIX_H_

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "sim/fault.h"

namespace validity::core {

struct Case {
  const char* label;
  QuerySpec spec;
  RunConfig config;
  HostId hq = 0;
};

/// The 37-case (spec, config, hq) matrix: every protocol, exact and FM
/// combiners, all five aggregates, churn, the WILDFIRE option ablations,
/// report routing, DAG fan-in, tree and DAG pacing, and the wireless medium.
inline std::vector<Case> FingerprintMatrix() {
  using protocols::ProtocolKind;
  std::vector<Case> cases;
  auto add = [&cases](const char* label, ProtocolKind kind, AggregateKind agg,
                      bool exact, uint32_t removals, HostId hq) {
    Case c;
    c.label = label;
    c.spec.aggregate = agg;
    c.spec.exact_combiners = exact;
    c.config.protocol = kind;
    c.config.churn_removals = removals;
    c.hq = hq;
    cases.push_back(c);
  };

  // Every protocol: failure-free count, exact and FM combiners. (10)
  for (auto kind :
       {ProtocolKind::kAllReport, ProtocolKind::kRandomizedReport,
        ProtocolKind::kSpanningTree, ProtocolKind::kDag,
        ProtocolKind::kWildfire}) {
    add("count-exact", kind, AggregateKind::kCount, true, 0, 0);
    add("count-fm", kind, AggregateKind::kCount, false, 0, 0);
  }
  // Every protocol under churn. (5)
  for (auto kind :
       {ProtocolKind::kAllReport, ProtocolKind::kRandomizedReport,
        ProtocolKind::kSpanningTree, ProtocolKind::kDag,
        ProtocolKind::kWildfire}) {
    add("count-churn", kind, AggregateKind::kCount, true, 100, 0);
  }
  // WILDFIRE across the aggregate vocabulary (min/max ride inline). (4)
  add("wf-sum", ProtocolKind::kWildfire, AggregateKind::kSum, false, 0, 0);
  add("wf-min", ProtocolKind::kWildfire, AggregateKind::kMin, false, 0, 0);
  add("wf-max", ProtocolKind::kWildfire, AggregateKind::kMax, false, 0, 0);
  add("wf-avg", ProtocolKind::kWildfire, AggregateKind::kAverage, false, 0, 0);
  // DAG and SPANNINGTREE aggregate coverage. (4)
  add("dag-sum", ProtocolKind::kDag, AggregateKind::kSum, false, 0, 0);
  add("dag-min", ProtocolKind::kDag, AggregateKind::kMin, true, 0, 0);
  add("tree-sum", ProtocolKind::kSpanningTree, AggregateKind::kSum, true, 0,
      0);
  add("tree-avg", ProtocolKind::kSpanningTree, AggregateKind::kAverage, true,
      0, 0);
  // ALL-REPORT sum + reverse-path routing under churn. (2)
  add("ar-sum", ProtocolKind::kAllReport, AggregateKind::kSum, true, 0, 0);
  add("ar-reverse", ProtocolKind::kAllReport, AggregateKind::kCount, true, 60,
      0);
  cases.back().config.protocol_options.all_report.routing =
      protocols::ReportRouting::kReversePath;
  // WILDFIRE option ablations. (3)
  add("wf-no-piggyback", ProtocolKind::kWildfire, AggregateKind::kCount,
      false, 0, 0);
  cases.back().config.protocol_options.wildfire.piggyback_broadcast = false;
  add("wf-no-early-term", ProtocolKind::kWildfire, AggregateKind::kCount,
      false, 50, 0);
  cases.back().config.protocol_options.wildfire.early_termination = false;
  add("wf-no-coalesce", ProtocolKind::kWildfire, AggregateKind::kCount, false,
      0, 0);
  cases.back().config.protocol_options.wildfire.coalesce_floods = false;
  // DAG k=3 and eager tree pacing. (2)
  add("dag-k3", ProtocolKind::kDag, AggregateKind::kCount, true, 80, 0);
  cases.back().config.protocol_options.dag.max_parents = 3;
  add("tree-eager", ProtocolKind::kSpanningTree, AggregateKind::kCount, true,
      80, 0);
  cases.back().config.protocol_options.spanning_tree.pacing =
      protocols::TreePacing::kEager;
  // Eager DAG pacing: child registration with every adopted parent. (1)
  add("dag-eager", ProtocolKind::kDag, AggregateKind::kCount, true, 80, 0);
  cases.back().config.protocol_options.dag.pacing =
      protocols::TreePacing::kEager;
  // Wireless medium. (3)
  add("wf-wireless", ProtocolKind::kWildfire, AggregateKind::kCount, false, 0,
      0);
  cases.back().config.sim_options.medium = sim::MediumKind::kWireless;
  add("tree-wireless", ProtocolKind::kSpanningTree, AggregateKind::kCount,
      true, 0, 0);
  cases.back().config.sim_options.medium = sim::MediumKind::kWireless;
  add("dag-wireless", ProtocolKind::kDag, AggregateKind::kCount, false, 0, 0);
  cases.back().config.sim_options.medium = sim::MediumKind::kWireless;
  // Churned FM sum + distinct seeds. (1)
  add("wf-churn-sum", ProtocolKind::kWildfire, AggregateKind::kSum, false,
      150, 0);
  cases.back().config.churn_seed = 77;
  cases.back().config.sketch_seed = 78;
  // Randomized sum under churn. (1)
  add("rr-churn-sum", ProtocolKind::kRandomizedReport, AggregateKind::kSum,
      false, 90, 0);
  // A different querying host. (1)
  add("wf-hq7", ProtocolKind::kWildfire, AggregateKind::kCount, false, 40, 7);
  return cases;
}

/// The fault matrix: one level per fault mode, plus mixed weather, each
/// running WILDFIRE/FM, WILDFIRE/exact under churn (faults and churn
/// composed), SPANNINGTREE/exact, GOSSIP and DAG — body-path, inline wire,
/// and mass-based traffic. 6 levels x 5 protocols = 30 cases, level-major;
/// sim::FaultSpecLabel(case.config.fault) names a case's level.
inline std::vector<Case> FaultFingerprintCases() {
  using protocols::ProtocolKind;
  std::vector<sim::FaultSpec> levels(6);
  levels[0].seed = 7;
  levels[0].drop_rate = 0.15;
  levels[1].seed = 8;
  levels[1].duplicate_rate = 0.2;
  levels[1].delay_rate = 0.25;
  levels[1].max_delay_hops = 3;
  levels[2].seed = 10;
  levels[2].byzantine_mode = sim::ByzantineMode::kInflate;
  levels[2].byzantine_fraction = 0.15;
  levels[3].seed = 11;
  levels[3].byzantine_mode = sim::ByzantineMode::kDeadenReplies;
  levels[3].byzantine_fraction = 0.25;
  levels[4].seed = 12;
  levels[4].byzantine_mode = sim::ByzantineMode::kStaleReplay;
  levels[4].byzantine_fraction = 0.25;
  levels[5].seed = 13;  // mixed weather
  levels[5].drop_rate = 0.08;
  levels[5].duplicate_rate = 0.05;
  levels[5].delay_rate = 0.1;
  levels[5].max_delay_hops = 2;
  levels[5].byzantine_mode = sim::ByzantineMode::kInflate;
  levels[5].byzantine_fraction = 0.1;

  std::vector<Case> cases;
  for (const sim::FaultSpec& fault : levels) {
    auto add = [&cases, &fault](const char* label, ProtocolKind kind,
                                AggregateKind agg, bool exact,
                                uint32_t removals) {
      Case c;
      c.label = label;
      c.spec.aggregate = agg;
      c.spec.exact_combiners = exact;
      c.config.protocol = kind;
      c.config.churn_removals = removals;
      c.config.fault = fault;
      cases.push_back(c);
    };
    add("wf-fm", ProtocolKind::kWildfire, AggregateKind::kCount, false, 0);
    add("wf-churn", ProtocolKind::kWildfire, AggregateKind::kSum, true, 60);
    add("tree", ProtocolKind::kSpanningTree, AggregateKind::kCount, true, 0);
    add("gossip", ProtocolKind::kGossip, AggregateKind::kCount, false, 0);
    add("dag", ProtocolKind::kDag, AggregateKind::kCount, false, 0);
  }
  return cases;
}

/// The determinism contract's comparator: every QueryResult field, exact.
inline void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                            const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.declared, b.declared);
  EXPECT_EQ(a.d_hat_used, b.d_hat_used);
  EXPECT_EQ(a.exact_full, b.exact_full);
  EXPECT_EQ(a.cost.messages, b.cost.messages);
  EXPECT_EQ(a.cost.bytes, b.cost.bytes);
  EXPECT_EQ(a.cost.max_processed, b.cost.max_processed);
  EXPECT_EQ(a.cost.declared_at, b.cost.declared_at);
  EXPECT_EQ(a.cost.last_update_at, b.cost.last_update_at);
  EXPECT_EQ(a.cost.sends_per_tick, b.cost.sends_per_tick);
  EXPECT_EQ(a.cost.computation_histogram.Items(),
            b.cost.computation_histogram.Items());
  EXPECT_EQ(a.validity.q_low, b.validity.q_low);
  EXPECT_EQ(a.validity.q_high, b.validity.q_high);
  EXPECT_EQ(a.validity.hc_size, b.validity.hc_size);
  EXPECT_EQ(a.validity.hu_size, b.validity.hu_size);
  EXPECT_EQ(a.validity.within, b.validity.within);
  EXPECT_EQ(a.validity.within_slack, b.validity.within_slack);
  EXPECT_EQ(a.resident_state_bytes, b.resident_state_bytes);
}

}  // namespace validity::core

#endif  // VALIDITY_TESTS_FINGERPRINT_MATRIX_H_
