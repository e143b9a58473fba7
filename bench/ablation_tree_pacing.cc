// Ablation: slotted (TAG-style, paper-faithful) vs eager-completion
// convergecast pacing for the SPANNINGTREE baseline.
//
// The paper's tree holds partial aggregates in interior hosts until their
// depth slot, exposing whole collected subtrees to churn; an eager tree
// drains data upward as soon as children complete and is markedly more
// robust (and lower latency) — quantifying why the reproduction defaults
// to slotted pacing to match the published Fig. 7-9 curves.

#include <cstdio>

#include "bench_util.h"
#include "core/engine.h"
#include "core/experiment.h"

namespace validity {
namespace {

int Main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineInt("hosts", 10000, "grid hosts (side = sqrt)");
  flags.DefineInt("trials", 5, "trials per churn level");
  flags.DefineInt("seed", 42, "base seed");
  bench::DefineThreadsFlag(&flags);
  ParseFlagsOrDie(&flags, argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  bench::PrintHeader(
      "Ablation - SPANNINGTREE convergecast pacing under churn (Grid count)",
      "slotted = paper-faithful TAG slots; eager = complete-and-forward");

  auto graph = bench::MakeTopology(
      "grid", static_cast<uint32_t>(flags.GetInt("hosts")), seed);
  VALIDITY_CHECK(graph.ok());
  core::QueryEngine engine(&*graph,
                           core::MakeZipfValues(graph->num_hosts(), seed + 1));

  core::QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 16;

  std::vector<core::ProtocolSpec> lineup;
  {
    core::ProtocolSpec slotted{"tree-slotted",
                               protocols::ProtocolKind::kSpanningTree,
                               protocols::ProtocolOptions{}};
    slotted.options.spanning_tree.pacing = protocols::TreePacing::kSlotted;
    core::ProtocolSpec eager{"tree-eager",
                             protocols::ProtocolKind::kSpanningTree,
                             protocols::ProtocolOptions{}};
    eager.options.spanning_tree.pacing = protocols::TreePacing::kEager;
    lineup.push_back(slotted);
    lineup.push_back(eager);
  }

  core::ChurnSweepOptions sweep;
  sweep.trials = static_cast<uint32_t>(flags.GetInt("trials"));
  sweep.base_seed = seed;
  sweep.threads = bench::GetThreads(flags);

  // Churn levels are set for the 10,000-host grid and scale with --hosts,
  // so a small smoke run sweeps the same churn fractions.
  std::vector<uint32_t> removals;
  for (uint64_t r : {0, 256, 1024, 2048}) {
    removals.push_back(static_cast<uint32_t>(r * graph->num_hosts() / 10000));
  }
  auto cells =
      core::RunChurnSweep(engine, spec, /*hq=*/0, lineup, removals, sweep);

  TablePrinter table({"R", "pacing", "count_mean", "count_ci95", "oracle_low",
                      "declared_at", "last_update_at_is_lower"});
  for (const auto& cell : cells) {
    table.NewRow()
        .Cell(static_cast<int64_t>(cell.removals))
        .Cell(cell.protocol)
        .Cell(cell.value.mean, 1)
        .Cell(cell.value.ci95, 1)
        .Cell(cell.oracle_low.mean, 1)
        .Cell(cell.time_cost.mean, 1)
        .Cell(cell.protocol == "tree-eager" ? "yes" : "n/a");
  }
  bench::EmitTable(table);
  return 0;
}

}  // namespace
}  // namespace validity

int main(int argc, char** argv) { return validity::Main(argc, argv); }
