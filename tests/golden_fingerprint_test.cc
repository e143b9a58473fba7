// Golden fingerprints: every case of the fingerprint matrix and of the fault
// matrix (tests/fingerprint_matrix.h), run fresh, hashed, and compared
// against the committed tables below.
//
// The other determinism tests compare execution paths of one build against
// each other (fresh, session, concurrent, service), so a change that moves
// every path the same way passes them all. These tables pin the results
// themselves: a refactor that claims to keep behaviour bit for bit must
// leave every hash unchanged. Each hash covers every field ExpectIdentical
// compares, bit for bit (doubles by their bit pattern).
//
// A change that moves results on purpose regenerates the tables: on any
// mismatch the test prints both tables in source form, ready to paste over
// the ones below. Say in the change's notes why the results moved.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fingerprint_matrix.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

struct Golden {
  const char* label;
  uint64_t hash;
};

// clang-format off
constexpr Golden kMatrixGolden[] = {
    {"count-exact", 0x0f013839e6b2e992ull},
    {"count-fm", 0x0f013839e6b2e992ull},
    {"count-exact", 0xe9cf35d157ab913eull},
    {"count-fm", 0xe9cf35d157ab913eull},
    {"count-exact", 0x15e08363417a5becull},
    {"count-fm", 0x15e08363417a5becull},
    {"count-exact", 0xbc3249abadbe378bull},
    {"count-fm", 0x49db6d147c8c2e50ull},
    {"count-exact", 0x4e5314e85375137cull},
    {"count-fm", 0xf352fc6907963498ull},
    {"count-churn", 0x1d005882ba49f5c9ull},
    {"count-churn", 0x7f6222437d086c4aull},
    {"count-churn", 0x0e0a5ec67669028full},
    {"count-churn", 0x697c451a17b8edacull},
    {"count-churn", 0xd03acaf498da19d8ull},
    {"wf-sum", 0xcab82053f649efd9ull},
    {"wf-min", 0x738f9db0e14f68a5ull},
    {"wf-max", 0x9976d9c852502d90ull},
    {"wf-avg", 0xc90ddc94ac27aa80ull},
    {"dag-sum", 0x7f6b9dfbc3fb628aull},
    {"dag-min", 0x227a8b08d0ff416aull},
    {"tree-sum", 0x92c44dc9b5ed9f48ull},
    {"tree-avg", 0xa6c45123b2fffe08ull},
    {"ar-sum", 0x837776f0e367a70eull},
    {"ar-reverse", 0xccb9ed8a1cc2c4bbull},
    {"wf-no-piggyback", 0x9c8ebf6e15c24e82ull},
    {"wf-no-early-term", 0x6ab73c7b4bd461aaull},
    {"wf-no-coalesce", 0xfdaf42d1159a4625ull},
    {"dag-k3", 0xff7b5492c0e15d73ull},
    {"tree-eager", 0xfda6f8a365700af6ull},
    {"dag-eager", 0x9eec52a8cb06690bull},
    {"wf-wireless", 0x8b4edc51f4eb3f19ull},
    {"tree-wireless", 0x921bfdc27d0e1b64ull},
    {"dag-wireless", 0xa42b75a96755aeabull},
    {"wf-churn-sum", 0x7d5265cdd0374878ull},
    {"rr-churn-sum", 0xa7527a90a304050dull},
    {"wf-hq7", 0xfe4d5ea773600883ull},
};

constexpr Golden kFaultGolden[] = {
    {"drop=0.15/wf-fm", 0xffda042c4c2e218full},
    {"drop=0.15/wf-churn", 0x7f342602f6f4806eull},
    {"drop=0.15/tree", 0xd952855fd57c7c32ull},
    {"drop=0.15/gossip", 0x8646ba9bc9fe6bf7ull},
    {"drop=0.15/dag", 0xcd44560975d8a006ull},
    {"dup=0.20+delay=0.25/wf-fm", 0x83e3b229f2d9a882ull},
    {"dup=0.20+delay=0.25/wf-churn", 0xdcb7322ee0d5e257ull},
    {"dup=0.20+delay=0.25/tree", 0x443622dc59ab8387ull},
    {"dup=0.20+delay=0.25/gossip", 0x11733be5203b66baull},
    {"dup=0.20+delay=0.25/dag", 0x946257ed694adcc7ull},
    {"byz-inflate=0.15/wf-fm", 0x0d58f5d92fb190d9ull},
    {"byz-inflate=0.15/wf-churn", 0x79674b0aaeb291f6ull},
    {"byz-inflate=0.15/tree", 0x986ea2cd28b5ee76ull},
    {"byz-inflate=0.15/gossip", 0xfefd710eeaecc1feull},
    {"byz-inflate=0.15/dag", 0x894b326e02a6831aull},
    {"byz-deaden=0.25/wf-fm", 0x23a716dcf3472bc2ull},
    {"byz-deaden=0.25/wf-churn", 0xa2bc5ca19a6f45feull},
    {"byz-deaden=0.25/tree", 0x0993dda896210984ull},
    {"byz-deaden=0.25/gossip", 0x092fe18f36c72717ull},
    {"byz-deaden=0.25/dag", 0x137b777c6a7c3ac2ull},
    {"byz-stale-replay=0.25/wf-fm", 0x2de7bc7f4d63895dull},
    {"byz-stale-replay=0.25/wf-churn", 0x54da734b383a3f15ull},
    {"byz-stale-replay=0.25/tree", 0xe611c9d99663e073ull},
    {"byz-stale-replay=0.25/gossip", 0x93cc774aed639ce6ull},
    {"byz-stale-replay=0.25/dag", 0x894b326e02a6831aull},
    {"drop=0.08+dup=0.05+delay=0.10+byz-inflate=0.10/wf-fm", 0xb45d7116b2612cbcull},
    {"drop=0.08+dup=0.05+delay=0.10+byz-inflate=0.10/wf-churn", 0x18042d02193356fdull},
    {"drop=0.08+dup=0.05+delay=0.10+byz-inflate=0.10/tree", 0xa3500443c56b7492ull},
    {"drop=0.08+dup=0.05+delay=0.10+byz-inflate=0.10/gossip", 0x2fdd290442609c29ull},
    {"drop=0.08+dup=0.05+delay=0.10+byz-inflate=0.10/dag", 0x81543e460ac3ae99ull},
};
// clang-format on

/// FNV-1a over 64-bit words.
class FieldHash {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(bool flag) { Add(static_cast<uint64_t>(flag)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Hashes the fields ExpectIdentical compares, in its order.
uint64_t Fingerprint(const QueryResult& r) {
  FieldHash h;
  h.Add(r.value);
  h.Add(r.declared);
  h.Add(r.d_hat_used);
  h.Add(r.exact_full);
  h.Add(static_cast<uint64_t>(r.cost.messages));
  h.Add(static_cast<uint64_t>(r.cost.bytes));
  h.Add(static_cast<uint64_t>(r.cost.max_processed));
  h.Add(r.cost.declared_at);
  h.Add(r.cost.last_update_at);
  h.Add(static_cast<uint64_t>(r.cost.sends_per_tick.size()));
  for (uint64_t sends : r.cost.sends_per_tick) h.Add(sends);
  const auto items = r.cost.computation_histogram.Items();
  h.Add(static_cast<uint64_t>(items.size()));
  for (const auto& [processed, hosts] : items) {
    h.Add(static_cast<uint64_t>(processed));
    h.Add(static_cast<uint64_t>(hosts));
  }
  h.Add(r.validity.q_low);
  h.Add(r.validity.q_high);
  h.Add(static_cast<uint64_t>(r.validity.hc_size));
  h.Add(static_cast<uint64_t>(r.validity.hu_size));
  h.Add(r.validity.within);
  h.Add(r.validity.within_slack);
  h.Add(static_cast<uint64_t>(r.resident_state_bytes));
  return h.value();
}

struct Row {
  std::string label;
  uint64_t hash;
};

/// Fresh-runs every case on `engine` and fingerprints the results.
std::vector<Row> RunCases(const QueryEngine& engine,
                          const std::vector<Case>& cases, bool fault_labels) {
  std::vector<Row> rows;
  for (const Case& c : cases) {
    auto result = engine.Run(c.spec, c.config, c.hq);
    EXPECT_TRUE(result.ok()) << c.label;
    std::string label = c.label;
    if (fault_labels) label = sim::FaultSpecLabel(c.config.fault) + "/" + label;
    rows.push_back(Row{label, result.ok() ? Fingerprint(*result) : 0});
  }
  return rows;
}

template <size_t N>
bool Matches(const std::vector<Row>& rows, const Golden (&golden)[N]) {
  bool same = rows.size() == N;
  for (size_t i = 0; i < rows.size(); ++i) {
    const bool row_same = i < N && rows[i].hash == golden[i].hash &&
                          rows[i].label == golden[i].label;
    EXPECT_TRUE(row_same) << "row " << i << " (" << rows[i].label
                          << ") moved";
    same = same && row_same;
  }
  return same;
}

void PrintTable(const char* name, const std::vector<Row>& rows) {
  std::printf("constexpr Golden %s[] = {\n", name);
  for (const Row& row : rows) {
    std::printf("    {\"%s\", 0x%016" PRIx64 "ull},\n", row.label.c_str(),
                row.hash);
  }
  std::printf("};\n");
}

TEST(GoldenFingerprintTest, MatrixAndFaultResultsMatchTheCommittedTables) {
  const topology::Graph matrix_graph = *topology::MakeGnutellaLike(500, 91);
  const QueryEngine matrix_engine(&matrix_graph, MakeZipfValues(500, 91));
  const topology::Graph fault_graph = *topology::MakeGnutellaLike(400, 91);
  const QueryEngine fault_engine(&fault_graph, MakeZipfValues(400, 91));

  const std::vector<Row> matrix =
      RunCases(matrix_engine, FingerprintMatrix(), false);
  const std::vector<Row> fault =
      RunCases(fault_engine, FaultFingerprintCases(), true);
  EXPECT_EQ(matrix.size(), std::size(kMatrixGolden));
  EXPECT_EQ(fault.size(), std::size(kFaultGolden));

  const bool matrix_same = Matches(matrix, kMatrixGolden);
  const bool fault_same = Matches(fault, kFaultGolden);
  if (!matrix_same || !fault_same) {
    std::printf("// Current tables (source form):\n");
    PrintTable("kMatrixGolden", matrix);
    std::printf("\n");
    PrintTable("kFaultGolden", fault);
  }
}

}  // namespace
}  // namespace validity::core
