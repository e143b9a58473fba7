// validity_bench: the repository benchmark.
//
//   validity_bench --workload <paper_churn|service_faulty> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out f]
//
// Prints a digest line over every simulated output, a summary line, and, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs the
// traced replay and reports the per-layer metrics (README.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: validity_bench --workload <paper_churn|"
               "service_faulty> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return Usage();

  perfbench::Report report;
  if (workload == "paper_churn") {
    report = perfbench::RunPaperChurn(options);
  } else if (workload == "service_faulty") {
    report = perfbench::RunServiceFaulty(options);
  } else {
    return Usage();
  }
  perfbench::PrintReport(report);
  return 0;
}
