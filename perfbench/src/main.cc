// perfbench_driver: runs one workload of the end-to-end benchmark and
// prints its metrics, ending with one JSON line
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// Usage:
//   perfbench_driver --workload local-estimate|wire-serve|live-churn
//                    --seed N --seconds S --trace 0|1 [--node-bin PATH]
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// per-layer sweep instead (see README.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "local-estimate|wire-serve|live-churn --seed N --seconds S "
               "--trace 0|1 [--node-bin PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--node-bin") {
      args.node_bin = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || !(args.seconds > 0.0 && args.seconds <= 120.0)) {
    Usage();
    return 2;
  }

  perfbench::Outcome outcome;
  if (args.workload != "local-estimate" && args.workload != "wire-serve" &&
      args.workload != "live-churn") {
    Usage();
    return 2;
  }
  if (args.trace) {
    outcome = perfbench::RunTraced(args);
  } else if (args.workload == "local-estimate") {
    outcome = perfbench::RunLocalEstimate(args);
  } else if (args.workload == "wire-serve") {
    outcome = perfbench::RunWireServe(args);
  } else {
    outcome = perfbench::RunLiveChurn(args);
  }
  outcome.report.Print(outcome.correct, outcome.attempted, outcome.failed);
  return 0;
}
