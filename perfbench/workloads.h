// The benchmark's workloads (perfbench/WORKLOADS.md). Each run builds
// its inputs from the seed, measures, checks its own outputs, and
// returns every metric with its unit.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "inputs.h"

namespace perfbench {

// Worker threads of the dekg_serve pool and of the offline trainer and
// evaluator: fixed below the machine's 4 cores, so the generator's
// threads do not compete with the measured ones.
inline constexpr int kPoolThreads = 2;

struct RunOptions {
  Workload workload = Workload::kServeHubs;
  uint64_t seed = 1;
  double seconds = 10.0;
  // false: end-to-end metrics, no spans. true: the traced run, which
  // reports the per-layer metrics.
  bool trace = false;
  std::string server_binary;  // dekg_serve
  std::string work_dir;       // input cache, server logs, span files
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

RunResult RunServeWorkload(const RunOptions& options);
RunResult RunTrainWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
