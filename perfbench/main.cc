// Benchmark program: perfbench_run --workload W --seed N --seconds S
// --trace 0|1 --server PATH --work-dir DIR. Prints progress to stderr and,
// as the last line of stdout, one JSON object with the run's metrics
// (perfbench/run.py builds the binaries and calls this).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric (tracing off) and every per-layer metric
// (traced run), in BENCHMARK.json's order. A layer a workload does not
// load reports 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"score_triples_per_s", "triples/s"},
    {"cold_triples_per_s", "triples/s"},
    {"rss_peak_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"wire.memo_rtt_us", "us"},
    {"protocol.codec_us_per_request", "us"},
    {"batcher.triples_per_batch_p50", "count"},
    {"batcher.queue_ms_p50", "ms"},
    {"router.score_batch_ms_p50", "ms"},
    {"router.parallel_speedup", "ratio"},
    {"engine.memo_hit_share", "ratio"},
    {"engine.cache_hit_share", "ratio"},
    {"engine.admit_us_per_miss", "us"},
    {"engine.touched_per_entry", "count"},
    {"engine.cache_mb", "MB"},
    {"graph.extract_us", "us"},
    {"graph.nodes_per_subgraph", "count"},
    {"graph.edges_per_subgraph", "count"},
    {"gsm.packed_us_per_subgraph", "us"},
    {"gsm.subgraphs_per_group", "count"},
    {"gnn.mflop_per_subgraph", "MFLOP"},
    {"clrm.distmult_us", "us"},
    {"snapshot.ingest_ms", "ms"},
    {"snapshot.ingest_share", "ratio"},
    {"engine.catchup_ms", "ms"},
    {"engine.patched_per_ingest", "count"},
    {"engine.repaired_per_ingest", "count"},
    {"engine.fallback_per_ingest", "count"},
    {"snapshot.rows_refreshed_per_ingest", "count"},
    {"ingest.rtt_ms_p50", "ms"},
    {"kg.load_s", "s"},
    {"snapshot.materialize_s", "s"},
    {"replay.mirror_miss_error", "count"},
    {"trainer.epoch_s", "s"},
    {"trainer.examples_per_s", "1/s"},
    {"trainer.extract_ms_per_epoch", "ms"},
    {"core.forward_ms_per_example", "ms"},
    {"clrm.contrastive_ms_per_example", "ms"},
    {"autograd.backward_ms_per_example", "ms"},
    {"nn.optimizer_ms_per_step", "ms"},
    {"eval.links_per_s", "1/s"},
    {"eval.triples_per_link", "count"},
    {"eval.score_ms_per_triple", "ms"},
    {"input.repeat_other_position_share", "ratio"},
    {"input.first_sight_share", "ratio"},
    {"input.model_first_sight_share", "ratio"},
    {"gen.lag_ms_p99", "ms"},
    {"score.p50_ms", "ms"},
    {"score.p99_ms", "ms"},
    {"score.p99_samples", "count"},
    {"trace.overhead_share", "ratio"},
};

// The last stdout line: the operation counts and every metric of `specs`
// in order, with its unit; a metric the run did not measure reads 0. A
// measured metric missing from `specs` is a bug.
template <size_t N>
void PrintResult(const MetricSpec (&specs)[N], const RunResult& result) {
  for (const Metric& got : result.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) known |= got.name == spec.name;
    if (!known) {
      std::fprintf(stderr, "unlisted metric %s\n", got.name.c_str());
      std::exit(1);
    }
  }
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < N; ++i) {
    double value = 0.0;
    for (const Metric& got : result.metrics) {
      if (got.name == specs[i].name) value = got.value;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    out += buf;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload serve_hubs|serve_ingest|"
               "train_eval --seed N --seconds S --trace 0|1 --server PATH "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server") {
      options.server_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!ParseWorkload(workload, &options.workload) || options.seconds <= 0 ||
      options.work_dir.empty() ||
      (IsServeWorkload(options.workload) && options.server_binary.empty())) {
    return Usage();
  }
  const RunResult result = IsServeWorkload(options.workload)
                               ? RunServeWorkload(options)
                               : RunTrainWorkload(options);
  if (options.trace) {
    PrintResult(kPerLayer, result);
  } else {
    PrintResult(kEndToEnd, result);
  }
  return 0;
}
