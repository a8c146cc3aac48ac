// Serial-vs-parallel speedup for the three layers the thread pool
// accelerates: the evaluation ranking loop, GSM batched subgraph scoring
// (extraction plus packed forwards, through DekgIlpPredictor), and the
// tensor kernels (MatMul + large elementwise). Also verifies the
// determinism contract (parallel output bit-identical to serial).
//
// Thread count: DEKG_BENCH_THREADS if set, else the machine's hardware
// concurrency, floored at 4 so the report always exercises a real pool
// (on a 1-core container the wall-clock speedup then honestly reads ~1x).
// Results land in BENCH_parallel.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dekg_ilp.h"
#include "tensor/tensor.h"

namespace dekg::bench {
namespace {

struct LayerReport {
  std::string name;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  bool identical = false;

  double Speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

int BenchThreads() {
  if (const char* env = std::getenv("DEKG_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(4, static_cast<int>(hw));
}

// Best-of-k wall time of fn(), in seconds.
template <typename F>
double TimeBest(int repetitions, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

bool SameMetrics(const EvalResult& a, const EvalResult& b) {
  return a.overall.mrr == b.overall.mrr &&
         a.overall.hits_at_1 == b.overall.hits_at_1 &&
         a.overall.hits_at_10 == b.overall.hits_at_10 &&
         a.overall.num_tasks == b.overall.num_tasks;
}

LayerReport BenchEvaluate(const DekgDataset& dataset, int threads) {
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 16;
  core::DekgIlpModel model(config, /*seed=*/1);
  core::DekgIlpPredictor predictor(&model);

  EvalConfig eval;
  eval.num_entity_negatives = 12;
  eval.max_links = 24;

  EvalResult serial_result, parallel_result;
  LayerReport report;
  report.name = "evaluate_ranking";
  SetDefaultThreadCount(1);
  eval.num_threads = 1;
  report.serial_seconds = TimeBest(2, [&] {
    serial_result = Evaluate(&predictor, dataset, eval);
  });
  SetDefaultThreadCount(threads);
  eval.num_threads = threads;
  report.parallel_seconds = TimeBest(2, [&] {
    parallel_result = Evaluate(&predictor, dataset, eval);
  });
  SetDefaultThreadCount(0);
  report.identical = SameMetrics(serial_result, parallel_result);
  return report;
}

LayerReport BenchGsmBatch(const DekgDataset& dataset, int threads) {
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 16;
  config.use_clrm = false;  // GSM only
  core::DekgIlpModel model(config, /*seed=*/3);
  core::DekgIlpPredictor predictor(&model);
  const KnowledgeGraph& graph = dataset.inference_graph();

  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= 48) break;
  }

  std::vector<double> serial_scores, parallel_scores;
  LayerReport report;
  report.name = "gsm_batch_scoring";
  SetDefaultThreadCount(1);
  report.serial_seconds = TimeBest(2, [&] {
    serial_scores = predictor.ScoreTriples(graph, triples);
  });
  SetDefaultThreadCount(threads);
  report.parallel_seconds = TimeBest(2, [&] {
    parallel_scores = predictor.ScoreTriples(graph, triples);
  });
  SetDefaultThreadCount(0);
  report.identical = serial_scores == parallel_scores;
  return report;
}

LayerReport BenchMatMul(int threads) {
  Rng rng(17);
  const Tensor a = Tensor::Uniform(Shape{384, 256}, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::Uniform(Shape{256, 384}, -1.0f, 1.0f, &rng);

  Tensor serial_out, parallel_out;
  LayerReport report;
  report.name = "matmul";
  SetDefaultThreadCount(1);
  report.serial_seconds = TimeBest(3, [&] { serial_out = MatMul(a, b); });
  SetDefaultThreadCount(threads);
  report.parallel_seconds = TimeBest(3, [&] { parallel_out = MatMul(a, b); });
  SetDefaultThreadCount(0);
  report.identical = AllClose(serial_out, parallel_out, 0.0f);
  return report;
}

LayerReport BenchElementwise(int threads) {
  Rng rng(23);
  const Tensor a = Tensor::Uniform(Shape{2048, 1024}, -4.0f, 4.0f, &rng);

  Tensor serial_out, parallel_out;
  LayerReport report;
  report.name = "elementwise_sigmoid";
  SetDefaultThreadCount(1);
  report.serial_seconds = TimeBest(3, [&] { serial_out = Sigmoid(a); });
  SetDefaultThreadCount(threads);
  report.parallel_seconds = TimeBest(3, [&] { parallel_out = Sigmoid(a); });
  SetDefaultThreadCount(0);
  report.identical = AllClose(serial_out, parallel_out, 0.0f);
  return report;
}

}  // namespace
}  // namespace dekg::bench

int main() {
  using namespace dekg;
  using namespace dekg::bench;
  SetMinLogSeverity(LogSeverity::kWarning);

  const int threads = BenchThreads();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_parallel: %d threads (hardware concurrency %u)\n",
              threads, hw);

  ExperimentConfig config = ExperimentConfig::FromEnv();
  DekgDataset dataset =
      MakeDataset(datagen::KgFamily::kFbLike, datagen::EvalSplit::kEq, config);

  std::vector<LayerReport> reports;
  reports.push_back(BenchEvaluate(dataset, threads));
  reports.push_back(BenchGsmBatch(dataset, threads));
  reports.push_back(BenchMatMul(threads));
  reports.push_back(BenchElementwise(threads));

  std::printf("\n%-22s %12s %12s %9s %10s\n", "layer", "serial(s)",
              "parallel(s)", "speedup", "identical");
  for (const LayerReport& r : reports) {
    std::printf("%-22s %12.6f %12.6f %8.2fx %10s\n", r.name.c_str(),
                r.serial_seconds, r.parallel_seconds, r.Speedup(),
                r.identical ? "yes" : "NO");
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"threads\": %d,\n  \"hardware_concurrency\": %u,\n",
               threads, hw);
  std::fprintf(json, "  \"layers\": {");
  for (size_t i = 0; i < reports.size(); ++i) {
    const LayerReport& r = reports[i];
    std::fprintf(json,
                 "%s\n    \"%s\": {\n"
                 "      \"serial_s\": %.6f,\n"
                 "      \"parallel_s\": %.6f,\n"
                 "      \"speedup\": %.3f,\n"
                 "      \"identical\": %s\n    }",
                 i == 0 ? "" : ",", r.name.c_str(), r.serial_seconds,
                 r.parallel_seconds, r.Speedup(), r.identical ? "true" : "false");
  }
  std::fprintf(json, "\n  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_parallel.json\n");

  // Determinism is a hard requirement; wall-clock speedup depends on the
  // machine, so only identity failures flip the exit code.
  for (const LayerReport& r : reports) {
    if (!r.identical) return 1;
  }
  return 0;
}
