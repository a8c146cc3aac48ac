// Quantized-serving sweep (DESIGN.md §15): one one-shard router per
// storage precision {fp32, fp16, int8} over the same scoring workload,
// measuring the frozen-model footprint (fusion rows + R-GCN dense
// transforms, the EngineStats protocol-v4 accounting), hot scoring
// throughput, and the accuracy deltas against the offline fp32 oracle.
//
// Gates (exit 1 on violation):
//  * fp32 must be BITWISE identical to DekgIlpPredictor over the whole
//    workload — the precision knob must not move the exact mode.
//  * int8 must cut the frozen-model footprint >= 3x (the reduction the
//    mode exists for; fp16 is exactly 2x by construction).
//  * Each quantized mode must be run-to-run bit-deterministic (two
//    passes over the workload agree exactly).
// Accuracy deltas and throughput are reported, not gated — the rank-
// metric epsilon gate lives in tests/quant_gate_test.cc.
//
// Knobs: DEKG_BENCH_THREADS (pool size, default 4),
// DEKG_BENCH_QUANT_ITERS (timed passes per precision, default 24).
// Results land in BENCH_quant.json in the working directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/experiment.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dekg_ilp.h"
#include "serve/engine.h"
#include "serve/router.h"

namespace dekg::bench {
namespace {

using serve::EngineStats;
using serve::Router;
using serve::RouterConfig;
using serve::ScoreItem;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

struct PrecisionPoint {
  quant::Precision precision = quant::Precision::kFp32;
  uint64_t frozen_row_bytes = 0;
  uint64_t frozen_weight_bytes = 0;
  double footprint_reduction = 1.0;  // vs fp32, whole frozen model
  double seconds = 0.0;
  double triples_per_s = 0.0;
  double max_abs_delta = 0.0;   // vs the offline fp32 oracle
  double mean_abs_delta = 0.0;
  bool fp32_bitwise = false;    // fp32 row only
  bool deterministic = false;   // two passes agree bit for bit
};

}  // namespace
}  // namespace dekg::bench

int main() {
  using namespace dekg;
  using namespace dekg::bench;
  SetMinLogSeverity(LogSeverity::kWarning);

  const int threads = EnvInt("DEKG_BENCH_THREADS", 4);
  const int iters = EnvInt("DEKG_BENCH_QUANT_ITERS", 24);
  SetDefaultThreadCount(threads);

  ExperimentConfig config = ExperimentConfig::FromEnv();
  DekgDataset dataset =
      MakeDataset(datagen::KgFamily::kFbLike, datagen::EvalSplit::kEq, config);

  core::DekgIlpConfig model_config;
  model_config.num_relations = dataset.num_relations();
  model_config.dim = config.dim;  // serving dim (default 32)
  core::DekgIlpModel model(model_config, /*seed=*/1);

  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= 48) break;
  }
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(123, i)});
  }

  // Offline fp32 oracle: the scores every precision is measured against.
  core::DekgIlpPredictor predictor(&model);
  const std::vector<double> oracle =
      predictor.ScoreTriples(dataset.inference_graph(), triples);

  std::printf(
      "bench_quant: %zu-triple workload, dim %d, %d timed passes, "
      "%d pool threads\n",
      triples.size(), model_config.dim, iters, threads);

  std::vector<PrecisionPoint> points;
  uint64_t fp32_footprint = 0;
  for (quant::Precision precision :
       {quant::Precision::kFp32, quant::Precision::kFp16,
        quant::Precision::kInt8}) {
    PrecisionPoint point;
    point.precision = precision;

    RouterConfig router_config;
    router_config.engine.precision = precision;
    // Memo off: the timed loop must exercise the scoring pipeline, not
    // replay stored doubles.
    router_config.engine.score_memo_capacity = 0;
    Router engine(&model, dataset.inference_graph(), router_config);

    const EngineStats stats = engine.Stats();
    point.frozen_row_bytes = stats.frozen_row_bytes;
    point.frozen_weight_bytes = stats.frozen_weight_bytes;
    const uint64_t footprint =
        stats.frozen_row_bytes + stats.frozen_weight_bytes;
    if (precision == quant::Precision::kFp32) fp32_footprint = footprint;
    point.footprint_reduction =
        footprint > 0 ? static_cast<double>(fp32_footprint) /
                            static_cast<double>(footprint)
                      : 0.0;

    // Accuracy + determinism on the cold pass pair, then a warm timed
    // loop (subgraph cache resident — the hot serving regime).
    const std::vector<double> first = engine.ScoreBatch(items);
    const std::vector<double> second = engine.ScoreBatch(items);
    point.deterministic = first == second;
    double sum_abs = 0.0;
    for (size_t i = 0; i < first.size(); ++i) {
      const double delta = std::fabs(first[i] - oracle[i]);
      point.max_abs_delta = std::max(point.max_abs_delta, delta);
      sum_abs += delta;
    }
    point.mean_abs_delta =
        first.empty() ? 0.0 : sum_abs / static_cast<double>(first.size());
    point.fp32_bitwise = first == oracle;

    Timer timer;
    for (int it = 0; it < iters; ++it) {
      const std::vector<double> scores = engine.ScoreBatch(items);
      if (scores != first) point.deterministic = false;
    }
    point.seconds = timer.ElapsedSeconds();
    point.triples_per_s =
        point.seconds > 0.0
            ? static_cast<double>(iters) * static_cast<double>(items.size()) /
                  point.seconds
            : 0.0;
    points.push_back(point);
  }

  std::printf("\n%6s %14s %14s %10s %12s %12s %12s %6s %6s\n", "prec",
              "row_bytes", "weight_bytes", "reduce", "triples/s",
              "max_delta", "mean_delta", "exact", "det");
  for (const PrecisionPoint& p : points) {
    const bool is_fp32 = p.precision == quant::Precision::kFp32;
    std::printf("%6s %14llu %14llu %9.2fx %12.1f %12.3g %12.3g %6s %6s\n",
                quant::PrecisionName(p.precision),
                static_cast<unsigned long long>(p.frozen_row_bytes),
                static_cast<unsigned long long>(p.frozen_weight_bytes),
                p.footprint_reduction, p.triples_per_s, p.max_abs_delta,
                p.mean_abs_delta,
                is_fp32 ? (p.fp32_bitwise ? "ok" : "FAIL") : "-",
                p.deterministic ? "ok" : "FAIL");
  }

  std::FILE* json = std::fopen("BENCH_quant.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_quant.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"workload_triples\": %zu,\n  \"dim\": %d,\n"
               "  \"iters\": %d,\n  \"precisions\": [",
               triples.size(), model_config.dim, iters);
  for (size_t i = 0; i < points.size(); ++i) {
    const PrecisionPoint& p = points[i];
    std::fprintf(json,
                 "%s\n    {\n"
                 "      \"precision\": \"%s\",\n"
                 "      \"frozen_row_bytes\": %llu,\n"
                 "      \"frozen_weight_bytes\": %llu,\n"
                 "      \"footprint_reduction_vs_fp32\": %.3f,\n"
                 "      \"seconds\": %.6f,\n"
                 "      \"triples_per_s\": %.1f,\n"
                 "      \"max_abs_delta\": %.9g,\n"
                 "      \"mean_abs_delta\": %.9g,\n"
                 "      \"fp32_bitwise\": %s,\n"
                 "      \"deterministic\": %s\n    }",
                 i == 0 ? "" : ",", quant::PrecisionName(p.precision),
                 static_cast<unsigned long long>(p.frozen_row_bytes),
                 static_cast<unsigned long long>(p.frozen_weight_bytes),
                 p.footprint_reduction, p.seconds, p.triples_per_s,
                 p.max_abs_delta, p.mean_abs_delta,
                 p.fp32_bitwise ? "true" : "false",
                 p.deterministic ? "true" : "false");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_quant.json\n");

  // Hard gates: fp32 bitwise, int8 footprint >= 3x, every mode
  // bit-deterministic.
  int failures = 0;
  for (const PrecisionPoint& p : points) {
    if (p.precision == quant::Precision::kFp32 && !p.fp32_bitwise) {
      std::fprintf(stderr, "FAIL: fp32 engine diverged from the offline "
                           "predictor\n");
      ++failures;
    }
    if (p.precision == quant::Precision::kInt8 &&
        p.footprint_reduction < 3.0) {
      std::fprintf(stderr,
                   "FAIL: int8 footprint reduction %.2fx < 3x\n",
                   p.footprint_reduction);
      ++failures;
    }
    if (!p.deterministic) {
      std::fprintf(stderr, "FAIL: %s scoring not run-to-run deterministic\n",
                   quant::PrecisionName(p.precision));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
