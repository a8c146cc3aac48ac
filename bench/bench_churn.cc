// DEKG-churn benchmark (DESIGN.md §13): a closed-loop ingest+scoring
// workload driven straight into two one-shard Routers stepping the SAME
// schedule — one maintaining cached subgraphs in place (patch_cache on),
// one with the invalidate-on-ingest reference policy. Swept over churn
// rate (one ingest every 8 / 2 / 1 score rounds). Every score round is
// gated on bitwise identity between the two engines, and the final
// scores are gated against the offline predictor on a statically built
// graph over the same triple multiset; a gate failure flips the exit
// code. Latency percentiles and hit/patch/fallback rates are reported,
// never gated — the expected shape is patch mode holding p99 scoring
// latency flat at high churn while invalidate mode degenerates into a
// re-extraction miss storm.
//
// A second sweep isolates snapshot publication (DESIGN.md §14): the
// median wall time of one SnapshotWriter::Ingest on random graphs with
// E = 2V, over V in {1e4, 1e5, 1e6} x batch in {1, 64, 1024}. Hard gate:
// at batch 64 the largest V costs at most 2x the 1e4 point — publishing
// must not grow with the graph.
//
// Knobs: DEKG_BENCH_THREADS (default max(4, hw)), DEKG_BENCH_CHURN_ROUNDS
// (score rounds per sweep point, default 96), DEKG_BENCH_CHURN_BATCH
// (triples per score round, default 16), DEKG_BENCH_CHURN_MAX_V (trim the
// publish sweep's entity counts, default 1000000). Results land in
// BENCH_churn.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiment.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dekg_ilp.h"
#include "graph/subgraph.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace dekg::bench {
namespace {

using serve::EngineStats;
using serve::IngestResponse;
using serve::Router;
using serve::RouterConfig;
using serve::ScoreItem;
using serve::SnapshotWriter;
using serve::Status;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

struct ModeResult {
  double score_p50_ms = 0.0;
  double score_p99_ms = 0.0;
  double ingest_p99_ms = 0.0;
  double hit_rate = 0.0;
  uint64_t patched = 0;
  uint64_t repaired = 0;
  uint64_t fallback = 0;
  uint64_t invalidated = 0;
};

struct ChurnPoint {
  int ingest_every = 1;
  bool gate_identical = false;
  ModeResult patch;
  ModeResult invalidate;
};

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples) {
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(123, i)});
  }
  return items;
}

// One churn rate: both engines step `rounds` score rounds; every
// `ingest_every`-th round is preceded by an emerging-chunk ingest
// (cycling — exhausted streams re-ingest as duplicate edges, which is
// sustained-churn territory: multiplicity rises and touched entities
// keep hitting warm cache entries).
ChurnPoint RunPoint(core::DekgIlpModel* model, const DekgDataset& dataset,
                    const std::vector<Triple>& pool, int ingest_every,
                    int rounds, int batch_size, int chunk_size) {
  ChurnPoint point;
  point.ingest_every = ingest_every;

  RouterConfig patch_config;
  RouterConfig invalidate_config;
  invalidate_config.engine.patch_cache = false;
  // This bench measures subgraph-cache maintenance; the score memo
  // would absorb intra-epoch repeats and hide the patch/invalidate gap.
  patch_config.engine.score_memo_capacity = 0;
  invalidate_config.engine.score_memo_capacity = 0;
  Router patch_engine(model, dataset.original_graph(), patch_config);
  Router invalidate_engine(model, dataset.original_graph(), invalidate_config);

  const std::vector<Triple>& emerging = dataset.emerging_triples();
  std::vector<Triple> ingested;
  size_t emerging_cursor = 0;
  std::vector<double> patch_score_ms, invalidate_score_ms;
  std::vector<double> patch_ingest_ms, invalidate_ingest_ms;
  point.gate_identical = true;

  for (int round = 0; round < rounds; ++round) {
    if (ingest_every > 0 && round % ingest_every == 0) {
      std::vector<Triple> chunk;
      for (int i = 0; i < chunk_size; ++i) {
        chunk.push_back(emerging[emerging_cursor % emerging.size()]);
        ++emerging_cursor;
      }
      IngestResponse response;
      Timer patch_timer;
      patch_engine.Ingest(chunk, &response);
      patch_ingest_ms.push_back(patch_timer.ElapsedMillis());
      if (response.status != Status::kOk) {
        std::fprintf(stderr, "ingest failed: %s\n", response.error.c_str());
        point.gate_identical = false;
        break;
      }
      Timer invalidate_timer;
      invalidate_engine.Ingest(chunk, &response);
      invalidate_ingest_ms.push_back(invalidate_timer.ElapsedMillis());
      ingested.insert(ingested.end(), chunk.begin(), chunk.end());
    }

    std::vector<Triple> triples;
    for (int i = 0; i < batch_size; ++i) {
      triples.push_back(
          pool[static_cast<size_t>(round * batch_size + i) % pool.size()]);
    }
    const std::vector<ScoreItem> items = ItemsFor(triples);
    Timer patch_timer;
    const std::vector<double> patched_scores = patch_engine.ScoreBatch(items);
    patch_score_ms.push_back(patch_timer.ElapsedMillis());
    Timer invalidate_timer;
    const std::vector<double> invalidated_scores =
        invalidate_engine.ScoreBatch(items);
    invalidate_score_ms.push_back(invalidate_timer.ElapsedMillis());

    // Hard gate: bitwise identity at every point of the schedule.
    if (patched_scores != invalidated_scores) {
      std::fprintf(stderr, "GATE FAIL: round %d scores diverge\n", round);
      point.gate_identical = false;
      break;
    }
  }

  if (point.gate_identical) {
    // Final gate: both engines vs the offline predictor on a statically
    // built graph over base + ingested (the ordering invariant).
    std::vector<Triple> all = dataset.original_graph().Triples();
    all.insert(all.end(), ingested.begin(), ingested.end());
    const KnowledgeGraph oracle =
        BuildGraph(dataset.inference_graph().num_entities(),
                   dataset.num_relations(), all);
    std::vector<Triple> sample(pool.begin(),
                               pool.begin() + std::min<size_t>(pool.size(), 16));
    core::DekgIlpPredictor predictor(model);
    const std::vector<double> offline = predictor.ScoreTriples(oracle, sample);
    const std::vector<double> online =
        patch_engine.ScoreBatch(ItemsFor(sample));
    if (online != offline) {
      std::fprintf(stderr, "GATE FAIL: patched engine vs static oracle\n");
      point.gate_identical = false;
    }
  }

  const auto fill = [](const EngineStats& stats,
                       const std::vector<double>& score_ms,
                       const std::vector<double>& ingest_ms) {
    ModeResult r;
    r.score_p50_ms = Percentile(score_ms, 0.50);
    r.score_p99_ms = Percentile(score_ms, 0.99);
    r.ingest_p99_ms = Percentile(ingest_ms, 0.99);
    const double lookups =
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    r.hit_rate =
        lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
    r.patched = stats.cache_patched;
    r.repaired = stats.cache_repaired;
    r.fallback = stats.cache_fallback;
    r.invalidated = stats.cache_invalidated;
    return r;
  };
  point.patch = fill(patch_engine.Stats(), patch_score_ms, patch_ingest_ms);
  point.invalidate = fill(invalidate_engine.Stats(), invalidate_score_ms,
                          invalidate_ingest_ms);
  return point;
}

struct PublishPoint {
  int32_t entities = 0;
  int batch = 0;
  double ingest_ms_p50 = 0.0;
};

// Median ms of one SnapshotWriter::Ingest of `batch` random triples
// (existing entities) into a fresh writer over `base`. Nobody pins the
// old snapshots, so every publish also frees its predecessor — as in a
// server whose readers have moved on.
PublishPoint RunPublishPoint(core::DekgIlpModel* model,
                             const KnowledgeGraph& base, int batch, int reps,
                             uint64_t seed) {
  SnapshotWriter writer(model, base, serve::LiveGraphConfig{});
  Rng rng(seed);
  std::vector<double> ms;
  for (int rep = 0; rep <= reps; ++rep) {
    std::vector<Triple> triples;
    for (int i = 0; i < batch; ++i) {
      triples.push_back(Triple{
          static_cast<EntityId>(rng.UniformInt(0, base.num_entities() - 1)),
          static_cast<RelationId>(rng.UniformInt(0, base.num_relations() - 1)),
          static_cast<EntityId>(rng.UniformInt(0, base.num_entities() - 1))});
    }
    serve::IngestReport report;
    std::string error;
    Timer timer;
    if (writer.Ingest(triples, &report, &error) != Status::kOk) {
      std::fprintf(stderr, "publish sweep ingest failed: %s\n", error.c_str());
      std::exit(1);
    }
    if (rep > 0) ms.push_back(timer.ElapsedMillis());  // rep 0 warms up
  }
  return PublishPoint{base.num_entities(), batch, Percentile(ms, 0.5)};
}

std::vector<PublishPoint> RunPublishSweep(int32_t max_entities) {
  constexpr int32_t kRelations = 16;
  core::DekgIlpConfig config;
  config.num_relations = kRelations;
  config.dim = 16;
  core::DekgIlpModel model(config, /*seed=*/1);
  std::vector<PublishPoint> points;
  for (int32_t v : {10000, 100000, 1000000}) {
    if (v > max_entities) break;
    Rng rng(static_cast<uint64_t>(v));
    std::vector<Triple> triples;
    for (int64_t i = 0; i < 2 * static_cast<int64_t>(v); ++i) {
      triples.push_back(
          Triple{static_cast<EntityId>(rng.UniformInt(0, v - 1)),
                 static_cast<RelationId>(rng.UniformInt(0, kRelations - 1)),
                 static_cast<EntityId>(rng.UniformInt(0, v - 1))});
    }
    const KnowledgeGraph base = BuildGraph(v, kRelations, triples);
    for (int batch : {1, 64, 1024}) {
      points.push_back(RunPublishPoint(&model, base, batch, /*reps=*/41,
                                       static_cast<uint64_t>(v + batch)));
      std::printf("publish: V=%-8d E=%-8lld batch=%-5d %9.3f ms/ingest\n",
                  v, static_cast<long long>(base.num_triples()), batch,
                  points.back().ingest_ms_p50);
    }
  }
  return points;
}

}  // namespace
}  // namespace dekg::bench

int main() {
  using namespace dekg;
  using namespace dekg::bench;
  SetMinLogSeverity(LogSeverity::kWarning);

  const int threads =
      std::max(4, EnvInt("DEKG_BENCH_THREADS",
                         static_cast<int>(std::thread::hardware_concurrency())));
  const int rounds = EnvInt("DEKG_BENCH_CHURN_ROUNDS", 96);
  const int batch_size = EnvInt("DEKG_BENCH_CHURN_BATCH", 16);

  ExperimentConfig config = ExperimentConfig::FromEnv();
  DekgDataset dataset =
      MakeDataset(datagen::KgFamily::kFbLike, datagen::EvalSplit::kEq, config);

  core::DekgIlpConfig model_config;
  model_config.num_relations = dataset.num_relations();
  model_config.dim = 16;
  core::DekgIlpModel model(model_config, /*seed=*/1);

  std::vector<Triple> pool;
  for (const LabeledLink& link : dataset.test_links()) {
    pool.push_back(link.triple);
    if (pool.size() >= 48) break;
  }
  if (pool.empty() || dataset.emerging_triples().empty()) {
    std::fprintf(stderr, "dataset has no workload\n");
    return 1;
  }

  std::printf(
      "bench_churn: %d threads, %d score rounds x %d triples, "
      "%zu-triple pool, %zu emerging\n",
      threads, rounds, batch_size, pool.size(),
      dataset.emerging_triples().size());
  SetDefaultThreadCount(threads);

  std::vector<ChurnPoint> points;
  for (int ingest_every : {8, 2, 1}) {
    points.push_back(RunPoint(&model, dataset, pool, ingest_every, rounds,
                              batch_size, /*chunk_size=*/4));
  }
  const std::vector<PublishPoint> publish =
      RunPublishSweep(EnvInt("DEKG_BENCH_CHURN_MAX_V", 1000000));
  SetDefaultThreadCount(0);
  // Publication flat in V: at batch 64, the largest V within 2x of 1e4.
  double publish_small = 0.0, publish_large = 0.0;
  for (const PublishPoint& p : publish) {
    if (p.batch != 64) continue;
    if (publish_small == 0.0) publish_small = p.ingest_ms_p50;
    publish_large = p.ingest_ms_p50;
  }
  const double publish_ratio =
      publish_small > 0.0 ? publish_large / publish_small : 0.0;
  const bool publish_flat = publish_ratio <= 2.0;
  std::printf("publish: batch 64, largest V / 1e4 = %.2fx (gate <= 2x): %s\n",
              publish_ratio, publish_flat ? "ok" : "FAIL");

  std::printf("\n%12s %6s | %10s %10s %9s %18s | %10s %10s %9s\n",
              "ingest_every", "gate", "patch p50", "patch p99", "hit-rate",
              "patch/repair/fall", "inval p50", "inval p99", "hit-rate");
  for (const ChurnPoint& p : points) {
    char maintenance[32];
    std::snprintf(maintenance, sizeof(maintenance), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(p.patch.patched),
                  static_cast<unsigned long long>(p.patch.repaired),
                  static_cast<unsigned long long>(p.patch.fallback));
    std::printf("%12d %6s | %9.3fms %9.3fms %8.1f%% %18s | %9.3fms %9.3fms "
                "%8.1f%%\n",
                p.ingest_every, p.gate_identical ? "ok" : "FAIL",
                p.patch.score_p50_ms, p.patch.score_p99_ms,
                p.patch.hit_rate * 100.0, maintenance,
                p.invalidate.score_p50_ms, p.invalidate.score_p99_ms,
                p.invalidate.hit_rate * 100.0);
  }

  std::FILE* json = std::fopen("BENCH_churn.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"rounds\": %d,\n  \"batch_size\": %d,\n"
               "  \"threads\": %d,\n  \"sweep\": [",
               rounds, batch_size, threads);
  for (size_t i = 0; i < points.size(); ++i) {
    const ChurnPoint& p = points[i];
    const auto mode = [json](const char* name, const ModeResult& r,
                             const char* tail) {
      std::fprintf(json,
                   "      \"%s\": {\n"
                   "        \"score_p50_ms\": %.4f,\n"
                   "        \"score_p99_ms\": %.4f,\n"
                   "        \"ingest_p99_ms\": %.4f,\n"
                   "        \"cache_hit_rate\": %.4f,\n"
                   "        \"patched\": %llu,\n"
                   "        \"repaired\": %llu,\n"
                   "        \"fallback\": %llu,\n"
                   "        \"invalidated\": %llu\n      }%s\n",
                   name, r.score_p50_ms, r.score_p99_ms, r.ingest_p99_ms,
                   r.hit_rate, static_cast<unsigned long long>(r.patched),
                   static_cast<unsigned long long>(r.repaired),
                   static_cast<unsigned long long>(r.fallback),
                   static_cast<unsigned long long>(r.invalidated), tail);
    };
    std::fprintf(json,
                 "%s\n    {\n      \"ingest_every\": %d,\n"
                 "      \"gate_identical\": %s,\n",
                 i == 0 ? "" : ",", p.ingest_every,
                 p.gate_identical ? "true" : "false");
    mode("patch", p.patch, ",");
    mode("invalidate", p.invalidate, "");
    std::fprintf(json, "    }");
  }
  // Process-wide extraction counters across the whole sweep (cache misses
  // in both engines plus the offline gate's extractions): the churn trail
  // makes extraction-cost regressions visible next to the hit rates.
  const ExtractionCounters extract = GetExtractionCounters();
  std::fprintf(json,
               "\n  ],\n  \"extraction\": {\n"
               "    \"extractions\": %llu,\n"
               "    \"bfs_popped\": %llu,\n"
               "    \"candidates_kept\": %llu\n  },\n",
               static_cast<unsigned long long>(extract.extractions),
               static_cast<unsigned long long>(extract.bfs_popped),
               static_cast<unsigned long long>(extract.candidates_kept));
  std::fprintf(json, "  \"publish\": {\n    \"points\": [");
  for (size_t i = 0; i < publish.size(); ++i) {
    const PublishPoint& p = publish[i];
    std::fprintf(json,
                 "%s\n      {\"entities\": %d, \"edges\": %lld, "
                 "\"batch\": %d, \"ingest_ms_p50\": %.4f}",
                 i == 0 ? "" : ",", p.entities,
                 2 * static_cast<long long>(p.entities), p.batch,
                 p.ingest_ms_p50);
  }
  std::fprintf(json,
               "\n    ],\n    \"batch64_ratio_largest_to_1e4\": %.4f,\n"
               "    \"gate_flat_in_v\": %s\n  }\n}\n",
               publish_ratio, publish_flat ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_churn.json\n");

  // Latency depends on the machine; the hard gates are bitwise identity
  // and publication cost flat in V.
  for (const ChurnPoint& p : points) {
    if (!p.gate_identical) return 1;
  }
  return publish_flat ? 0 : 1;
}
