// Snapshot-publication benchmark (DESIGN.md §14): the median wall time of
// one SnapshotWriter::Ingest on random graphs with E = 2V, over V in
// {1e4, 1e5, 1e6} x batch in {1, 64, 1024}. Hard gate (exit code 1): at
// batch 64 the largest V costs at most 2x the 1e4 point — publishing
// must not grow with the graph.
//
// Knob: DEKG_BENCH_CHURN_MAX_V (trim the entity counts, default 1000000).
// Results land in BENCH_churn.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dekg_ilp.h"
#include "kg/knowledge_graph.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace dekg::bench {
namespace {

using serve::SnapshotWriter;
using serve::Status;

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
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
  return PublishPoint{base.num_entities(), batch, Median(ms)};
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

  const std::vector<PublishPoint> publish =
      RunPublishSweep(EnvInt("DEKG_BENCH_CHURN_MAX_V", 1000000));
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

  std::FILE* json = std::fopen("BENCH_churn.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"publish\": {\n    \"points\": [");
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
  std::printf("wrote BENCH_churn.json\n");

  // Wall times depend on the machine; the hard gate is publication cost
  // flat in V.
  return publish_flat ? 0 : 1;
}
