// Packed-batch GSM scoring throughput (DESIGN.md §11): group-cap sweep
// over a cache-hit workload (subgraphs pre-extracted, as the evaluator and
// the serving engine see them), against the sequential taped
// per-subgraph forward. Every swept configuration is gated on
// bitwise identity with the sequential scores; wall-clock speedup is
// machine-dependent and reported only, so — like bench_parallel — only an
// identity failure flips the exit code.
//
// Results land in BENCH_gsm_batch.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/experiment.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gsm.h"
#include "graph/subgraph.h"

namespace dekg::bench {
namespace {

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

struct SweepPoint {
  int32_t max_batch = 0;
  int threads = 0;
  double seconds = 0.0;
  double speedup = 0.0;  // vs the sequential path at the same thread count
  bool identical = false;
};

}  // namespace
}  // namespace dekg::bench

int main() {
  using namespace dekg;
  using namespace dekg::bench;
  SetMinLogSeverity(LogSeverity::kWarning);

  const int threads = BenchThreads();
  std::printf("bench_gsm_batch: sweep threads {1, %d}\n", threads);

  ExperimentConfig config = ExperimentConfig::FromEnv();
  DekgDataset dataset =
      MakeDataset(datagen::KgFamily::kFbLike, datagen::EvalSplit::kEq, config);

  core::GsmConfig gsm_config;
  gsm_config.num_relations = dataset.num_relations();
  gsm_config.dim = 32;
  Rng init(3);
  core::Gsm gsm(gsm_config, &init);

  // Cache-hit workload: the subgraphs are already extracted, exactly what
  // ScoreTriplesCached / the serve engine hand to the packed scorer.
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= 96) break;
  }
  const std::vector<Subgraph> subs =
      gsm.ExtractBatch(dataset.inference_graph(), triples);
  std::vector<const Subgraph*> sub_ptrs;
  std::vector<RelationId> rels;
  std::vector<int64_t> indices;
  for (size_t i = 0; i < subs.size(); ++i) {
    sub_ptrs.push_back(&subs[i]);
    rels.push_back(triples[i].rel);
    indices.push_back(static_cast<int64_t>(i));
  }
  const size_t n = subs.size();
  std::printf("workload: %zu pre-extracted subgraphs, dim %d\n", n,
              gsm_config.dim);

  // Sequential bitwise reference (thread-count independent).
  std::vector<float> reference(n);
  for (size_t i = 0; i < n; ++i) {
    Rng unused(0);
    reference[i] =
        gsm.ScoreSubgraph(subs[i], rels[i], /*training=*/false, &unused)
            .value()
            .Data()[0];
  }

  std::vector<SweepPoint> sweep;
  std::vector<double> sequential_s;
  std::vector<int> thread_settings = {1, threads};
  for (int t : thread_settings) {
    SetDefaultThreadCount(t);
    const double seq = TimeBest(3, [&] {
      for (size_t i = 0; i < n; ++i) {
        Rng unused(0);
        gsm.ScoreSubgraph(subs[i], rels[i], /*training=*/false, &unused);
      }
    });
    sequential_s.push_back(seq);

    for (int32_t max_batch : {1, 4, 8, 16, 64}) {
      core::GsmBatchOptions options;
      options.max_batch = max_batch;
      std::vector<float> scores(n);
      const double secs = TimeBest(3, [&] {
        const auto groups = core::GroupForPacking(sub_ptrs, indices, options);
        for (const auto& group : groups) {
          std::vector<const Subgraph*> gs;
          std::vector<RelationId> gr;
          for (int64_t i : group) {
            gs.push_back(sub_ptrs[static_cast<size_t>(i)]);
            gr.push_back(rels[static_cast<size_t>(i)]);
          }
          const std::vector<float> out = gsm.ScoreSubgraphsPacked(gs, gr);
          for (size_t k = 0; k < group.size(); ++k) {
            scores[static_cast<size_t>(group[k])] = out[k];
          }
        }
      });
      SweepPoint point;
      point.max_batch = max_batch;
      point.threads = t;
      point.seconds = secs;
      point.speedup = secs > 0.0 ? seq / secs : 0.0;
      point.identical = scores == reference;
      sweep.push_back(point);
    }
  }
  SetDefaultThreadCount(0);

  std::printf("\n%10s %8s %12s %9s %10s\n", "max_batch", "threads",
              "seconds", "speedup", "identical");
  for (size_t t = 0; t < thread_settings.size(); ++t) {
    std::printf("%10s %8d %12.6f %9s %10s\n", "(seq)", thread_settings[t],
                sequential_s[t], "1.00x", "yes");
  }
  for (const SweepPoint& p : sweep) {
    std::printf("%10d %8d %12.6f %8.2fx %10s\n", p.max_batch, p.threads,
                p.seconds, p.speedup, p.identical ? "yes" : "NO");
  }

  std::FILE* json = std::fopen("BENCH_gsm_batch.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_gsm_batch.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"num_subgraphs\": %zu,\n  \"dim\": %d,\n",
               n, gsm_config.dim);
  std::fprintf(json, "  \"sequential\": {");
  for (size_t t = 0; t < thread_settings.size(); ++t) {
    std::fprintf(json, "%s\n    \"threads_%d\": %.6f",
                 t == 0 ? "" : ",", thread_settings[t], sequential_s[t]);
  }
  std::fprintf(json, "\n  },\n  \"sweep\": [");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(json,
                 "%s\n    {\"max_batch\": %d, \"threads\": %d, "
                 "\"seconds\": %.6f, \"speedup_vs_sequential\": %.3f, "
                 "\"identical\": %s}",
                 i == 0 ? "" : ",", p.max_batch, p.threads, p.seconds,
                 p.speedup, p.identical ? "true" : "false");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_gsm_batch.json\n");

  // The bitwise gate is the hard requirement; speedup is reported only.
  for (const SweepPoint& p : sweep) {
    if (!p.identical) return 1;
  }
  return 0;
}
