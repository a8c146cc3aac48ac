// Ranking evaluation for inductive link prediction (Sec. V-C).
//
// For every evaluation link (h, r, t) three prediction tasks are scored:
// head replacement (?, r, t), tail replacement (h, r, ?), and relation
// replacement (h, ?, t) — the paper extends all baselines to all three
// forms. Ranks are filtered: any corrupted triple that appears in the
// train / emerging / valid / test sets is skipped as a candidate.
//
// Candidate sets: the paper ranks against every entity and relation in
// G ∪ G'. To keep CPU-only subgraph models tractable this evaluator ranks
// the true triple against `num_entity_negatives` sampled filtered
// candidates per task (GraIL's own protocol uses 50 candidates); relation
// replacement uses every other relation, as relation vocabularies are
// small. This substitution is recorded in EXPERIMENTS.md.
#ifndef DEKG_EVAL_EVALUATOR_H_
#define DEKG_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kg/dataset.h"
#include "kg/knowledge_graph.h"

namespace dekg {

class SubgraphCache;  // graph/subgraph_cache.h

// Interface every scoring model implements. Scores are arbitrary reals;
// higher means more plausible.
class LinkPredictor {
 public:
  virtual ~LinkPredictor() = default;

  virtual std::string Name() const = 0;

  // Scores candidate triples against the given inference graph (G union
  // observed G' — the structure a model may inspect at test time).
  virtual std::vector<double> ScoreTriples(
      const KnowledgeGraph& inference_graph,
      const std::vector<Triple>& triples) = 0;

  // Same, consulting an optional read-only subgraph cache for
  // pre-extracted enclosing subgraphs (extraction is deterministic, so a
  // cache hit is numerically transparent). This is the entry point
  // Evaluate() uses, and the one the serve layer shares; predictors
  // without a subgraph stage keep the default, which ignores the cache.
  virtual std::vector<double> ScoreTriplesCached(
      const KnowledgeGraph& inference_graph, const std::vector<Triple>& triples,
      const SubgraphCache* cache) {
    (void)cache;
    return ScoreTriples(inference_graph, triples);
  }

  // Whether ScoreTriples may be invoked concurrently from multiple threads
  // (i.e. scoring treats the model as read-only). Evaluate() only
  // parallelizes the ranking loop when this returns true; stateful
  // predictors keep the serial path with no change in results.
  virtual bool SupportsConcurrentScoring() const { return false; }

  // Trainable parameter count (complexity study, Fig. 7).
  virtual int64_t ParameterCount() const = 0;
};

// Aggregated ranking metrics.
struct RankingMetrics {
  double mrr = 0.0;
  double hits_at_1 = 0.0;
  double hits_at_5 = 0.0;
  double hits_at_10 = 0.0;
  int64_t num_tasks = 0;

  void Accumulate(double rank);
  void Merge(const RankingMetrics& other);
  void Finalize();  // divides sums by num_tasks
};

struct EvalResult {
  RankingMetrics overall;
  RankingMetrics enclosing;
  RankingMetrics bridging;
  // Per-prediction-form breakdown: (?, r, t), (h, r, ?), (h, ?, t). The
  // paper's observation 5 — TACT excels at relation prediction but lags on
  // head/tail — is only visible in this view.
  RankingMetrics head_task;
  RankingMetrics tail_task;
  RankingMetrics relation_task;
  // Raw filtered rank of every task, in evaluation order (filled when
  // EvalConfig::collect_ranks is set). Two models evaluated with the same
  // EvalConfig see identical tasks, so these vectors are aligned and can
  // feed the paired significance test in eval/significance.h.
  std::vector<double> ranks;
};

struct EvalConfig {
  // Sampled entity candidates per head/tail task (the true entity is
  // ranked against these).
  int32_t num_entity_negatives = 49;
  // Evaluate relation-replacement tasks (h, ?, t) as well.
  bool include_relation_task = true;
  // Cap on evaluated links (0 = all test links).
  int32_t max_links = 0;
  uint64_t seed = 17;
  // Record the per-task rank list in EvalResult::ranks.
  bool collect_ranks = false;
  // Ranking-loop parallelism: 0 = the process-wide default pool
  // (DEKG_NUM_THREADS), 1 = serial, N > 1 = a dedicated N-thread pool for
  // this call. Negative sampling draws from a per-link Rng stream
  // (MixSeed(seed, link_index)) and per-link results merge in link order,
  // so metrics and ranks are bit-identical for every thread count.
  int32_t num_threads = 0;
  // Optional read-only cache of pre-extracted enclosing subgraphs, served
  // to the predictor through ScoreTriplesCached. Never mutated (no hit/
  // miss counting) — safe to share with concurrent readers. Metrics are
  // bit-identical with and without it.
  const SubgraphCache* subgraph_cache = nullptr;
};

// Runs the full protocol over dataset.test_links().
EvalResult Evaluate(LinkPredictor* model, const DekgDataset& dataset,
                    const EvalConfig& config);

// Computes the filtered rank of `positive` among `negatives` given scores
// (positive score first). Ties count half, making ranks robust to constant
// scorers. Exposed for tests.
double RankOf(double positive_score, const std::vector<double>& negative_scores);

// Serializes every metric of an EvalResult as "group.metric<TAB>value"
// lines (value at full %.17g double precision, so equal strings mean
// bit-equal doubles) in a fixed order. This is the exact-precision form
// pinned by the golden-regression tier (tests/golden/) and compared by
// the resume-determinism tests.
std::string GoldenSummary(const EvalResult& result);

}  // namespace dekg

#endif  // DEKG_EVAL_EVALUATOR_H_
