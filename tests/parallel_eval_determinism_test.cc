// Thread-count invariance of the evaluation protocol: Evaluate() must
// produce bit-identical metrics and rank lists at 1, 2, and 8 threads,
// both for a cheap scripted predictor and for the real DEKG-ILP model
// (whose scoring path exercises parallel subgraph extraction, the R-GCN
// forward pass, and the parallel tensor kernels underneath), and at 1
// and 4 threads for Neural LP (whose scores share one operator cache).
#include <gtest/gtest.h>

#include "baselines/neural_lp.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "eval/evaluator.h"
#include "graph/subgraph.h"

namespace dekg {
namespace {

// Deterministic stateless scorer, safe to call from any thread.
class HashPredictor : public LinkPredictor {
 public:
  std::string Name() const override { return "Hash"; }
  std::vector<double> ScoreTriples(const KnowledgeGraph&,
                                   const std::vector<Triple>& triples) override {
    std::vector<double> scores;
    scores.reserve(triples.size());
    TripleHash hash;
    for (const Triple& t : triples) {
      scores.push_back(static_cast<double>(hash(t) % 4096));
    }
    return scores;
  }
  bool SupportsConcurrentScoring() const override { return true; }
  int64_t ParameterCount() const override { return 0; }
};

DekgDataset SyntheticDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("det", schema, split, /*seed=*/21);
}

void ExpectBitIdentical(const RankingMetrics& a, const RankingMetrics& b) {
  // EXPECT_EQ on doubles is exact equality — the contract here really is
  // bit-identity, not closeness.
  EXPECT_EQ(a.mrr, b.mrr);
  EXPECT_EQ(a.hits_at_1, b.hits_at_1);
  EXPECT_EQ(a.hits_at_5, b.hits_at_5);
  EXPECT_EQ(a.hits_at_10, b.hits_at_10);
  EXPECT_EQ(a.num_tasks, b.num_tasks);
}

void ExpectBitIdentical(const EvalResult& a, const EvalResult& b) {
  ExpectBitIdentical(a.overall, b.overall);
  ExpectBitIdentical(a.enclosing, b.enclosing);
  ExpectBitIdentical(a.bridging, b.bridging);
  ExpectBitIdentical(a.head_task, b.head_task);
  ExpectBitIdentical(a.tail_task, b.tail_task);
  ExpectBitIdentical(a.relation_task, b.relation_task);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (size_t i = 0; i < a.ranks.size(); ++i) {
    EXPECT_EQ(a.ranks[i], b.ranks[i]) << "rank " << i;
  }
}

TEST(ParallelEvalDeterminismTest, ScriptedPredictorIdenticalAt128Threads) {
  DekgDataset dataset = SyntheticDataset();
  HashPredictor predictor;
  EvalConfig config;
  config.num_entity_negatives = 20;
  config.collect_ranks = true;
  config.seed = 31;

  config.num_threads = 1;
  EvalResult one = Evaluate(&predictor, dataset, config);
  config.num_threads = 2;
  EvalResult two = Evaluate(&predictor, dataset, config);
  config.num_threads = 8;
  EvalResult eight = Evaluate(&predictor, dataset, config);

  ASSERT_GT(one.overall.num_tasks, 0);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, eight);
}

TEST(ParallelEvalDeterminismTest, DekgIlpModelIdenticalAt128Threads) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpConfig model_config;
  model_config.num_relations = dataset.num_relations();
  model_config.dim = 8;
  core::DekgIlpModel model(model_config, /*seed=*/3);
  core::DekgIlpPredictor predictor(&model);
  ASSERT_TRUE(predictor.SupportsConcurrentScoring());

  EvalConfig config;
  config.num_entity_negatives = 6;
  config.max_links = 12;  // subgraph scoring is the expensive part
  config.collect_ranks = true;

  config.num_threads = 1;
  EvalResult one = Evaluate(&predictor, dataset, config);
  config.num_threads = 2;
  EvalResult two = Evaluate(&predictor, dataset, config);
  config.num_threads = 8;
  EvalResult eight = Evaluate(&predictor, dataset, config);

  ASSERT_GT(one.overall.num_tasks, 0);
  ExpectBitIdentical(one, two);
  ExpectBitIdentical(one, eight);
}

TEST(ParallelEvalDeterminismTest, NeuralLpIdenticalAt1And4Threads) {
  DekgDataset dataset = SyntheticDataset();
  baselines::NeuralLpConfig model_config;
  model_config.num_relations = dataset.num_relations();
  baselines::NeuralLp model(model_config, /*seed=*/5);
  ASSERT_TRUE(model.SupportsConcurrentScoring());

  EvalConfig config;
  config.num_entity_negatives = 6;
  config.max_links = 12;
  config.collect_ranks = true;

  config.num_threads = 1;
  EvalResult one = Evaluate(&model, dataset, config);
  config.num_threads = 4;
  EvalResult four = Evaluate(&model, dataset, config);

  ASSERT_GT(one.overall.num_tasks, 0);
  EXPECT_EQ(GoldenSummary(one), GoldenSummary(four));
  ExpectBitIdentical(one, four);
}

TEST(ParallelEvalDeterminismTest, WorkspaceExtractionMatchesPlain) {
  DekgDataset dataset = SyntheticDataset();
  const KnowledgeGraph& graph = dataset.inference_graph();
  SubgraphConfig config;
  SubgraphWorkspace workspace;
  int checked = 0;
  for (const LabeledLink& link : dataset.test_links()) {
    const Triple& t = link.triple;
    Subgraph plain = ExtractSubgraph(graph, t.head, t.tail, t.rel, config);
    Subgraph reused =
        ExtractSubgraph(graph, t.head, t.tail, t.rel, config, &workspace);
    ASSERT_EQ(plain.nodes.size(), reused.nodes.size());
    ASSERT_EQ(plain.edges.size(), reused.edges.size());
    for (size_t i = 0; i < plain.nodes.size(); ++i) {
      EXPECT_EQ(plain.nodes[i].entity, reused.nodes[i].entity);
      EXPECT_EQ(plain.nodes[i].dist_head, reused.nodes[i].dist_head);
      EXPECT_EQ(plain.nodes[i].dist_tail, reused.nodes[i].dist_tail);
    }
    for (size_t i = 0; i < plain.edges.size(); ++i) {
      EXPECT_EQ(plain.edges[i].src, reused.edges[i].src);
      EXPECT_EQ(plain.edges[i].rel, reused.edges[i].rel);
      EXPECT_EQ(plain.edges[i].dst, reused.edges[i].dst);
    }
    if (++checked >= 12) break;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace dekg
