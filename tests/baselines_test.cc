#include <cmath>

#include <gtest/gtest.h>

#include "baselines/gen.h"
#include "baselines/grail.h"
#include "baselines/kge_models.h"
#include "baselines/tact.h"
#include "core/trainer.h"
#include "datagen/synthetic_kg.h"

namespace dekg::baselines {
namespace {

KgeConfig SmallKge() {
  KgeConfig config;
  config.num_entities = 12;
  config.num_relations = 4;
  config.dim = 8;
  config.seed = 3;
  return config;
}

DekgDataset TinyDataset() {
  std::vector<Triple> train{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 0, 4},
                            {4, 1, 5}, {0, 3, 5}, {1, 0, 4}, {2, 0, 5}};
  std::vector<Triple> emerging{{8, 0, 9}, {9, 1, 10}};
  std::vector<LabeledLink> test{{{8, 2, 10}, LinkKind::kEnclosing},
                                {{0, 0, 8}, LinkKind::kBridging}};
  return DekgDataset("tiny", 8, 4, 4, train, emerging, {}, test);
}

TEST(TransETest, ScoreIsNegativeDistance) {
  TransE model(SmallKge());
  std::vector<Triple> batch{{0, 0, 1}, {2, 1, 3}};
  ag::Var scores = model.ScoreBatch(batch);
  EXPECT_EQ(scores.value().numel(), 2);
  EXPECT_LE(scores.value().Data()[0], 0.0f);
  EXPECT_LE(scores.value().Data()[1], 0.0f);
}

TEST(TransETest, PerfectTranslationScoresNearZero) {
  TransE model(SmallKge());
  // Force t = h + r for triple (0, 0, 1).
  std::vector<float> state = model.StateVector();
  // entities [12 x 8] then relations [4 x 8].
  for (int j = 0; j < 8; ++j) {
    state[static_cast<size_t>(8 + j)] =          // entity 1
        state[static_cast<size_t>(j)] +          // entity 0
        state[static_cast<size_t>(12 * 8 + j)];  // relation 0
  }
  model.LoadStateVector(state);
  ag::Var score = model.ScoreBatch({{0, 0, 1}});
  EXPECT_NEAR(score.value().Data()[0], 0.0f, 1e-3f);
}

TEST(DistMultTest, SymmetricInHeadTail) {
  DistMult model(SmallKge());
  ag::Var a = model.ScoreBatch({{0, 1, 2}});
  ag::Var b = model.ScoreBatch({{2, 1, 0}});
  EXPECT_FLOAT_EQ(a.value().Data()[0], b.value().Data()[0]);
}

TEST(RotatETest, ZeroPhaseActsAsIdentity) {
  RotatE model(SmallKge());
  std::vector<float> state = model.StateVector();
  // Layout: entities_re [12x8], entities_im [12x8], phases [4x8].
  const size_t phase_offset = 2 * 12 * 8;
  for (int j = 0; j < 8; ++j) state[phase_offset + j] = 0.0f;  // relation 0
  // Make entity 1 identical to entity 0.
  for (int j = 0; j < 8; ++j) {
    state[static_cast<size_t>(8 + j)] = state[static_cast<size_t>(j)];
    state[static_cast<size_t>(12 * 8 + 8 + j)] =
        state[static_cast<size_t>(12 * 8 + j)];
  }
  model.LoadStateVector(state);
  // h rotated by 0 equals t -> distance ~0.
  ag::Var score = model.ScoreBatch({{0, 0, 1}});
  EXPECT_NEAR(score.value().Data()[0], 0.0f, 1e-3f);
}

TEST(RotatETest, RotationIsNormPreserving) {
  RotatE model(SmallKge());
  // Scores are bounded below by -(|h| + |t|); sanity: finite, negative.
  ag::Var s = model.ScoreBatch({{3, 2, 7}});
  EXPECT_TRUE(std::isfinite(s.value().Data()[0]));
  EXPECT_LE(s.value().Data()[0], 0.0f);
}

TEST(ConvETest, ForwardShapeAndFiniteScores) {
  ConvE model(SmallKge());
  std::vector<Triple> batch{{0, 0, 1}, {1, 1, 2}, {2, 3, 3}};
  ag::Var scores = model.ScoreBatch(batch);
  EXPECT_EQ(scores.value().numel(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(scores.value().Data()[i]));
  }
}

TEST(KgeTrainingTest, TransELearnsTrainOrdering) {
  DekgDataset dataset = TinyDataset();
  KgeConfig config = SmallKge();
  config.num_entities = dataset.num_total_entities();
  TransE model(config);
  KgeTrainConfig train;
  train.epochs = 80;
  train.batch_size = 4;
  std::vector<double> losses = TrainKgeModel(&model, dataset, train);
  EXPECT_LT(losses.back(), losses.front());
  // Positive triples outscore random corruptions on average.
  std::vector<Triple> pos = dataset.train_triples();
  std::vector<Triple> neg;
  for (const Triple& t : pos) {
    neg.push_back({t.head, t.rel,
                   static_cast<EntityId>((t.tail + 3) %
                                         dataset.num_original_entities())});
  }
  double pos_mean = 0.0, neg_mean = 0.0;
  ag::Var ps = model.ScoreBatch(pos);
  ag::Var ns = model.ScoreBatch(neg);
  for (size_t i = 0; i < pos.size(); ++i) {
    pos_mean += ps.value().Data()[static_cast<int64_t>(i)];
    neg_mean += ns.value().Data()[static_cast<int64_t>(i)];
  }
  EXPECT_GT(pos_mean, neg_mean);
}

TEST(KgeTrainingTest, EmergingRowsNeverTrained) {
  DekgDataset dataset = TinyDataset();
  KgeConfig config = SmallKge();
  config.num_entities = dataset.num_total_entities();
  TransE model(config);
  std::vector<float> before = model.StateVector();
  KgeTrainConfig train;
  train.epochs = 10;
  TrainKgeModel(&model, dataset, train);
  std::vector<float> after = model.StateVector();
  // Rows for emerging entities (ids 8..11) must be bit-identical.
  const size_t dim = 8;
  for (int e = dataset.num_original_entities();
       e < dataset.num_total_entities(); ++e) {
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(before[static_cast<size_t>(e) * dim + j],
                after[static_cast<size_t>(e) * dim + j])
          << "unseen entity row " << e << " was trained";
    }
  }
}

TEST(GenTest, AggregateFallsBackForIsolatedEntity) {
  DekgDataset dataset = TinyDataset();
  KgeConfig config = SmallKge();
  config.num_entities = dataset.num_total_entities();
  Gen model(config);
  model.SetEmergingRange(dataset.num_original_entities(),
                         dataset.num_total_entities());
  // Entity 11 is emerging and isolated: ScoreTriples must not crash and
  // returns finite values.
  std::vector<double> scores =
      model.ScoreTriples(dataset.inference_graph(), {{0, 0, 11}});
  EXPECT_TRUE(std::isfinite(scores[0]));
}

TEST(GenTest, TrainingReducesLoss) {
  DekgDataset dataset = TinyDataset();
  KgeConfig config = SmallKge();
  config.num_entities = dataset.num_total_entities();
  Gen model(config);
  model.SetEmergingRange(dataset.num_original_entities(),
                         dataset.num_total_entities());
  KgeTrainConfig train;
  train.epochs = 40;
  std::vector<double> losses = TrainGen(&model, dataset, train);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(GrailConfigTest, MatchesBaselineSetup) {
  core::DekgIlpConfig config = GrailConfig(7, 16);
  EXPECT_FALSE(config.use_clrm);
  EXPECT_FALSE(config.use_contrastive);
  EXPECT_EQ(config.labeling, NodeLabeling::kGrail);
  EXPECT_EQ(config.VariantName(), "Grail");
  core::DekgIlpModel model(config, 1);
  EXPECT_EQ(model.clrm(), nullptr);
}

TEST(TactTest, CorrelationMatricesPresent) {
  TactConfig config;
  config.num_relations = 5;
  config.dim = 8;
  Tact model(config, 2);
  // |R|^2 terms dominate small-d setups: 6 matrices of 25 entries.
  EXPECT_GE(model.ParameterCount(), 6 * 25);
}

TEST(TactTest, BridgingSubgraphGivesDegenerateCorrelation) {
  // Two disconnected components: the correlation term must be identical
  // for any bridging pair (no subgraph edges -> constant score part).
  KnowledgeGraph g(8, 3);
  g.AddTriple({0, 0, 1});
  g.AddTriple({1, 1, 2});
  g.AddTriple({4, 0, 5});
  g.AddTriple({5, 2, 6});
  g.Build();
  TactConfig config;
  config.num_relations = 3;
  config.dim = 8;
  Tact model(config, 3);
  Rng rng(4);
  ag::Var a = model.ScoreLink(g, {0, 1, 4}, false, &rng);
  ag::Var b = model.ScoreLink(g, {2, 1, 6}, false, &rng);
  // Scores may differ via r^tpo only if relation differs; same relation and
  // GraIL-empty subgraphs -> equal scores.
  EXPECT_NEAR(a.value().Data()[0], b.value().Data()[0], 1e-5f);
}

TEST(GraphTrainerTest, TrainsTactLossDown) {
  DekgDataset dataset = TinyDataset();
  TactConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 8;
  Tact model(config, 5);
  core::TrainConfig train;
  train.epochs = 12;
  const KnowledgeGraph& graph = dataset.original_graph();
  core::Trainer trainer(
      &model, &dataset, train,
      core::MarginLoss(&dataset, train.negatives_per_positive,
                       [&](const Triple& t, const Subgraph* subgraph,
                           Rng* rng) {
                         return model.ScoreLink(graph, t, true, rng, subgraph);
                       }),
      model.gsm());
  std::vector<double> losses = trainer.Train();
  EXPECT_EQ(losses.size(), 12u);
  EXPECT_LT(losses.back(), losses.front());
}

// Three entities, one relation, all six ordered pairs: every head or tail
// corruption of a train triple is a self-loop, the positive itself, or
// another train triple, so filtered sampling always fails. The shared
// sampler then falls back to a known triple that is not the positive, so
// a negative never scores exactly like its positive and no epoch's mean
// loss is pinned at exactly the margin.
DekgDataset AllPairsDataset() {
  std::vector<Triple> train;
  for (EntityId h = 0; h < 3; ++h) {
    for (EntityId t = 0; t < 3; ++t) {
      if (h != t) train.push_back({h, 0, t});
    }
  }
  return DekgDataset("all-pairs", 3, 0, 1, train, {}, {}, {});
}

TEST(KgeTrainingTest, NegativesOnAllPairsGraphAreNeverThePositive) {
  DekgDataset dataset = AllPairsDataset();
  KgeConfig config;
  config.num_entities = dataset.num_total_entities();
  config.num_relations = 1;
  config.dim = 8;
  TransE model(config);
  KgeTrainConfig train;
  train.epochs = 5;
  train.batch_size = 2;
  for (double loss : TrainKgeModel(&model, dataset, train)) {
    EXPECT_NE(loss, train.margin);
  }
}

}  // namespace
}  // namespace dekg::baselines
