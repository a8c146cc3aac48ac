#include "baselines/neural_lp.h"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/trainer.h"

namespace dekg::baselines {
namespace {

// Trains `model` on the shared loop with the plain margin loss.
std::vector<double> Train(NeuralLp* model, const DekgDataset& dataset,
                          const core::TrainConfig& train) {
  const KnowledgeGraph& graph = dataset.original_graph();
  core::Trainer trainer(
      model, &dataset, train,
      core::MarginLoss(&dataset, train.negatives_per_positive,
                       [model, &graph](const Triple& t, const Subgraph*,
                                       Rng*) {
                         return model->ScoreLink(graph, t);
                       }));
  return trainer.Train();
}

// Chain with a planted composition: r0(x,y) ∧ r1(y,z) alongside direct
// r2(x,z) facts, so the rule r0 ∧ r1 => r2 is learnable.
DekgDataset RuleWorld() {
  std::vector<Triple> train;
  for (EntityId base : {0, 3, 6, 9}) {
    train.push_back({base, 0, static_cast<EntityId>(base + 1)});
    train.push_back({static_cast<EntityId>(base + 1), 1,
                     static_cast<EntityId>(base + 2)});
    train.push_back({base, 2, static_cast<EntityId>(base + 2)});
  }
  std::vector<Triple> emerging{{14, 0, 15}, {15, 1, 16}};
  std::vector<LabeledLink> test{{{14, 2, 16}, LinkKind::kEnclosing},
                                {{0, 2, 15}, LinkKind::kBridging}};
  return DekgDataset("rule-world", 14, 3, 3, train, emerging, {}, test);
}

TEST(NeuralLpTest, PathMassReachesConnectedTail) {
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 1);
  // Untrained, attention is near-uniform: a connected pair gets positive
  // mass, a disconnected pair gets exactly zero.
  ag::Var connected =
      model.ScoreLink(dataset.inference_graph(), {14, 2, 16});
  EXPECT_GT(connected.value().Data()[0], 0.0f);
}

TEST(NeuralLpTest, BridgingLinkHasZeroPathMass) {
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 2);
  ag::Var bridging = model.ScoreLink(dataset.inference_graph(), {0, 2, 15});
  // log(1 + 0) = 0: the topological limitation, shared with RuleN/Grail.
  EXPECT_FLOAT_EQ(bridging.value().Data()[0], 0.0f);
}

TEST(NeuralLpTest, TrainingLearnsTheCompositionRule) {
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 3);
  core::TrainConfig train;
  train.epochs = 30;
  train.lr = 0.1;
  std::vector<double> losses = Train(&model, dataset, train);
  EXPECT_LT(losses.back(), losses.front());

  // After training, the true enclosing link outranks corruptions whose
  // tail has no r0-r1 path from the head.
  double true_score =
      model.ScoreTriples(dataset.inference_graph(), {{14, 2, 16}})[0];
  double wrong_tail =
      model.ScoreTriples(dataset.inference_graph(), {{14, 2, 15}})[0];
  EXPECT_GT(true_score, wrong_tail);
}

TEST(NeuralLpTest, GraphReplacedAtTheSameAddressScoresLikeItsCopy) {
  // The operator cache must not key on the graph's address: a new graph
  // built into the same storage has to be scored on its own edges.
  NeuralLpConfig config;
  config.num_relations = 2;
  NeuralLp model(config, 10);
  const Triple query{0, 1, 2};
  std::optional<KnowledgeGraph> slot;
  slot.emplace(BuildGraph(3, 2, {{0, 0, 1}, {1, 0, 2}}));
  EXPECT_GT(model.ScoreLink(*slot, query).value().Data()[0], 0.0f);
  slot.emplace(BuildGraph(3, 2, {{0, 0, 1}}));  // no path to 2 any more
  const float replaced = model.ScoreLink(*slot, query).value().Data()[0];
  const KnowledgeGraph copy = *slot;
  EXPECT_EQ(replaced, model.ScoreLink(copy, query).value().Data()[0]);
  EXPECT_EQ(replaced, 0.0f);
}

TEST(NeuralLpTest, ConcurrentScoringAcrossTwoGraphsMatchesSerial) {
  // Alternating graphs force cache rebuilds while other threads score.
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 11);
  const KnowledgeGraph* graphs[] = {&dataset.original_graph(),
                                    &dataset.inference_graph()};
  std::vector<Triple> queries;
  for (EntityId h = 0; h < 14; ++h) queries.push_back({h, 2, (h + 2) % 14});
  std::vector<float> serial;
  for (size_t i = 0; i < queries.size(); ++i) {
    serial.push_back(
        model.ScoreLink(*graphs[i % 2], queries[i]).value().Data()[0]);
  }
  std::vector<float> parallel(queries.size());
  ThreadPool pool(4);
  pool.ParallelFor(0, static_cast<int64_t>(queries.size()), 1,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       const size_t k = static_cast<size_t>(i);
                       parallel[k] = model.ScoreLink(*graphs[k % 2],
                                                     queries[k])
                                         .value()
                                         .Data()[0];
                     }
                   });
  EXPECT_EQ(parallel, serial);
}

TEST(NeuralLpTest, IdentityOperatorAdmitsShortPaths) {
  // Direct r3(x, y) equivalence: a length-1 body must be expressible even
  // with T = 2 steps thanks to the identity operator.
  std::vector<Triple> train;
  for (EntityId base = 0; base < 8; base += 2) {
    train.push_back({base, 0, static_cast<EntityId>(base + 1)});
    train.push_back({base, 1, static_cast<EntityId>(base + 1)});
  }
  DekgDataset dataset("equiv", 8, 2, 2, train, {{8, 0, 9}},
                      {{{8, 1, 9}, LinkKind::kEnclosing}}, {});
  NeuralLpConfig config;
  config.num_relations = 2;
  config.num_steps = 2;
  NeuralLp model(config, 4);
  ag::Var s = model.ScoreLink(dataset.inference_graph(), {8, 1, 9});
  EXPECT_GT(s.value().Data()[0], 0.0f);
}

TEST(NeuralLpTest, AttentionGradientsFlow) {
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 5);
  model.ZeroGrad();
  ag::Var s = model.ScoreLink(dataset.inference_graph(), {14, 2, 16});
  s.Backward();
  EXPECT_TRUE(model.parameters()[0].var.has_grad());
  // Gradient touches the query relation's row only.
  const Tensor& g = model.parameters()[0].var.grad();
  double row2 = 0.0, row0 = 0.0;
  for (int64_t j = 0; j < g.dim(1); ++j) {
    row2 += std::fabs(g.At(2, j));
    row0 += std::fabs(g.At(0, j));
  }
  EXPECT_GT(row2, 0.0);
  EXPECT_EQ(row0, 0.0);
}

TEST(NeuralLpTest, ScoresAreFiniteOnRandomQueries) {
  DekgDataset dataset = RuleWorld();
  NeuralLpConfig config;
  config.num_relations = dataset.num_relations();
  NeuralLp model(config, 6);
  std::vector<Triple> batch;
  for (EntityId h = 0; h < 5; ++h) {
    for (RelationId r = 0; r < 3; ++r) batch.push_back({h, r, 12});
  }
  std::vector<double> scores =
      model.ScoreTriples(dataset.inference_graph(), batch);
  for (double s : scores) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
}

TEST(DrumTest, MultiChannelExpressesTwoDistinctRules) {
  // Two different bodies imply the same head relation: r0∘r1 => r3 and
  // r2 (direct equivalence) => r3. DRUM (2 channels) can commit one
  // channel to each body; Neural LP (1 channel) must compromise.
  std::vector<Triple> train;
  for (EntityId base : {0, 3, 6}) {
    train.push_back({base, 0, static_cast<EntityId>(base + 1)});
    train.push_back({static_cast<EntityId>(base + 1), 1,
                     static_cast<EntityId>(base + 2)});
    train.push_back({base, 3, static_cast<EntityId>(base + 2)});
  }
  for (EntityId base : {9, 11}) {
    train.push_back({base, 2, static_cast<EntityId>(base + 1)});
    train.push_back({base, 3, static_cast<EntityId>(base + 1)});
  }
  DekgDataset dataset("two-rules", 13, 3, 4, train, {{13, 0, 14}, {14, 1, 15}},
                      {{{13, 3, 15}, LinkKind::kEnclosing}}, {});

  auto train_model = [&](int32_t channels) {
    NeuralLpConfig config;
    config.num_relations = 4;
    config.num_rule_channels = channels;
    auto model = std::make_unique<NeuralLp>(config, 7);
    core::TrainConfig tc;
    tc.epochs = 40;
    tc.lr = 0.1;
    tc.seed = 8;
    Train(model.get(), dataset, tc);
    return model;
  };
  auto drum = train_model(2);
  // Both rule bodies must be usable by the 2-channel model: the
  // composition-derived enclosing link and a direct-equivalence pair both
  // outscore a disconnected corruption.
  const KnowledgeGraph& g = dataset.inference_graph();
  double comp = drum->ScoreTriples(g, {{13, 3, 15}})[0];
  double equiv = drum->ScoreTriples(g, {{9, 3, 10}})[0];
  double junk = drum->ScoreTriples(g, {{13, 3, 9}})[0];
  EXPECT_GT(comp, junk);
  EXPECT_GT(equiv, junk);
}

TEST(DrumTest, ParameterCountScalesWithChannels) {
  NeuralLpConfig one;
  one.num_relations = 5;
  NeuralLpConfig three = one;
  three.num_rule_channels = 3;
  NeuralLp a(one, 1), b(three, 1);
  EXPECT_EQ(b.ParameterCount(), 3 * a.ParameterCount());
}

TEST(DrumTest, SingleChannelMatchesNeuralLpScores) {
  // num_rule_channels = 1 must be byte-identical to the base model.
  NeuralLpConfig config;
  config.num_relations = 3;
  config.num_rule_channels = 1;
  NeuralLp a(config, 9);
  NeuralLp b(config, 9);
  KnowledgeGraph g(4, 3);
  g.AddTriple({0, 0, 1});
  g.AddTriple({1, 1, 2});
  g.Build();
  EXPECT_FLOAT_EQ(a.ScoreLink(g, {0, 2, 2}).value().Data()[0],
                  b.ScoreLink(g, {0, 2, 2}).value().Data()[0]);
}

}  // namespace
}  // namespace dekg::baselines
