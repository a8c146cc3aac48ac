// Parameterized training-dynamics checks: across seeds, margin training of
// the graph-conditioned models reduces the loss and never produces NaNs.
#include <cmath>

#include <gtest/gtest.h>

#include "core/dekg_ilp.h"
#include "core/trainer.h"
#include "datagen/synthetic_kg.h"

namespace dekg {
namespace {

class TrainingDynamics : public ::testing::TestWithParam<uint64_t> {
 protected:
  DekgDataset MakeDataset() const {
    datagen::SchemaConfig schema;
    schema.num_types = 5;
    schema.num_relations = 12;
    schema.num_entities = 140;
    datagen::SplitConfig split;
    split.max_test_links = 20;
    return datagen::MakeDekgDataset("dyn", schema, split, GetParam());
  }
};

TEST_P(TrainingDynamics, DekgIlpLossDecreasesAndStaysFinite) {
  DekgDataset dataset = MakeDataset();
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 8;
  config.num_contrastive_samples = 2;
  core::DekgIlpModel model(config, GetParam() ^ 0xf00);
  core::TrainConfig train;
  train.epochs = 4;
  train.max_triples_per_epoch = 120;
  train.seed = GetParam() ^ 0xf01;
  core::DekgIlpTrainer trainer(&model, &dataset, train);
  std::vector<double> losses = trainer.Train();
  for (double loss : losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }
  EXPECT_LT(losses.back(), losses.front() + 1e-9);
}

TEST_P(TrainingDynamics, ParametersStayFiniteAfterTraining) {
  DekgDataset dataset = MakeDataset();
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 8;
  config.num_contrastive_samples = 2;
  core::DekgIlpModel model(config, GetParam() ^ 0xf02);
  core::TrainConfig train;
  train.epochs = 3;
  train.max_triples_per_epoch = 100;
  train.seed = GetParam() ^ 0xf03;
  core::DekgIlpTrainer(&model, &dataset, train).Train();
  for (float v : model.StateVector()) {
    ASSERT_TRUE(std::isfinite(v)) << "parameter diverged";
  }
}

TEST_P(TrainingDynamics, TrainingIsDeterministicGivenSeeds) {
  DekgDataset dataset = MakeDataset();
  auto run = [&]() {
    core::DekgIlpConfig config;
    config.num_relations = dataset.num_relations();
    config.dim = 8;
    config.num_contrastive_samples = 2;
    core::DekgIlpModel model(config, 55);
    core::TrainConfig train;
    train.epochs = 2;
    train.max_triples_per_epoch = 80;
    train.seed = 56;
    core::DekgIlpTrainer(&model, &dataset, train).Train();
    return model.StateVector();
  };
  std::vector<float> a = run();
  std::vector<float> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "training is not bit-reproducible at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainingDynamics,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace dekg
