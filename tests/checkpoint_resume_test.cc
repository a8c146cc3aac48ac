// Resume determinism: training N epochs straight must be bit-identical —
// parameters, loss curve, and final Evaluate() metrics — to training k
// epochs, checkpointing, "crashing", and resuming to N from the
// checkpoint. Covers every trainer: the shared per-example loop
// (core::Trainer) with DEKG-ILP and with Neural LP, and the batched KGE
// loop with TransE (TrainKgeModel) and GEN (TrainGen), plus the
// acceptance fault sweep: a crash injected at every write operation of a
// checkpoint save still resumes bit-identically.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/gen.h"
#include "baselines/kge_base.h"
#include "baselines/kge_models.h"
#include "baselines/neural_lp.h"
#include "common/checkpoint.h"
#include "core/dekg_ilp.h"
#include "core/trainer.h"
#include "datagen/synthetic_kg.h"
#include "eval/evaluator.h"

namespace dekg {
namespace {

std::vector<uint8_t> ParamBytes(const nn::Module& module) {
  std::vector<uint8_t> bytes;
  module.SerializeParameters(&bytes);
  return bytes;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::SchemaConfig schema;
    schema.num_types = 4;
    schema.num_relations = 8;
    schema.num_entities = 120;
    schema.num_rules = 4;
    datagen::SplitConfig split;
    split.max_test_links = 24;
    dataset_ = new DekgDataset(
        datagen::MakeDekgDataset("resume", schema, split, 42));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dekg_resume_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    ckpt::SetWritableFileFactoryForTest(nullptr);
    std::filesystem::remove_all(dir_);
  }

  std::string CkptPath() const { return (dir_ / "train.ckpt").string(); }

  static EvalConfig SmallEval(int32_t num_threads) {
    EvalConfig eval;
    eval.num_entity_negatives = 12;
    eval.max_links = 12;
    eval.num_threads = num_threads;
    return eval;
  }

  static DekgDataset* dataset_;
  std::filesystem::path dir_;
};

DekgDataset* CheckpointResumeTest::dataset_ = nullptr;

TEST_F(CheckpointResumeTest, DekgIlpResumeIsBitIdentical) {
  core::DekgIlpConfig model_config;
  model_config.num_relations = dataset_->num_relations();
  model_config.dim = 16;
  model_config.num_contrastive_samples = 4;

  core::TrainConfig train;
  train.epochs = 4;
  train.max_triples_per_epoch = 60;
  train.seed = 8;

  // Reference: 4 epochs straight, no checkpointing.
  core::DekgIlpModel straight_model(model_config, 7);
  core::DekgIlpTrainer straight(&straight_model, dataset_, train);
  const std::vector<double> straight_losses = straight.Train();
  ASSERT_EQ(straight_losses.size(), 4u);

  // Interrupted: 2 epochs with a checkpoint, then the process "dies" —
  // the trainer and model are discarded and rebuilt from scratch.
  {
    core::DekgIlpModel model(model_config, 7);
    core::TrainConfig first = train;
    first.epochs = 2;
    first.checkpoint_path = CkptPath();
    core::DekgIlpTrainer trainer(&model, dataset_, first);
    trainer.Train();
    ASSERT_EQ(trainer.epochs_completed(), 2);
  }
  core::DekgIlpModel resumed_model(model_config, 7);
  core::TrainConfig rest = train;
  rest.checkpoint_path = CkptPath();
  core::DekgIlpTrainer resumed(&resumed_model, dataset_, rest);
  const std::vector<double> resumed_losses = resumed.Train();
  ASSERT_EQ(resumed.epochs_completed(), 4);

  // The loss curve spans all four epochs and matches bit-for-bit,
  // including the two epochs recovered from the checkpoint.
  ASSERT_EQ(resumed_losses.size(), straight_losses.size());
  for (size_t i = 0; i < straight_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], straight_losses[i]) << "epoch " << i;
  }
  EXPECT_EQ(ParamBytes(resumed_model), ParamBytes(straight_model));

  // Bit-identical metrics, at one thread and at four.
  for (int32_t threads : {1, 4}) {
    core::DekgIlpPredictor straight_pred(&straight_model);
    core::DekgIlpPredictor resumed_pred(&resumed_model);
    const std::string a =
        GoldenSummary(Evaluate(&straight_pred, *dataset_, SmallEval(threads)));
    const std::string b =
        GoldenSummary(Evaluate(&resumed_pred, *dataset_, SmallEval(threads)));
    EXPECT_EQ(a, b) << "metrics diverged at " << threads << " threads";
  }
}

TEST_F(CheckpointResumeTest, NeuralLpGraphTrainerResumeIsBitIdentical) {
  baselines::NeuralLpConfig model_config;
  model_config.num_relations = dataset_->num_relations();

  core::TrainConfig train;
  train.epochs = 4;
  train.max_triples_per_epoch = 40;
  train.seed = 5;
  const KnowledgeGraph& graph = dataset_->original_graph();
  auto run = [&](baselines::NeuralLp* model, const core::TrainConfig& config) {
    core::Trainer trainer(
        model, dataset_, config,
        core::MarginLoss(dataset_, config.negatives_per_positive,
                         [model, &graph](const Triple& t, const Subgraph*,
                                         Rng*) {
                           return model->ScoreLink(graph, t);
                         }));
    return trainer.Train();
  };

  baselines::NeuralLp straight_model(model_config, 9);
  const std::vector<double> straight_losses = run(&straight_model, train);

  {
    baselines::NeuralLp model(model_config, 9);
    core::TrainConfig first = train;
    first.epochs = 2;
    first.checkpoint_path = CkptPath();
    run(&model, first);
  }
  baselines::NeuralLp resumed_model(model_config, 9);
  core::TrainConfig rest = train;
  rest.checkpoint_path = CkptPath();
  const std::vector<double> resumed_losses = run(&resumed_model, rest);

  EXPECT_EQ(resumed_losses, straight_losses);
  EXPECT_EQ(ParamBytes(resumed_model), ParamBytes(straight_model));
}

TEST_F(CheckpointResumeTest, GenResumeIsBitIdentical) {
  baselines::KgeConfig model_config;
  model_config.num_entities = dataset_->num_total_entities();
  model_config.num_relations = dataset_->num_relations();
  model_config.dim = 8;

  baselines::KgeTrainConfig train;
  train.epochs = 4;
  train.batch_size = 32;
  train.seed = 4;

  baselines::Gen straight_model(model_config);
  const std::vector<double> straight_losses =
      baselines::TrainGen(&straight_model, *dataset_, train);

  {
    baselines::Gen model(model_config);
    baselines::KgeTrainConfig first = train;
    first.epochs = 2;
    first.checkpoint_path = CkptPath();
    baselines::TrainGen(&model, *dataset_, first);
  }
  // A trainer that ignored checkpoint_path would leave no file and rerun
  // all four epochs from scratch, matching the straight run vacuously.
  ASSERT_TRUE(std::filesystem::exists(CkptPath()));
  baselines::Gen resumed_model(model_config);
  baselines::KgeTrainConfig rest = train;
  rest.checkpoint_path = CkptPath();
  const std::vector<double> resumed_losses =
      baselines::TrainGen(&resumed_model, *dataset_, rest);

  EXPECT_EQ(resumed_losses, straight_losses);
  EXPECT_EQ(ParamBytes(resumed_model), ParamBytes(straight_model));
}

TEST_F(CheckpointResumeTest, KgeResumeIsBitIdentical) {
  baselines::KgeConfig model_config;
  model_config.num_entities = dataset_->num_total_entities();
  model_config.num_relations = dataset_->num_relations();
  model_config.dim = 8;

  baselines::KgeTrainConfig train;
  train.epochs = 4;
  train.batch_size = 32;
  train.seed = 3;

  baselines::TransE straight_model(model_config);
  const std::vector<double> straight_losses =
      baselines::TrainKgeModel(&straight_model, *dataset_, train);

  {
    baselines::TransE model(model_config);
    baselines::KgeTrainConfig first = train;
    first.epochs = 2;
    first.checkpoint_path = CkptPath();
    baselines::TrainKgeModel(&model, *dataset_, first);
  }
  baselines::TransE resumed_model(model_config);
  baselines::KgeTrainConfig rest = train;
  rest.checkpoint_path = CkptPath();
  const std::vector<double> resumed_losses =
      baselines::TrainKgeModel(&resumed_model, *dataset_, rest);

  EXPECT_EQ(resumed_losses, straight_losses);
  EXPECT_EQ(ParamBytes(resumed_model), ParamBytes(straight_model));

  for (int32_t threads : {1, 4}) {
    const std::string a = GoldenSummary(
        Evaluate(&straight_model, *dataset_, SmallEval(threads)));
    const std::string b = GoldenSummary(
        Evaluate(&resumed_model, *dataset_, SmallEval(threads)));
    EXPECT_EQ(a, b) << "metrics diverged at " << threads << " threads";
  }
}

// The acceptance criterion: inject a crash at EVERY write operation of a
// checkpoint save. Whatever the fault point, the next restart must find a
// valid checkpoint and the resumed run's final Evaluate() metrics must be
// bit-identical to an uninterrupted run.
TEST_F(CheckpointResumeTest, KillAtEveryFaultPointResumesBitIdentical) {
  baselines::KgeConfig model_config;
  model_config.num_entities = dataset_->num_total_entities();
  model_config.num_relations = dataset_->num_relations();
  model_config.dim = 8;

  baselines::KgeTrainConfig train;
  train.epochs = 3;
  train.batch_size = 32;
  train.seed = 3;

  baselines::TransE straight_model(model_config);
  const std::vector<double> straight_losses =
      baselines::TrainKgeModel(&straight_model, *dataset_, train);
  const std::string golden =
      GoldenSummary(Evaluate(&straight_model, *dataset_, SmallEval(1)));
  const std::vector<uint8_t> golden_params = ParamBytes(straight_model);

  // Measure the op count of one checkpoint save (epochs=2 with
  // checkpoint_every=2 performs exactly one save, at epoch 2).
  baselines::KgeTrainConfig two_epochs = train;
  two_epochs.epochs = 2;
  two_epochs.checkpoint_every = 2;
  two_epochs.checkpoint_path = CkptPath();
  int64_t total_ops = 0;
  ckpt::SetWritableFileFactoryForTest([&](const std::string& p) {
    return std::make_unique<ckpt::FaultInjectionFile>(
        ckpt::PosixWritableFile::Open(p), ckpt::FaultPlan{}, &total_ops);
  });
  {
    baselines::TransE model(model_config);
    baselines::TrainKgeModel(&model, *dataset_, two_epochs);
  }
  ckpt::SetWritableFileFactoryForTest(nullptr);
  ASSERT_GT(total_ops, 5);

  const ckpt::FaultKind kinds[] = {
      ckpt::FaultKind::kShortWrite, ckpt::FaultKind::kEnospc,
      ckpt::FaultKind::kSyncFail, ckpt::FaultKind::kCloseFail};
  for (int64_t n = 1; n <= total_ops; ++n) {
    SCOPED_TRACE("fault at op " + std::to_string(n));
    std::filesystem::remove(CkptPath());
    // Phase 1: two clean epochs, checkpoint lands at epoch 2.
    {
      baselines::TransE model(model_config);
      baselines::TrainKgeModel(&model, *dataset_, two_epochs);
    }
    // Phase 2: the epoch-3 save hits the injected fault — the trainer
    // warns and keeps going, then the process "dies" before ever saving
    // successfully again.
    const ckpt::FaultKind kind = kinds[n % 4];
    ckpt::SetWritableFileFactoryForTest([&, kind, n](const std::string& p) {
      return std::make_unique<ckpt::FaultInjectionFile>(
          ckpt::PosixWritableFile::Open(p), ckpt::FaultPlan{n, kind},
          nullptr);
    });
    {
      baselines::TransE model(model_config);
      baselines::KgeTrainConfig crashing = train;
      crashing.checkpoint_path = CkptPath();
      baselines::TrainKgeModel(&model, *dataset_, crashing);
    }
    ckpt::SetWritableFileFactoryForTest(nullptr);

    // Phase 3: restart. The epoch-2 checkpoint must still be valid, and
    // rerunning epoch 3 from it reproduces the uninterrupted run exactly.
    baselines::TransE resumed_model(model_config);
    baselines::KgeTrainConfig resume = train;
    resume.checkpoint_path = CkptPath();
    const std::vector<double> resumed_losses =
        baselines::TrainKgeModel(&resumed_model, *dataset_, resume);

    ASSERT_EQ(resumed_losses, straight_losses);
    ASSERT_EQ(ParamBytes(resumed_model), golden_params);
    ASSERT_EQ(GoldenSummary(Evaluate(&resumed_model, *dataset_, SmallEval(1))),
              golden);
  }
}

}  // namespace
}  // namespace dekg
