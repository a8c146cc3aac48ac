// Training-path mirror of parallel_eval_determinism_test: a serial
// DekgIlpTrainer run must be bit-identical — parameters, loss curve, and
// Evaluate() metrics — to data-parallel runs at 2 and 4 threads, with the
// subgraph cache and the row-sparse optimizer on or off in any
// combination, and across a checkpoint resume under parallelism (including
// a save hit by an injected fault). TACT and Neural LP, which train
// through the same core::Trainer loop, join the thread sweep and the
// resume case, and TACT the subgraph-cache checks. Also pins the
// SampleNegativeTriple fallback invariants on graphs dense enough to
// defeat filtered sampling.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/neural_lp.h"
#include "baselines/tact.h"
#include "common/checkpoint.h"
#include "core/dekg_ilp.h"
#include "core/trainer.h"
#include "datagen/synthetic_kg.h"
#include "eval/evaluator.h"
#include "graph/subgraph_cache.h"

namespace dekg {
namespace {

std::vector<uint8_t> ParamBytes(const nn::Module& module) {
  std::vector<uint8_t> bytes;
  module.SerializeParameters(&bytes);
  return bytes;
}

class TrainerParallelDeterminismTest : public ::testing::Test {
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
        datagen::MakeDekgDataset("train-par", schema, split, 42));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::DekgIlpConfig ModelConfig() {
    core::DekgIlpConfig config;
    config.num_relations = dataset_->num_relations();
    config.dim = 16;
    config.num_contrastive_samples = 4;
    return config;
  }

  static core::TrainConfig BaseTrain() {
    core::TrainConfig train;
    train.epochs = 3;
    train.max_triples_per_epoch = 48;
    train.seed = 8;
    return train;
  }

  // The models that train through core::Trainer.
  enum class Kind { kDekgIlp, kTact, kNeuralLp };
  static constexpr Kind kKinds[] = {Kind::kDekgIlp, Kind::kTact,
                                    Kind::kNeuralLp};
  // The models whose trainer gets a GSM, and so caches positive subgraphs.
  static constexpr Kind kCachingKinds[] = {Kind::kDekgIlp, Kind::kTact};

  // A fresh model of `kind` (same seed every time) and its trainer.
  struct Setup {
    std::unique_ptr<nn::Module> module;
    std::unique_ptr<LinkPredictor> adapter;  // DEKG-ILP's predictor
    LinkPredictor* predictor = nullptr;
    std::unique_ptr<core::Trainer> trainer;
  };

  static Setup MakeSetup(Kind kind, const core::TrainConfig& train) {
    const KnowledgeGraph* graph = &dataset_->original_graph();
    Setup setup;
    switch (kind) {
      case Kind::kDekgIlp: {
        auto model = std::make_unique<core::DekgIlpModel>(ModelConfig(), 7);
        setup.trainer =
            std::make_unique<core::DekgIlpTrainer>(model.get(), dataset_, train);
        setup.adapter = std::make_unique<core::DekgIlpPredictor>(model.get());
        setup.predictor = setup.adapter.get();
        setup.module = std::move(model);
        break;
      }
      case Kind::kTact: {
        baselines::TactConfig config;
        config.num_relations = dataset_->num_relations();
        config.dim = 8;
        auto model = std::make_unique<baselines::Tact>(config, 7);
        baselines::Tact* m = model.get();
        setup.trainer = std::make_unique<core::Trainer>(
            m, dataset_, train,
            core::MarginLoss(dataset_, train.negatives_per_positive,
                             [m, graph](const Triple& t,
                                        const Subgraph* subgraph, Rng* rng) {
                               return m->ScoreLink(*graph, t, true, rng,
                                                   subgraph);
                             }),
            m->gsm());
        setup.predictor = m;
        setup.module = std::move(model);
        break;
      }
      case Kind::kNeuralLp: {
        baselines::NeuralLpConfig config;
        config.num_relations = dataset_->num_relations();
        auto model = std::make_unique<baselines::NeuralLp>(config, 7);
        baselines::NeuralLp* m = model.get();
        setup.trainer = std::make_unique<core::Trainer>(
            m, dataset_, train,
            core::MarginLoss(dataset_, train.negatives_per_positive,
                             [m, graph](const Triple& t, const Subgraph*,
                                        Rng*) {
                               return m->ScoreLink(*graph, t);
                             }));
        setup.predictor = m;
        setup.module = std::move(model);
        break;
      }
    }
    return setup;
  }

  static std::string KindName(Kind kind) {
    switch (kind) {
      case Kind::kDekgIlp: return "DEKG-ILP";
      case Kind::kTact: return "TACT";
      case Kind::kNeuralLp: return "NeuralLP";
    }
    return "";
  }

  struct RunResult {
    std::vector<double> losses;
    std::vector<uint8_t> params;
    std::string metrics;
    SubgraphCache::Stats cache;  // after the last epoch
  };

  static RunResult Run(const core::TrainConfig& train,
                       Kind kind = Kind::kDekgIlp) {
    Setup setup = MakeSetup(kind, train);
    RunResult result;
    result.losses = setup.trainer->Train();
    result.params = ParamBytes(*setup.module);
    result.cache = setup.trainer->subgraph_cache().stats();
    EvalConfig eval;
    eval.num_entity_negatives = 12;
    eval.max_links = 12;
    result.metrics =
        GoldenSummary(Evaluate(setup.predictor, *dataset_, eval));
    return result;
  }

  static void ExpectSameRun(const RunResult& a, const RunResult& b,
                            const std::string& label) {
    ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
    for (size_t i = 0; i < a.losses.size(); ++i) {
      EXPECT_EQ(a.losses[i], b.losses[i]) << label << " epoch " << i;
    }
    EXPECT_TRUE(a.params == b.params) << label << ": params diverged";
    EXPECT_EQ(a.metrics, b.metrics) << label << ": metrics diverged";
  }

  static DekgDataset* dataset_;
};

DekgDataset* TrainerParallelDeterminismTest::dataset_ = nullptr;

TEST_F(TrainerParallelDeterminismTest, SerialAndParallelRunsAreBitIdentical) {
  for (Kind kind : kKinds) {
    core::TrainConfig serial = BaseTrain();
    serial.num_threads = 1;
    const RunResult reference = Run(serial, kind);
    ASSERT_EQ(reference.losses.size(), 3u) << KindName(kind);
    for (int32_t threads : {2, 4}) {
      core::TrainConfig parallel = BaseTrain();
      parallel.num_threads = threads;
      ExpectSameRun(reference, Run(parallel, kind),
                    KindName(kind) + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(TrainerParallelDeterminismTest, SparseOptimizerIsBitIdenticalToDense) {
  core::TrainConfig dense = BaseTrain();
  dense.num_threads = 1;
  dense.sparse_optimizer = false;
  core::TrainConfig sparse = BaseTrain();
  sparse.num_threads = 4;
  sparse.sparse_optimizer = true;
  ExpectSameRun(Run(dense), Run(sparse), "sparse-vs-dense");
}

TEST_F(TrainerParallelDeterminismTest, SubgraphCacheIsNumericallyTransparent) {
  for (Kind kind : kCachingKinds) {
    SCOPED_TRACE(KindName(kind));
    core::TrainConfig uncached = BaseTrain();
    uncached.num_threads = 2;
    uncached.use_subgraph_cache = false;
    const RunResult reference = Run(uncached, kind);

    core::TrainConfig cached = BaseTrain();
    cached.num_threads = 2;
    cached.use_subgraph_cache = true;
    ExpectSameRun(reference, Run(cached, kind), "cache-on");

    // A capacity small enough to evict nearly every admission must not
    // change a bit either. Its last epoch's counters are pinned: 48
    // positives per epoch, one still resident from the epoch before.
    core::TrainConfig tiny = cached;
    tiny.subgraph_cache_capacity = 4;
    const RunResult thrashed = Run(tiny, kind);
    ExpectSameRun(reference, thrashed, "cache-tiny-capacity");
    EXPECT_EQ(thrashed.cache.hits, 1);
    EXPECT_EQ(thrashed.cache.misses, 47);
    EXPECT_EQ(thrashed.cache.evictions, 47);
    EXPECT_EQ(thrashed.cache.entries, 4);
    EXPECT_EQ(thrashed.cache.bytes, kind == Kind::kDekgIlp ? 14724 : 7032);
  }
}

TEST_F(TrainerParallelDeterminismTest, CacheHitRateIsPerfectFromSecondEpoch) {
  core::TrainConfig train = BaseTrain();
  train.num_threads = 2;
  train.max_triples_per_epoch = 0;  // every epoch visits the same triples
  const int64_t positives =
      static_cast<int64_t>(dataset_->train_triples().size());
  for (Kind kind : kCachingKinds) {
    SCOPED_TRACE(KindName(kind));
    Setup setup = MakeSetup(kind, train);
    setup.trainer->TrainEpoch();
    const auto first = setup.trainer->subgraph_cache().stats();
    EXPECT_EQ(first.hits, 0);
    EXPECT_EQ(first.misses, positives);
    setup.trainer->TrainEpoch();
    const auto second = setup.trainer->subgraph_cache().stats();
    EXPECT_EQ(second.misses, 0) << "epoch 2 should be served fully from cache";
    EXPECT_EQ(second.hits, positives);
  }
}

TEST_F(TrainerParallelDeterminismTest, ResumeUnderParallelismIsBitIdentical) {
  const auto dir = std::filesystem::temp_directory_path() / "dekg_train_par";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "resume.ckpt").string();

  for (Kind kind : kKinds) {
    SCOPED_TRACE(KindName(kind));
    std::filesystem::remove(ckpt);
    core::TrainConfig straight = BaseTrain();
    straight.epochs = 4;
    straight.num_threads = 1;
    const RunResult reference = Run(straight, kind);

    // Two epochs at 4 threads with a checkpoint, "crash", then resume to 4
    // epochs at 2 threads: thread count may change across the crash
    // without moving a bit.
    {
      core::TrainConfig first = straight;
      first.epochs = 2;
      first.num_threads = 4;
      first.checkpoint_path = ckpt;
      Setup setup = MakeSetup(kind, first);
      setup.trainer->Train();
      ASSERT_EQ(setup.trainer->epochs_completed(), 2);
    }
    core::TrainConfig rest = straight;
    rest.num_threads = 2;
    rest.checkpoint_path = ckpt;
    Setup resumed = MakeSetup(kind, rest);
    const std::vector<double> resumed_losses = resumed.trainer->Train();

    ASSERT_EQ(resumed_losses.size(), reference.losses.size());
    for (size_t i = 0; i < resumed_losses.size(); ++i) {
      EXPECT_EQ(resumed_losses[i], reference.losses[i]) << "epoch " << i;
    }
    EXPECT_EQ(ParamBytes(*resumed.module), reference.params);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(TrainerParallelDeterminismTest,
       FaultedSaveUnderParallelismStillResumesBitIdentical) {
  const auto dir = std::filesystem::temp_directory_path() / "dekg_train_flt";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "fault.ckpt").string();
  std::filesystem::remove(ckpt);

  core::TrainConfig straight = BaseTrain();
  straight.epochs = 3;
  straight.num_threads = 2;
  const RunResult reference = Run(straight);

  // Epochs 1-2 checkpoint cleanly; the epoch-3 save hits an injected
  // ENOSPC, the process "dies", and the restart must recover from the
  // epoch-2 checkpoint and reproduce the straight run bit-for-bit.
  {
    core::DekgIlpModel model(ModelConfig(), 7);
    core::TrainConfig first = straight;
    first.epochs = 2;
    first.checkpoint_path = ckpt;
    core::DekgIlpTrainer trainer(&model, dataset_, first);
    trainer.Train();
  }
  ckpt::SetWritableFileFactoryForTest([](const std::string& p) {
    return std::make_unique<ckpt::FaultInjectionFile>(
        ckpt::PosixWritableFile::Open(p),
        ckpt::FaultPlan{3, ckpt::FaultKind::kEnospc}, nullptr);
  });
  {
    core::DekgIlpModel model(ModelConfig(), 7);
    core::TrainConfig crashing = straight;
    crashing.checkpoint_path = ckpt;
    core::DekgIlpTrainer trainer(&model, dataset_, crashing);
    trainer.Train();
  }
  ckpt::SetWritableFileFactoryForTest(nullptr);

  core::DekgIlpModel resumed_model(ModelConfig(), 7);
  core::TrainConfig resume = straight;
  resume.num_threads = 4;
  resume.checkpoint_path = ckpt;
  core::DekgIlpTrainer resumed(&resumed_model, dataset_, resume);
  const std::vector<double> resumed_losses = resumed.Train();

  ASSERT_EQ(resumed_losses.size(), reference.losses.size());
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], reference.losses[i]) << "epoch " << i;
  }
  EXPECT_EQ(ParamBytes(resumed_model), reference.params);
  std::filesystem::remove_all(dir);
}

// ----- SampleNegativeTriple fallback invariants -----

// A complete directed graph over n entities (all ordered pairs, one
// relation): every endpoint corruption is the positive, a self-loop, or a
// known triple, so the 100-attempt filtered loop always fails and the
// fallback must fire — while still never returning the positive or a
// self-loop.
DekgDataset CompleteDataset(int32_t n, int32_t num_relations) {
  std::vector<Triple> train;
  for (int32_t h = 0; h < n; ++h) {
    for (int32_t t = 0; t < n; ++t) {
      if (h == t) continue;
      for (int32_t r = 0; r < num_relations; ++r) {
        train.push_back(Triple{h, r, t});
      }
    }
  }
  return DekgDataset("complete", n, /*num_emerging=*/0, num_relations, train,
                     {}, {}, {});
}

TEST(SampleNegativeTripleTest, FallbackNeverReturnsPositiveOrSelfLoop) {
  const DekgDataset dataset = CompleteDataset(3, 1);
  const Triple positive{0, 0, 1};
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Triple negative =
        core::SampleNegativeTriple(dataset, positive, &rng);
    EXPECT_FALSE(negative == positive) << "iteration " << i;
    EXPECT_NE(negative.head, negative.tail) << "iteration " << i;
  }
}

TEST(SampleNegativeTripleTest, TwoEntityGraphFallsBackToRelationCorruption) {
  // With two entities no endpoint corruption can avoid both the positive
  // and a self-loop; the fallback must corrupt the relation instead.
  const DekgDataset dataset = CompleteDataset(2, 2);
  const Triple positive{0, 0, 1};
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const Triple negative =
        core::SampleNegativeTriple(dataset, positive, &rng);
    EXPECT_FALSE(negative == positive) << "iteration " << i;
    EXPECT_NE(negative.head, negative.tail) << "iteration " << i;
  }
}

TEST(SampleNegativeTripleTest, FilteredPathStillAvoidsKnownTriples) {
  // On a sparse graph the filtered loop keeps working exactly as before:
  // negatives are never the positive, never self-loops, and never in the
  // train graph.
  datagen::SchemaConfig schema;
  schema.num_types = 3;
  schema.num_relations = 4;
  schema.num_entities = 60;
  schema.num_rules = 2;
  const DekgDataset dataset =
      datagen::MakeDekgDataset("sparse-neg", schema, {}, 5);
  ASSERT_FALSE(dataset.train_triples().empty());
  const Triple positive = dataset.train_triples().front();
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const Triple negative =
        core::SampleNegativeTriple(dataset, positive, &rng);
    EXPECT_FALSE(negative == positive);
    EXPECT_NE(negative.head, negative.tail);
    EXPECT_FALSE(dataset.original_graph().Contains(negative));
  }
}

}  // namespace
}  // namespace dekg
