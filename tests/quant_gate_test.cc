// Accuracy-regression gate for the quantized serving modes (DESIGN.md
// §15). Four contracts:
//
//  * fp32 is EXACT: an engine at the default precision, driven through
//    the full Evaluate protocol, reproduces the offline predictor's
//    GoldenSummary bit for bit (CompareSummaries at eps 0) — quantization
//    support must not move the repository's determinism contract by one
//    ulp.
//  * fp16/int8 are epsilon-gated: rank metrics within a fixed epsilon of
//    fp32, and every raw served score within a per-score max-abs-error
//    bound.
//  * Quantized scores are still bit-DETERMINISTIC: invariant to thread
//    count, micro-batch composition, warm-vs-cold caches, and churn
//    (an engine that ingested its way to the full graph matches a fresh
//    engine built on it, bit for bit).
//  * The footprint accounting (EngineStats::frozen_row_bytes /
//    frozen_weight_bytes, protocol v4) reports the reduction the modes
//    exist for: fp16 exactly halves the frozen model, int8 cuts the
//    fusion rows >= 3x.
//
// CompareSummaries itself (the eps harness the gate rides on) is unit
// tested here too.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "eval/evaluator.h"
#include "quant/quantize.h"
#include "serve/engine.h"
#include "serve/router.h"

namespace dekg::serve {
namespace {

// Epsilon bounds of the quantized modes. Rank metrics live in [0, 1];
// the bound must absorb the handful of rank flips a perturbed score can
// cause near ties on this small protocol (24 tasks -> one hits flip is
// ~0.042). Per-score bounds are the sharp gate: raw score error from
// storage rounding of the fusion rows and dense transforms.
constexpr double kFp16MetricEps = 0.05;
constexpr double kInt8MetricEps = 0.15;
constexpr double kFp16ScoreEps = 0.005;
constexpr double kInt8ScoreEps = 0.05;

DekgDataset SyntheticDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("serve", schema, split, /*seed=*/21);
}

core::DekgIlpConfig SmallModelConfig(int32_t num_relations) {
  core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 16;
  return config;
}

std::vector<Triple> TestTriples(const DekgDataset& dataset, size_t limit) {
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= limit) break;
  }
  return triples;
}

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples,
                                uint64_t request_seed = 123) {
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(request_seed, i)});
  }
  return items;
}

EngineConfig ConfigFor(quant::Precision precision) {
  EngineConfig config;
  config.precision = precision;
  // Memo off: the gate measures the scoring pipeline itself, not replay.
  config.score_memo_capacity = 0;
  return config;
}

// A one-shard router: the single-engine server.
RouterConfig OneShard(const EngineConfig& engine) {
  RouterConfig config;
  config.engine = engine;
  return config;
}

// Adapts a one-shard Router to the evaluator's LinkPredictor interface.
// A score depends only on (triple, graph), so at fp32 the adapter is
// score-for-score bit-identical to DekgIlpPredictor and Evaluate() sees
// identical ranks. Scoring stays serial (SupportsConcurrentScoring
// false): the router contract is one caller at a time.
class EnginePredictor : public LinkPredictor {
 public:
  explicit EnginePredictor(Router* engine) : engine_(engine) {}

  std::string Name() const override { return "serve-engine"; }

  std::vector<double> ScoreTriples(
      const KnowledgeGraph& /*inference_graph*/,
      const std::vector<Triple>& triples) override {
    return engine_->ScoreBatch(ItemsFor(triples));
  }

  int64_t ParameterCount() const override { return 0; }

 private:
  Router* engine_;
};

EvalConfig GateEvalConfig() {
  EvalConfig config;
  config.num_entity_negatives = 6;
  config.max_links = 8;
  config.collect_ranks = true;
  config.num_threads = 1;
  return config;
}

TEST(CompareSummariesTest, ExactModeIsBitwise) {
  const std::string a = "overall.mrr\t0.5\noverall.hits_at_1\t0.25\n";
  EXPECT_TRUE(CompareSummaries(a, a, 0.0));
  // Equivalent spelling of the same double still passes at eps 0.
  const std::string b = "overall.mrr\t0.50\noverall.hits_at_1\t0.25\n";
  EXPECT_TRUE(CompareSummaries(a, b, 0.0));
  std::string diff;
  const std::string c = "overall.mrr\t0.5\noverall.hits_at_1\t0.250001\n";
  EXPECT_FALSE(CompareSummaries(a, c, 0.0, &diff));
  EXPECT_NE(diff.find("overall.hits_at_1"), std::string::npos) << diff;
}

TEST(CompareSummariesTest, EpsilonModeBoundsEachMetric) {
  const std::string a = "overall.mrr\t0.5\noverall.num_tasks\t24\n";
  const std::string b = "overall.mrr\t0.52\noverall.num_tasks\t24\n";
  EXPECT_FALSE(CompareSummaries(a, b, 0.0));
  EXPECT_FALSE(CompareSummaries(a, b, 0.01));
  EXPECT_TRUE(CompareSummaries(a, b, 0.05));
  // An integer metric (num_tasks) cannot drift under eps < 1.
  const std::string c = "overall.mrr\t0.5\noverall.num_tasks\t23\n";
  std::string diff;
  EXPECT_FALSE(CompareSummaries(a, c, 0.05, &diff));
  EXPECT_NE(diff.find("overall.num_tasks"), std::string::npos) << diff;
}

TEST(CompareSummariesTest, StructuralMismatchAlwaysFails) {
  const std::string a = "overall.mrr\t0.5\noverall.hits_at_1\t0.25\n";
  std::string diff;
  // Missing line.
  EXPECT_FALSE(CompareSummaries(a, "overall.mrr\t0.5\n", 1.0, &diff));
  EXPECT_NE(diff.find("line count"), std::string::npos) << diff;
  // Renamed metric: no epsilon excuses a different schema.
  const std::string renamed = "overall.mrr\t0.5\noverall.hits_at_10\t0.25\n";
  EXPECT_FALSE(CompareSummaries(a, renamed, 1.0, &diff));
  EXPECT_NE(diff.find("name mismatch"), std::string::npos) << diff;
}

TEST(QuantGateTest, Fp32EngineEvaluatesBitwiseIdenticalToOffline) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  const EvalConfig eval_config = GateEvalConfig();

  core::DekgIlpPredictor predictor(&model);
  const EvalResult offline = Evaluate(&predictor, dataset, eval_config);

  Router engine(&model, dataset.inference_graph(),
                OneShard(ConfigFor(quant::Precision::kFp32)));
  EnginePredictor adapter(&engine);
  const EvalResult online = Evaluate(&adapter, dataset, eval_config);

  std::string diff;
  EXPECT_TRUE(CompareSummaries(GoldenSummary(offline), GoldenSummary(online),
                               /*eps=*/0.0, &diff))
      << diff;
  // Rank-for-rank identity, not just aggregate identity.
  ASSERT_EQ(online.ranks.size(), offline.ranks.size());
  for (size_t i = 0; i < offline.ranks.size(); ++i) {
    EXPECT_EQ(online.ranks[i], offline.ranks[i]) << "task " << i;
  }
}

TEST(QuantGateTest, QuantizedModesStayWithinEpsilonOfFp32) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  const EvalConfig eval_config = GateEvalConfig();
  const std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 8u);

  Router fp32_engine(&model, dataset.inference_graph(),
                     OneShard(ConfigFor(quant::Precision::kFp32)));
  EnginePredictor fp32_adapter(&fp32_engine);
  const std::string fp32_summary =
      GoldenSummary(Evaluate(&fp32_adapter, dataset, eval_config));
  const std::vector<double> fp32_scores =
      fp32_engine.ScoreBatch(ItemsFor(triples));

  struct Mode {
    quant::Precision precision;
    double metric_eps;
    double score_eps;
  };
  for (const Mode& mode :
       {Mode{quant::Precision::kFp16, kFp16MetricEps, kFp16ScoreEps},
        Mode{quant::Precision::kInt8, kInt8MetricEps, kInt8ScoreEps}}) {
    Router engine(&model, dataset.inference_graph(),
                  OneShard(ConfigFor(mode.precision)));
    EnginePredictor adapter(&engine);
    const std::string summary =
        GoldenSummary(Evaluate(&adapter, dataset, eval_config));
    std::string diff;
    EXPECT_TRUE(
        CompareSummaries(fp32_summary, summary, mode.metric_eps, &diff))
        << quant::PrecisionName(mode.precision) << ": " << diff;

    const std::vector<double> scores = engine.ScoreBatch(ItemsFor(triples));
    ASSERT_EQ(scores.size(), fp32_scores.size());
    double max_abs_err = 0.0;
    for (size_t i = 0; i < scores.size(); ++i) {
      max_abs_err =
          std::max(max_abs_err, std::fabs(scores[i] - fp32_scores[i]));
    }
    EXPECT_LE(max_abs_err, mode.score_eps)
        << quant::PrecisionName(mode.precision)
        << " per-score max abs error " << max_abs_err;
    // The quantized mode must actually quantize: bitwise-identical
    // scores would mean the precision knob silently fell back to fp32.
    EXPECT_GT(max_abs_err, 0.0) << quant::PrecisionName(mode.precision);
  }
}

TEST(QuantGateTest, QuantizedScoresAreBitDeterministic) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  const std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 8u);

  for (quant::Precision precision :
       {quant::Precision::kFp16, quant::Precision::kInt8}) {
    // Thread-count invariance: a fresh engine per pool size, identical
    // bits.
    std::vector<double> reference;
    for (int threads : {1, 8}) {
      SetDefaultThreadCount(threads);
      Router engine(&model, dataset.inference_graph(),
                    OneShard(ConfigFor(precision)));
      const std::vector<double> scores = engine.ScoreBatch(ItemsFor(triples));
      // Warm pass: served from the subgraph cache, still identical.
      const std::vector<double> warm = engine.ScoreBatch(ItemsFor(triples));
      SetDefaultThreadCount(0);
      ASSERT_EQ(scores.size(), triples.size());
      EXPECT_EQ(warm, scores) << quant::PrecisionName(precision) << " threads "
                              << threads;
      if (reference.empty()) {
        reference = scores;
      } else {
        EXPECT_EQ(scores, reference)
            << quant::PrecisionName(precision) << " threads " << threads;
      }
    }

    // Micro-batch composition invariance: the same items scored as one
    // batch, two halves, and one-by-one produce identical bits (item
    // seeds travel with the items, and dynamic activation quantization
    // is row-content-pure).
    Router engine(&model, dataset.inference_graph(),
                  OneShard(ConfigFor(precision)));
    const std::vector<ScoreItem> items = ItemsFor(triples);
    const std::vector<double> whole = engine.ScoreBatch(items);
    EXPECT_EQ(whole, reference) << quant::PrecisionName(precision);

    const size_t half = items.size() / 2;
    std::vector<double> split = engine.ScoreBatch(
        {items.begin(), items.begin() + static_cast<int64_t>(half)});
    const std::vector<double> tail_scores = engine.ScoreBatch(
        {items.begin() + static_cast<int64_t>(half), items.end()});
    split.insert(split.end(), tail_scores.begin(), tail_scores.end());
    EXPECT_EQ(split, whole) << quant::PrecisionName(precision);

    std::vector<double> singles;
    for (const ScoreItem& item : items) {
      const std::vector<double> one = engine.ScoreBatch({item});
      singles.push_back(one[0]);
    }
    EXPECT_EQ(singles, whole) << quant::PrecisionName(precision);
  }
}

TEST(QuantGateTest, QuantizedChurnConvergesBitwiseToFreshEngine) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  const std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 8u);

  for (quant::Precision precision :
       {quant::Precision::kFp16, quant::Precision::kInt8}) {
    // Start from the train-only graph, ingest every emerging triple,
    // then score: the quantized rows refreshed along the way must equal
    // a fresh engine's rows quantized from the full graph (both
    // quantize the same recomputed fp32 fusion rows).
    Router churned(&model, dataset.original_graph(),
                   OneShard(ConfigFor(precision)));
    IngestResponse response;
    churned.Ingest(dataset.emerging_triples(), &response);
    ASSERT_EQ(response.status, Status::kOk) << response.error;

    Router fresh(&model, dataset.inference_graph(),
                 OneShard(ConfigFor(precision)));
    const std::vector<double> after = churned.ScoreBatch(ItemsFor(triples));
    const std::vector<double> want = fresh.ScoreBatch(ItemsFor(triples));
    EXPECT_EQ(after, want) << quant::PrecisionName(precision);
  }
}

TEST(QuantGateTest, ShardedRouterServesQuantizedBitIdenticalToStandalone) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  const std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 8u);

  for (quant::Precision precision :
       {quant::Precision::kFp16, quant::Precision::kInt8}) {
    Router one_shard(&model, dataset.inference_graph(),
                     OneShard(ConfigFor(precision)));
    const std::vector<double> want = one_shard.ScoreBatch(ItemsFor(triples));

    // The router's shared SnapshotWriter must carry the configured
    // precision to its follower engines; fan-out/fan-in changes nothing.
    for (int32_t shards : {1, 3}) {
      RouterConfig router_config;
      router_config.num_shards = shards;
      router_config.engine = ConfigFor(precision);
      Router router(&model, dataset.inference_graph(), router_config);
      const std::vector<double> got = router.ScoreBatch(ItemsFor(triples));
      EXPECT_EQ(got, want) << quant::PrecisionName(precision) << " shards "
                           << shards;
      EXPECT_EQ(router.Stats().precision, static_cast<uint8_t>(precision));
    }
  }
}

TEST(QuantGateTest, FootprintAccountingReportsTheReduction) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);

  EngineStats stats[3];
  const quant::Precision precisions[] = {quant::Precision::kFp32,
                                         quant::Precision::kFp16,
                                         quant::Precision::kInt8};
  for (int p = 0; p < 3; ++p) {
    Router engine(&model, dataset.inference_graph(),
                  OneShard(ConfigFor(precisions[p])));
    stats[p] = engine.Stats();
    EXPECT_EQ(stats[p].precision, static_cast<uint8_t>(precisions[p]));
    EXPECT_GT(stats[p].frozen_row_bytes, 0u);
    EXPECT_GT(stats[p].frozen_weight_bytes, 0u);
  }

  const uint64_t fp32_total =
      stats[0].frozen_row_bytes + stats[0].frozen_weight_bytes;
  const uint64_t fp16_total =
      stats[1].frozen_row_bytes + stats[1].frozen_weight_bytes;
  const uint64_t int8_total =
      stats[2].frozen_row_bytes + stats[2].frozen_weight_bytes;

  // fp16 stores every frozen float in exactly 2 bytes: precisely half.
  EXPECT_EQ(fp16_total * 2, fp32_total);
  // int8 fusion rows: dim bytes + one fp32 scale vs dim fp32s — >= 3x
  // at dim 16 and climbing with dim (bench_quant gates >= 3x on the
  // whole frozen model at serving dim).
  EXPECT_GE(stats[0].frozen_row_bytes, 3 * stats[2].frozen_row_bytes);
  // Whole frozen model at this small dim: the per-row/per-column scale
  // metadata costs relatively more, but the cut stays well above 2.5x.
  EXPECT_GE(fp32_total * 2, int8_total * 5);
}

}  // namespace
}  // namespace dekg::serve
