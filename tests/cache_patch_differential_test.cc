// Differential churn-test harness — the acceptance gate of the in-place
// cache-patch path (DESIGN.md §13). Two one-shard Routers step IDENTICAL
// randomized ingest/score schedules side by side: one with patch_cache on
// (patch / repair / fallback maintenance) and one with the
// invalidate-on-ingest reference semantics. At EVERY step their scores
// must be bit-identical, their GoldenSummary-style %.17g step records
// must be equal strings, and both must match the offline predictor run
// against a statically built oracle graph over the same triple multiset
// (valid by the dynamic-append ordering invariant on KnowledgeGraph).
//
// Schedules are seeded and cover the hostile shapes: duplicate edge
// re-ingestion, isolated emerging entities entering (and later joining)
// the graph, ingest batches whose edges straddle the t-hop boundary of
// warm cached subgraphs, and interleavings that score between every
// ingest so the cache is always warm when maintenance runs. The two
// caches intentionally diverge in CONTENT over time (patch mode keeps
// entries warm that invalidate mode drops) — which is exactly why the
// score gate is meaningful: served bits must not depend on which policy
// filled the cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/router.h"

namespace dekg::serve {
namespace {

DekgDataset ChurnDataset(uint64_t seed) {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 12;
  schema.num_entities = 140;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("churn", schema, split, seed);
}

core::DekgIlpConfig SmallModelConfig(int32_t num_relations) {
  core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 8;
  return config;
}

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples,
                                uint64_t request_seed) {
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(request_seed, i)});
  }
  return items;
}

// GoldenSummary-style record of one step's scores: "step.i<TAB>value"
// lines at full %.17g precision, so equal strings mean bit-equal doubles.
std::string StepSummary(size_t step, const std::vector<double>& scores) {
  std::string out;
  char line[64];
  for (size_t i = 0; i < scores.size(); ++i) {
    std::snprintf(line, sizeof(line), "%zu.%zu\t%.17g\n", step, i, scores[i]);
    out += line;
  }
  return out;
}

struct ScheduleOutcome {
  uint64_t patched = 0;
  uint64_t repaired = 0;
  uint64_t fallback = 0;
  uint64_t score_steps = 0;
  uint64_t ingest_steps = 0;
};

// A one-shard router: the single-engine server.
RouterConfig OneShard(const EngineConfig& engine) {
  RouterConfig config;
  config.engine = engine;
  return config;
}

// Steps one seeded churn schedule through both engines, gating bitwise
// identity at every score step (differential + static-graph oracle).
void RunChurnSchedule(uint64_t schedule_seed, int32_t num_steps,
                      double ingest_probability, ScheduleOutcome* outcome) {
  DekgDataset dataset = ChurnDataset(MixSeed(97, schedule_seed));
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  core::DekgIlpPredictor predictor(&model);

  EngineConfig patch_config;
  // Small enough that every schedule evicts, so slot reuse in the
  // touched-entity index interleaves with ingest maintenance.
  patch_config.cache_capacity = 8;
  EngineConfig invalidate_config = patch_config;
  invalidate_config.patch_cache = false;
  Router patch_engine(&model, dataset.original_graph(), OneShard(patch_config));
  Router invalidate_engine(&model, dataset.original_graph(),
                           OneShard(invalidate_config));

  // Score pool: the test links plus, as the schedule ingests isolated
  // emerging entities, triples that involve them.
  std::vector<Triple> pool;
  for (const LabeledLink& link : dataset.test_links()) {
    pool.push_back(link.triple);
  }
  const std::vector<Triple>& emerging = dataset.emerging_triples();
  const int32_t base_entities = dataset.inference_graph().num_entities();
  const int32_t num_relations = dataset.num_relations();

  std::vector<Triple> ingested;  // full prefix, for the static oracle
  size_t emerging_cursor = 0;
  int32_t fresh_entities = 0;
  Rng rng(MixSeed(131, schedule_seed));

  for (int32_t step = 0; step < num_steps; ++step) {
    const bool do_ingest =
        rng.Bernoulli(ingest_probability) || step == num_steps - 1;
    if (do_ingest) {
      ++outcome->ingest_steps;
      std::vector<Triple> batch;
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind == 0 && !ingested.empty()) {
        // Duplicate re-ingestion of already-applied edges.
        const size_t count = static_cast<size_t>(rng.UniformInt(
            1, std::min<int64_t>(4, static_cast<int64_t>(ingested.size()))));
        for (size_t i = 0; i < count; ++i) {
          batch.push_back(ingested[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(ingested.size()) - 1))]);
        }
      } else if (kind == 1) {
        // An isolated emerging pair: both endpoints brand new. The link
        // becomes scoreable immediately (all-zero CLRM row, empty
        // neighborhood) and later steps may bridge it in (kind == 2).
        const EntityId a = base_entities + fresh_entities++;
        const EntityId b = base_entities + fresh_entities++;
        const Triple isolated{
            a, static_cast<RelationId>(rng.UniformInt(0, num_relations - 1)),
            b};
        batch.push_back(isolated);
        pool.push_back(isolated);
      } else if (kind == 2 && fresh_entities > 0) {
        // Bridge a previously isolated entity into the known graph — a
        // membership-changing edge for any warm subgraph near the known
        // endpoint.
        const EntityId fresh = base_entities + static_cast<EntityId>(
            rng.UniformInt(0, fresh_entities - 1));
        const EntityId known =
            static_cast<EntityId>(rng.UniformInt(0, base_entities - 1));
        const Triple bridge{fresh, static_cast<RelationId>(rng.UniformInt(
                                       0, num_relations - 1)),
                            known};
        batch.push_back(bridge);
        pool.push_back(bridge);
      } else {
        // File-order emerging chunk (the live-serving steady state).
        const size_t count = static_cast<size_t>(rng.UniformInt(1, 8));
        for (size_t i = 0;
             i < count && emerging_cursor < emerging.size(); ++i) {
          batch.push_back(emerging[emerging_cursor++]);
        }
      }
      if (batch.empty()) continue;

      IngestResponse patch_response;
      IngestResponse invalidate_response;
      patch_engine.Ingest(batch, &patch_response);
      invalidate_engine.Ingest(batch, &invalidate_response);
      ASSERT_EQ(patch_response.status, Status::kOk)
          << patch_response.error << " schedule " << schedule_seed;
      // Graph-level outcomes cannot depend on the maintenance policy.
      EXPECT_EQ(invalidate_response.status, patch_response.status);
      EXPECT_EQ(invalidate_response.accepted, patch_response.accepted);
      EXPECT_EQ(invalidate_response.duplicates, patch_response.duplicates);
      EXPECT_EQ(invalidate_response.new_entities,
                patch_response.new_entities);
      EXPECT_EQ(invalidate_response.patched + invalidate_response.repaired,
                0u);
      ingested.insert(ingested.end(), batch.begin(), batch.end());
    } else {
      ++outcome->score_steps;
      const size_t count = static_cast<size_t>(rng.UniformInt(1, 6));
      std::vector<Triple> triples;
      for (size_t i = 0; i < count; ++i) {
        triples.push_back(pool[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(pool.size()) - 1))]);
      }
      std::string error;
      ASSERT_EQ(patch_engine.ValidateScore(triples, &error), Status::kOk)
          << error;

      const std::vector<double> patched_scores =
          patch_engine.ScoreBatch(ItemsFor(triples, /*request_seed=*/123));
      const std::vector<double> invalidated_scores =
          invalidate_engine.ScoreBatch(
              ItemsFor(triples, /*request_seed=*/123));

      // Differential gate: bit-identical scores and identical %.17g step
      // records, at every step of the schedule.
      const size_t s = static_cast<size_t>(step);
      ASSERT_EQ(StepSummary(s, patched_scores),
                StepSummary(s, invalidated_scores))
          << "schedule " << schedule_seed << " step " << step;

      // Static oracle: the dynamic live graph must equal a graph built
      // statically over base + ingested prefix, so the offline predictor
      // on that graph is the ground truth for both engines.
      std::vector<Triple> all = dataset.original_graph().Triples();
      all.insert(all.end(), ingested.begin(), ingested.end());
      const KnowledgeGraph oracle =
          BuildGraph(base_entities + fresh_entities, num_relations, all);
      const std::vector<double> offline =
          predictor.ScoreTriples(oracle, triples);
      for (size_t i = 0; i < triples.size(); ++i) {
        ASSERT_EQ(patched_scores[i], offline[i])
            << "schedule " << schedule_seed << " step " << step
            << " triple " << i << " vs static oracle";
      }
    }
  }

  const EngineStats patch_stats = patch_engine.Stats();
  const EngineStats invalidate_stats = invalidate_engine.Stats();
  EXPECT_EQ(invalidate_stats.cache_patched, 0u);
  EXPECT_EQ(invalidate_stats.cache_repaired, 0u);
  EXPECT_EQ(invalidate_stats.cache_fallback, 0u);
  EXPECT_EQ(patch_stats.graph_triples, invalidate_stats.graph_triples);
  EXPECT_EQ(patch_stats.graph_entities, invalidate_stats.graph_entities);
  EXPECT_EQ(patch_stats.ingested_triples, invalidate_stats.ingested_triples);
  EXPECT_GT(patch_stats.cache_evictions, 0u) << "schedule " << schedule_seed;
  outcome->patched = patch_stats.cache_patched;
  outcome->repaired = patch_stats.cache_repaired;
  outcome->fallback = patch_stats.cache_fallback;
}

TEST(CachePatchDifferentialTest, RandomizedChurnSchedules) {
  ScheduleOutcome total;
  for (uint64_t schedule = 0; schedule < 4; ++schedule) {
    ScheduleOutcome outcome;
    RunChurnSchedule(schedule, /*num_steps=*/48,
                     /*ingest_probability=*/schedule % 2 == 0 ? 0.35 : 0.6,
                     &outcome);
    EXPECT_GT(outcome.score_steps, 0u) << "schedule " << schedule;
    EXPECT_GT(outcome.ingest_steps, 0u) << "schedule " << schedule;
    total.patched += outcome.patched;
    total.repaired += outcome.repaired;
    total.fallback += outcome.fallback;
  }
  // The sweep must exercise all three maintenance outcomes — otherwise
  // the differential gate proved nothing about the patch path.
  EXPECT_GT(total.patched + total.repaired, 0u);
  EXPECT_GT(total.fallback, 0u);
}

TEST(CachePatchDifferentialTest, HighChurnEveryOtherStepIngests) {
  // Dense churn: roughly every other step ingests, so warm entries see
  // maintenance repeatedly between lookups.
  ScheduleOutcome outcome;
  RunChurnSchedule(/*schedule_seed=*/17, /*num_steps=*/40,
                   /*ingest_probability=*/0.5, &outcome);
  EXPECT_GT(outcome.ingest_steps, 0u);
  EXPECT_GT(outcome.score_steps, 0u);
  EXPECT_GT(outcome.patched + outcome.repaired + outcome.fallback, 0u);
}

}  // namespace
}  // namespace dekg::serve
