// Differential churn test of the serve cache's invalidate-on-ingest
// maintenance (DESIGN.md §13). A one-shard Router steps seeded randomized
// ingest/score schedules, and at EVERY score step its scores must equal,
// bit for bit, the offline predictor run against a statically built
// oracle graph over the same triple multiset (valid by the
// dynamic-append ordering invariant on KnowledgeGraph). So whatever the
// cache kept across an ingest must be exactly what a fresh extraction
// would return.
//
// Schedules are seeded and cover the hostile shapes: duplicate edge
// re-ingestion, isolated emerging entities entering (and later joining)
// the graph, ingest batches whose edges straddle the t-hop boundary of
// warm cached subgraphs, and interleavings that score between every
// ingest so the cache is always warm when maintenance runs. The oracle
// cannot see an engine that drops more entries than it must — scores stay
// exact, only hits are lost — so each schedule's final cache counters are
// pinned too.
#include <gtest/gtest.h>

#include <algorithm>
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

struct ScheduleOutcome {
  EngineStats stats;
  uint64_t score_steps = 0;
  uint64_t ingest_steps = 0;
  uint64_t invalidated = 0;  // summed over the ingest responses
};

// A schedule's final cache counters under invalidate-on-ingest. A change
// to any of them means the engine keeps or drops a different set of
// entries, which the oracle alone would not notice.
struct PinnedStats {
  uint64_t hits;
  uint64_t misses;
  uint64_t entries;
  uint64_t evictions;
  uint64_t invalidated;
  uint64_t bytes;
};

// A one-shard router: the single-engine server.
RouterConfig OneShard(const EngineConfig& engine) {
  RouterConfig config;
  config.engine = engine;
  return config;
}

// Steps one seeded churn schedule through the engine, gating bitwise
// identity with the static-graph oracle at every score step.
void RunChurnSchedule(uint64_t schedule_seed, int32_t num_steps,
                      double ingest_probability, ScheduleOutcome* outcome) {
  DekgDataset dataset = ChurnDataset(MixSeed(97, schedule_seed));
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  core::DekgIlpPredictor predictor(&model);

  EngineConfig engine_config;
  // Small enough that every schedule evicts, so slot reuse in the
  // touched-entity index interleaves with ingest maintenance.
  engine_config.cache_capacity = 8;
  Router engine(&model, dataset.original_graph(), OneShard(engine_config));

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

      IngestResponse response;
      engine.Ingest(batch, &response);
      ASSERT_EQ(response.status, Status::kOk)
          << response.error << " schedule " << schedule_seed;
      // Kept on the wire until protocol v5, never set.
      EXPECT_EQ(response.patched + response.repaired, 0u);
      outcome->invalidated += response.invalidated;
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
      ASSERT_EQ(engine.ValidateScore(triples, &error), Status::kOk) << error;
      const std::vector<double> scores =
          engine.ScoreBatch(ItemsFor(triples, /*request_seed=*/123));

      // Static oracle: the dynamic live graph must equal a graph built
      // statically over base + ingested prefix, so the offline predictor
      // on that graph is the ground truth.
      std::vector<Triple> all = dataset.original_graph().Triples();
      all.insert(all.end(), ingested.begin(), ingested.end());
      const KnowledgeGraph oracle =
          BuildGraph(base_entities + fresh_entities, num_relations, all);
      const std::vector<double> offline =
          predictor.ScoreTriples(oracle, triples);
      for (size_t i = 0; i < triples.size(); ++i) {
        ASSERT_EQ(scores[i], offline[i])
            << "schedule " << schedule_seed << " step " << step
            << " triple " << i << " vs static oracle";
      }
    }
  }

  outcome->stats = engine.Stats();
  EXPECT_EQ(outcome->stats.cache_invalidated, outcome->invalidated)
      << "schedule " << schedule_seed;
}

void ExpectPinned(uint64_t schedule, const EngineStats& got,
                  const PinnedStats& want) {
  EXPECT_EQ(got.cache_hits, want.hits) << "schedule " << schedule;
  EXPECT_EQ(got.cache_misses, want.misses) << "schedule " << schedule;
  EXPECT_EQ(got.cache_entries, want.entries) << "schedule " << schedule;
  EXPECT_EQ(got.cache_evictions, want.evictions) << "schedule " << schedule;
  EXPECT_EQ(got.cache_invalidated, want.invalidated)
      << "schedule " << schedule;
  EXPECT_EQ(got.cache_bytes, want.bytes) << "schedule " << schedule;
}

TEST(CachePatchDifferentialTest, RandomizedChurnSchedules) {
  // Every schedule evicts and invalidates, so both kinds of removal
  // interleave with slot reuse.
  const PinnedStats pinned[] = {{9, 90, 1, 25, 56, 24},
                                {2, 72, 2, 13, 54, 120},
                                {23, 87, 1, 56, 28, 3396},
                                {5, 67, 3, 7, 51, 2532}};
  for (uint64_t schedule = 0; schedule < 4; ++schedule) {
    ScheduleOutcome outcome;
    ASSERT_NO_FATAL_FAILURE(RunChurnSchedule(
        schedule, /*num_steps=*/48,
        /*ingest_probability=*/schedule % 2 == 0 ? 0.35 : 0.6, &outcome));
    EXPECT_GT(outcome.score_steps, 0u) << "schedule " << schedule;
    EXPECT_GT(outcome.ingest_steps, 0u) << "schedule " << schedule;
    ExpectPinned(schedule, outcome.stats, pinned[schedule]);
  }
}

TEST(CachePatchDifferentialTest, HighChurnEveryOtherStepIngests) {
  // Dense churn: roughly every other step ingests, so warm entries see
  // maintenance repeatedly between lookups.
  ScheduleOutcome outcome;
  ASSERT_NO_FATAL_FAILURE(RunChurnSchedule(/*schedule_seed=*/17,
                                           /*num_steps=*/40,
                                           /*ingest_probability=*/0.5,
                                           &outcome));
  EXPECT_GT(outcome.ingest_steps, 0u);
  EXPECT_GT(outcome.score_steps, 0u);
  ExpectPinned(17, outcome.stats, {3, 43, 0, 6, 36, 0});
}

}  // namespace
}  // namespace dekg::serve
