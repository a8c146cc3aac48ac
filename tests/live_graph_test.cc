// Live-graph ingestion and engine invalidation tests (DESIGN.md §9).
//
// The load-bearing property is the ordering invariant: building a prefix
// statically and appending the rest dynamically must produce adjacency
// identical to building everything statically — same edge ids, same
// per-node order — because subgraph extraction (and therefore every
// online score) reads that order. On top of it sit the ISSUE's ingestion
// edge cases: atomic rejection of unknown relations and out-of-range
// entities, duplicate accounting, isolated (zero-incident-relation)
// entities scoring without a division by zero, and cache invalidation
// that leaves post-ingest scores bit-identical to a fresh engine built
// on the equivalent static graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "graph/subgraph.h"
#include "serve/engine.h"
#include "serve/live_graph.h"
#include "serve/router.h"

namespace dekg::serve {
namespace {

DekgDataset SyntheticDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("live", schema, split, /*seed=*/21);
}

void ExpectSameAdjacency(const KnowledgeGraph& a, const KnowledgeGraph& b,
                         EntityId node) {
  std::span<const int32_t> ea = a.IncidentEdges(node);
  std::span<const int32_t> eb = b.IncidentEdges(node);
  ASSERT_EQ(ea.size(), eb.size()) << "entity " << node;
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i], eb[i]) << "entity " << node << " slot " << i;
  }
}

TEST(LiveGraphTest, DynamicIngestConvergesToStaticBuild) {
  DekgDataset dataset = SyntheticDataset();
  ASSERT_FALSE(dataset.emerging_triples().empty());

  // Offline reference: train + emerging built statically.
  const KnowledgeGraph& offline = dataset.inference_graph();

  // Online: start from the train-only graph, ingest emerging in file
  // order — exactly what the serve tool does.
  LiveGraph live(dataset.original_graph(), LiveGraphConfig{});
  IngestReport report;
  std::string error;
  ASSERT_EQ(live.Ingest(dataset.emerging_triples(), &report, &error),
            Status::kOk)
      << error;
  EXPECT_EQ(report.accepted, dataset.emerging_triples().size());
  EXPECT_EQ(live.ingested_triples(), dataset.emerging_triples().size());

  const KnowledgeGraph& online = live.graph();
  ASSERT_EQ(online.num_entities(), offline.num_entities());
  ASSERT_EQ(online.num_triples(), offline.num_triples());
  for (EntityId e = 0; e < offline.num_entities(); ++e) {
    ExpectSameAdjacency(offline, online, e);
    EXPECT_EQ(offline.RelationComponentTable(e),
              online.RelationComponentTable(e))
        << "entity " << e;
  }

  // Same edge ids in the same order means extraction is bit-identical.
  SubgraphConfig config;
  int checked = 0;
  for (const LabeledLink& link : dataset.test_links()) {
    const Triple& t = link.triple;
    Subgraph a = ExtractSubgraph(offline, t.head, t.tail, t.rel, config);
    Subgraph b = ExtractSubgraph(online, t.head, t.tail, t.rel, config);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].entity, b.nodes[i].entity);
      EXPECT_EQ(a.nodes[i].dist_head, b.nodes[i].dist_head);
      EXPECT_EQ(a.nodes[i].dist_tail, b.nodes[i].dist_tail);
    }
    for (size_t i = 0; i < a.edges.size(); ++i) {
      EXPECT_EQ(a.edges[i].src, b.edges[i].src);
      EXPECT_EQ(a.edges[i].rel, b.edges[i].rel);
      EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    }
    if (++checked >= 10) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(LiveGraphTest, IngestGrowsEntitySpaceOnDemand) {
  // Base graph over 4 entities; ingest introduces ids 7 and 9.
  KnowledgeGraph base = BuildGraph(4, 3, {{0, 0, 1}, {1, 1, 2}, {2, 2, 3}});
  LiveGraph live(base, LiveGraphConfig{});

  IngestReport report;
  std::string error;
  ASSERT_EQ(live.Ingest({{3, 0, 7}, {7, 1, 9}}, &report, &error), Status::kOk)
      << error;
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.new_entities, 6u);  // space grew 4 -> 10
  EXPECT_EQ(live.graph().num_entities(), 10);
  // Touched = endpoints of accepted triples, deduped and ascending.
  EXPECT_EQ(report.touched_entities, (std::vector<EntityId>{3, 7, 9}));
  // Id 8 exists now but is isolated: legal, empty adjacency.
  EXPECT_EQ(live.graph().Degree(8), 0);
  EXPECT_EQ(live.graph().RelationComponentTable(8),
            (std::vector<int32_t>{0, 0, 0}));
}

TEST(LiveGraphTest, UnknownRelationRejectsWholeBatchAtomically) {
  KnowledgeGraph base = BuildGraph(4, 3, {{0, 0, 1}});
  LiveGraph live(base, LiveGraphConfig{});
  const int64_t before = live.graph().num_triples();

  // First triple is valid; the second's relation id is out of vocabulary.
  IngestReport report;
  std::string error;
  EXPECT_EQ(live.Ingest({{1, 1, 2}, {2, 3, 3}}, &report, &error),
            Status::kUnknownRelation);
  EXPECT_NE(error.find("relation"), std::string::npos);
  // Nothing was applied — not even the valid leading triple.
  EXPECT_EQ(live.graph().num_triples(), before);
  EXPECT_FALSE(live.graph().Contains({1, 1, 2}));
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_TRUE(report.touched_entities.empty());
}

TEST(LiveGraphTest, BadEntityIdsRejectedCleanly) {
  KnowledgeGraph base = BuildGraph(4, 3, {{0, 0, 1}});
  LiveGraphConfig config;
  config.max_entities = 100;
  LiveGraph live(base, config);

  IngestReport report;
  std::string error;
  EXPECT_EQ(live.Ingest({{-1, 0, 2}}, &report, &error), Status::kBadEntity);
  EXPECT_EQ(live.Ingest({{0, 0, 100}}, &report, &error), Status::kBadEntity);
  EXPECT_EQ(live.graph().num_triples(), 1);
  EXPECT_EQ(live.graph().num_entities(), 4);

  // Scoring-side validation mirrors the same rules against the *current*
  // space: a never-grown id cannot be scored, a known one can.
  EXPECT_EQ(live.ValidateForScoring({{0, 0, 50}}, &error), Status::kBadEntity);
  EXPECT_EQ(live.ValidateForScoring({{0, 9, 1}}, &error),
            Status::kUnknownRelation);
  EXPECT_EQ(live.ValidateForScoring({}, &error), Status::kBadRequest);
  EXPECT_EQ(live.ValidateForScoring({{0, 0, 1}}, &error), Status::kOk);
}

TEST(LiveGraphTest, DuplicateTriplesAreCountedAndKept) {
  KnowledgeGraph base = BuildGraph(4, 3, {{0, 0, 1}});
  LiveGraph live(base, LiveGraphConfig{});

  // One already-present triple, one new triple sent twice: 3 accepted, 2
  // duplicates. Multiplicity is kept — it feeds the CLRM tables.
  IngestReport report;
  std::string error;
  ASSERT_EQ(live.Ingest({{0, 0, 1}, {1, 1, 2}, {1, 1, 2}}, &report, &error),
            Status::kOk)
      << error;
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.duplicates, 2u);
  EXPECT_EQ(live.graph().num_triples(), 4);
  EXPECT_EQ(live.graph().RelationComponentTable(0),
            (std::vector<int32_t>{2, 0, 0}));
  EXPECT_EQ(live.graph().RelationComponentTable(1),
            (std::vector<int32_t>{2, 2, 0}));
}

// ----- Engine-level tests: embeddings, isolated entities, invalidation -----

core::DekgIlpConfig SmallModelConfig(int32_t num_relations) {
  core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 8;
  return config;
}

// A one-shard router: the single-engine server.
RouterConfig OneShard(const EngineConfig& engine) {
  RouterConfig config;
  config.engine = engine;
  return config;
}

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples) {
  // Item seeds as the batcher derives them for request seed 123.
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(123, i)});
  }
  return items;
}

TEST(LiveGraphTest, IsolatedEntityScoresWithoutDivisionByZero) {
  KnowledgeGraph base = BuildGraph(4, 3, {{0, 0, 1}, {1, 1, 2}, {2, 2, 3}});
  core::DekgIlpModel model(SmallModelConfig(3), /*seed=*/7);
  Router engine(&model, base, RouterConfig{});

  // Grow the space past id 6 without giving 5 any incident triple.
  IngestResponse response;
  engine.Ingest({{3, 0, 6}}, &response);
  ASSERT_EQ(response.status, Status::kOk) << response.error;

  // Entity 5 exists, has zero incident relations — its CLRM fusion is the
  // all-zero embedding (MeanNonzero = 0 must not be divided by), and the
  // GSM side sees two disconnected endpoints. The score must be finite.
  std::string error;
  ASSERT_EQ(engine.ValidateScore({{5, 1, 0}}, &error), Status::kOk) << error;
  std::vector<double> scores = engine.ScoreBatch(ItemsFor({{5, 1, 0}}));
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_TRUE(std::isfinite(scores[0])) << scores[0];

  const Tensor& emb = engine.EntityEmbedding(5);
  ASSERT_EQ(emb.numel(), 8);
  for (int64_t d = 0; d < emb.numel(); ++d) {
    EXPECT_EQ(emb.Data()[d], 0.0f) << "dim " << d;
  }
}

TEST(LiveGraphTest, IngestRefreshesExactlyTheTouchedEmbeddings) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/7);
  Router engine(&model, dataset.original_graph(), RouterConfig{});

  IngestResponse response;
  engine.Ingest(dataset.emerging_triples(), &response);
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  EXPECT_EQ(response.accepted, dataset.emerging_triples().size());

  // Every row must now equal a fresh fusion of the current table — the
  // refresh touched everything it needed to.
  const KnowledgeGraph& graph = engine.graph();
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    Tensor fresh = model.clrm()->EmbedEntity(graph.RelationComponentTable(e))
                       .value();
    const Tensor& cached = engine.EntityEmbedding(e);
    ASSERT_EQ(cached.numel(), fresh.numel()) << "entity " << e;
    for (int64_t d = 0; d < fresh.numel(); ++d) {
      EXPECT_EQ(cached.Data()[d], fresh.Data()[d])
          << "entity " << e << " dim " << d;
    }
  }
  EXPECT_GT(engine.Stats().embedding_refreshes, 0u);
}

TEST(LiveGraphTest, InvalidationLeavesScoresEqualToFreshEngine) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/7);

  std::vector<Triple> targets;
  for (const LabeledLink& link : dataset.test_links()) {
    targets.push_back(link.triple);
    if (targets.size() >= 16) break;
  }
  ASSERT_GE(targets.size(), 4u);

  // Warm engine: starts on the train graph, caches stale extractions by
  // scoring before the ingest, then ingests the emerging triples.
  Router warm(&model, dataset.original_graph(), RouterConfig{});
  (void)warm.ScoreBatch(ItemsFor(targets));  // populate cache pre-ingest
  IngestResponse response;
  warm.Ingest(dataset.emerging_triples(), &response);
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  std::vector<double> after_ingest = warm.ScoreBatch(ItemsFor(targets));

  // Fresh engine: built directly on the equivalent static graph, empty
  // cache. If invalidation missed any stale entry the warm scores would
  // diverge from these.
  Router fresh(&model, dataset.inference_graph(), RouterConfig{});
  std::vector<double> reference = fresh.ScoreBatch(ItemsFor(targets));

  ASSERT_EQ(after_ingest.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(after_ingest[i], reference[i]) << "triple " << i;
  }
}

TEST(LiveGraphTest, CacheCapacityIsEnforcedFifoWithIndexCleanup) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/7);
  EngineConfig config;
  config.cache_capacity = 4;
  Router engine(&model, dataset.inference_graph(), OneShard(config));

  std::vector<Triple> targets;
  for (const LabeledLink& link : dataset.test_links()) {
    targets.push_back(link.triple);
    if (targets.size() >= 12) break;
  }
  ASSERT_GE(targets.size(), 8u);

  (void)engine.ScoreBatch(ItemsFor(targets));
  EngineStats stats = engine.Stats();
  EXPECT_LE(stats.cache_entries, 4u);
  EXPECT_EQ(stats.cache_evictions, targets.size() - 4);

  // Re-scoring the most recent 4 hits; everything older was evicted.
  std::vector<Triple> recent(targets.end() - 4, targets.end());
  std::vector<double> again = engine.ScoreBatch(ItemsFor(recent));
  EXPECT_EQ(again.size(), 4u);
  EXPECT_EQ(engine.Stats().cache_hits, 4u);
}

}  // namespace
}  // namespace dekg::serve
