// Property tests for the ingest-patch substrate (DESIGN.md §13):
// RelaxDistancesAfterEdgeInsert + BuildSubgraphFromLabels against the
// ground truth of fresh extraction, over random graphs × random edge
// insertion batches.
//
// Two properties are non-negotiable:
//  * Exactness — when relaxation claims "patchable" (both fields return
//    true), the patched labels equal the fresh blocked-BFS fields
//    restricted to the touched set, and the rebuilt subgraph is
//    bit-identical to a fresh extraction. The membership-change predicate
//    never falsely claims patchable.
//  * Completeness — when the touched union set is unchanged, relaxation
//    must succeed (fallback only fires on real membership changes).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "graph/subgraph.h"

namespace dekg {
namespace {

struct RandomCase {
  KnowledgeGraph graph;  // built over the base edges, then the new edges
  std::vector<Triple> new_edges;
  EntityId head = 0;
  EntityId tail = 0;
};

// A random sparse base graph with a random target pair, plus a random
// batch of appended edges. Entity ids stay in range (emerging entities
// are a serve-layer concern; here the id space is fixed) but isolated
// entities and duplicate edges arise naturally from the sampling.
RandomCase MakeCase(uint64_t seed, int32_t num_entities, int32_t num_edges,
                    int32_t num_new) {
  Rng rng(seed);
  const int32_t num_relations = 4;
  RandomCase c{KnowledgeGraph(num_entities, num_relations), {}, 0, 0};
  std::vector<Triple> triples;
  for (int32_t i = 0; i < num_edges; ++i) {
    triples.push_back(
        Triple{static_cast<EntityId>(rng.UniformInt(0, num_entities - 1)),
               static_cast<RelationId>(rng.UniformInt(0, num_relations - 1)),
               static_cast<EntityId>(rng.UniformInt(0, num_entities - 1))});
  }
  c.head = static_cast<EntityId>(rng.UniformInt(0, num_entities - 1));
  do {
    c.tail = static_cast<EntityId>(rng.UniformInt(0, num_entities - 1));
  } while (c.tail == c.head);
  for (int32_t i = 0; i < num_new; ++i) {
    const Triple t{static_cast<EntityId>(rng.UniformInt(0, num_entities - 1)),
                   static_cast<RelationId>(rng.UniformInt(0, num_relations - 1)),
                   static_cast<EntityId>(rng.UniformInt(0, num_entities - 1))};
    c.new_edges.push_back(t);
    triples.push_back(t);
  }
  c.graph = BuildGraph(num_entities, num_relations, triples);
  return c;
}

// `g` plus the appended triples, rebuilt statically (a built graph is
// immutable; appends are the serve writer's).
KnowledgeGraph WithTriples(const KnowledgeGraph& g,
                           const std::vector<Triple>& appended) {
  std::vector<Triple> triples = g.Triples();
  triples.insert(triples.end(), appended.begin(), appended.end());
  return BuildGraph(g.num_entities(), g.num_relations(), triples);
}

// The fresh blocked-BFS field restricted to `entities`.
std::vector<int8_t> FreshRestricted(const KnowledgeGraph& g, EntityId source,
                                    EntityId blocked, int32_t max_depth,
                                    const std::vector<EntityId>& entities) {
  const std::vector<int32_t> full = BfsDistances(g, source, blocked, max_depth);
  std::vector<int8_t> out;
  for (EntityId e : entities) {
    out.push_back(static_cast<int8_t>(full[static_cast<size_t>(e)]));
  }
  return out;
}

// Whether the fresh touched union set equals `entities` (distances only
// decrease under edge insertion, so the old set is always a subset; the
// sets differ iff some outside entity entered a t-hop ball).
bool SameUnionSet(const KnowledgeGraph& g, EntityId head, EntityId tail,
                  int32_t max_depth, const std::vector<EntityId>& entities) {
  const std::vector<int32_t> dh = BfsDistances(g, head, tail, max_depth);
  const std::vector<int32_t> dt = BfsDistances(g, tail, head, max_depth);
  std::vector<EntityId> fresh;
  for (int32_t e = 0; e < g.num_entities(); ++e) {
    if (dh[static_cast<size_t>(e)] >= 0 || dt[static_cast<size_t>(e)] >= 0) {
      fresh.push_back(e);
    }
  }
  return fresh == entities;
}

void ExpectSameSubgraph(const Subgraph& a, const Subgraph& b,
                        uint64_t seed) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "case " << seed;
  ASSERT_EQ(a.edges.size(), b.edges.size()) << "case " << seed;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].entity, b.nodes[i].entity) << "case " << seed;
    EXPECT_EQ(a.nodes[i].dist_head, b.nodes[i].dist_head) << "case " << seed;
    EXPECT_EQ(a.nodes[i].dist_tail, b.nodes[i].dist_tail) << "case " << seed;
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src) << "case " << seed;
    EXPECT_EQ(a.edges[i].rel, b.edges[i].rel) << "case " << seed;
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst) << "case " << seed;
  }
}

void RunRandomCases(const SubgraphConfig& config, int32_t num_entities,
                    int32_t num_edges, int32_t num_new, uint64_t seed_base,
                    int32_t cases, int32_t* patchable_seen,
                    int32_t* fallback_seen) {
  for (int32_t k = 0; k < cases; ++k) {
    const uint64_t seed = MixSeed(seed_base, static_cast<uint64_t>(k));
    RandomCase c = MakeCase(seed, num_entities, num_edges, num_new);

    // Labels as they stood before the new edges: rebuild the base graph
    // statically (cheaper than snapshotting; the edge batch is the same).
    KnowledgeGraph base(num_entities, c.graph.num_relations());
    {
      std::vector<Triple> triples = c.graph.Triples();
      triples.resize(triples.size() - c.new_edges.size());
      for (const Triple& t : triples) base.AddTriple(t);
      base.Build();
    }
    SubgraphWorkspace workspace;
    ExtractSubgraph(base, c.head, c.tail, /*target_rel=*/0, config,
                    &workspace);
    TouchedLabels labels = TouchedEntityLabels(workspace);

    bool head_changed = false;
    bool tail_changed = false;
    const bool ok_head = RelaxDistancesAfterEdgeInsert(
        c.graph, c.head, c.tail, config.num_hops, c.new_edges,
        labels.entities, &labels.dist_head, &head_changed);
    const bool ok_tail =
        ok_head && RelaxDistancesAfterEdgeInsert(
                       c.graph, c.tail, c.head, config.num_hops, c.new_edges,
                       labels.entities, &labels.dist_tail, &tail_changed);
    const bool claimed = ok_head && ok_tail;
    const bool actual =
        SameUnionSet(c.graph, c.head, c.tail, config.num_hops,
                     labels.entities);
    // Exactness AND completeness of the membership predicate. (When
    // ok_head already failed, the union set grew, so `actual` is false
    // and the short-circuited ok_tail cannot disagree.)
    ASSERT_EQ(claimed, actual) << "case " << seed;

    if (!claimed) {
      ++*fallback_seen;
      continue;
    }
    ++*patchable_seen;
    // Patched fields == fresh fields restricted to the touched set.
    EXPECT_EQ(labels.dist_head,
              FreshRestricted(c.graph, c.head, c.tail, config.num_hops,
                              labels.entities))
        << "case " << seed;
    EXPECT_EQ(labels.dist_tail,
              FreshRestricted(c.graph, c.tail, c.head, config.num_hops,
                              labels.entities))
        << "case " << seed;
    // The changed flags must be exact, not merely conservative: the
    // differential engine counts patched vs repaired from them.
    TouchedLabels before = TouchedEntityLabels(workspace);
    EXPECT_EQ(head_changed, labels.dist_head != before.dist_head)
        << "case " << seed;
    EXPECT_EQ(tail_changed, labels.dist_tail != before.dist_tail)
        << "case " << seed;
    // Rebuild-from-labels == fresh extraction, node for node, edge for
    // edge — the bit-identity the serving cache patch relies on.
    const Subgraph rebuilt = BuildSubgraphFromLabels(
        c.graph, c.head, c.tail, /*target_rel=*/0, config, labels);
    const Subgraph fresh =
        ExtractSubgraph(c.graph, c.head, c.tail, /*target_rel=*/0, config);
    ExpectSameSubgraph(rebuilt, fresh, seed);
  }
}

TEST(SubgraphPatchPropertyTest, ImprovedLabelingRandomInsertions) {
  SubgraphConfig config;  // kImproved, 2 hops, max_nodes 256
  int32_t patchable = 0, fallback = 0;
  RunRandomCases(config, /*num_entities=*/40, /*num_edges=*/70,
                 /*num_new=*/3, /*seed_base=*/11, /*cases=*/120, &patchable,
                 &fallback);
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(patchable, 0);
  EXPECT_GT(fallback, 0);
}

TEST(SubgraphPatchPropertyTest, GrailLabelingRandomInsertions) {
  SubgraphConfig config;
  config.labeling = NodeLabeling::kGrail;
  int32_t patchable = 0, fallback = 0;
  RunRandomCases(config, /*num_entities=*/40, /*num_edges=*/70,
                 /*num_new=*/3, /*seed_base=*/13, /*cases=*/120, &patchable,
                 &fallback);
  EXPECT_GT(patchable, 0);
  EXPECT_GT(fallback, 0);
}

TEST(SubgraphPatchPropertyTest, ThreeHopsWithBindingNodeCap) {
  // Deeper neighborhoods on a denser graph with a small max_nodes: the
  // cap binds, so rebuild must reproduce the exact same kept prefix.
  SubgraphConfig config;
  config.num_hops = 3;
  config.max_nodes = 12;
  int32_t patchable = 0, fallback = 0;
  RunRandomCases(config, /*num_entities=*/30, /*num_edges=*/90,
                 /*num_new=*/4, /*seed_base=*/17, /*cases=*/80, &patchable,
                 &fallback);
  EXPECT_GT(patchable, 0);
  EXPECT_GT(fallback, 0);
}

TEST(SubgraphPatchPropertyTest, DuplicateEdgesNeverChangeLabels) {
  // Re-ingesting edges already present cannot move any distance: the
  // relaxation must succeed with changed == false, and the rebuilt
  // subgraph must reflect the raised edge multiplicity.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomCase c = MakeCase(MixSeed(29, seed), /*num_entities=*/25,
                            /*num_edges=*/50, /*num_new=*/0);
    SubgraphConfig config;
    SubgraphWorkspace workspace;
    ExtractSubgraph(c.graph, c.head, c.tail, /*target_rel=*/0, config,
                    &workspace);
    TouchedLabels labels = TouchedEntityLabels(workspace);

    // Duplicate three existing edges.
    Rng rng(MixSeed(31, seed));
    std::vector<Triple> dup_batch;
    const std::vector<Triple> existing = c.graph.Triples();
    for (int32_t i = 0; i < 3; ++i) {
      const Triple t = existing[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(existing.size()) - 1))];
      dup_batch.push_back(t);
    }
    c.graph = WithTriples(c.graph, dup_batch);

    bool head_changed = false;
    bool tail_changed = false;
    ASSERT_TRUE(RelaxDistancesAfterEdgeInsert(
        c.graph, c.head, c.tail, config.num_hops, dup_batch, labels.entities,
        &labels.dist_head, &head_changed))
        << "seed " << seed;
    ASSERT_TRUE(RelaxDistancesAfterEdgeInsert(
        c.graph, c.tail, c.head, config.num_hops, dup_batch, labels.entities,
        &labels.dist_tail, &tail_changed))
        << "seed " << seed;
    EXPECT_FALSE(head_changed) << "seed " << seed;
    EXPECT_FALSE(tail_changed) << "seed " << seed;
    const Subgraph rebuilt = BuildSubgraphFromLabels(
        c.graph, c.head, c.tail, /*target_rel=*/0, config, labels);
    const Subgraph fresh =
        ExtractSubgraph(c.graph, c.head, c.tail, /*target_rel=*/0, config);
    ExpectSameSubgraph(rebuilt, fresh, seed);
  }
}

TEST(SubgraphPatchPropertyTest, BoundaryCrossingEdgeForcesFallback) {
  // A path graph 0-1-2-...-7 with target (0, 2): with t = 2 the touched
  // union is {0,1,2,3,4}. An edge 4-5 pulls 5 into the tail ball —
  // membership change, so relaxation must refuse. An edge 1-3 only
  // shortens in-set distances — it must patch.
  KnowledgeGraph g(8, 1);
  for (EntityId e = 0; e + 1 < 8; ++e) g.AddTriple(Triple{e, 0, e + 1});
  g.Build();

  SubgraphConfig config;
  SubgraphWorkspace workspace;
  ExtractSubgraph(g, 0, 2, /*target_rel=*/0, config, &workspace);
  const TouchedLabels labels = TouchedEntityLabels(workspace);
  ASSERT_EQ(labels.entities, (std::vector<EntityId>{0, 1, 2, 3, 4}));

  // In-set shortcut: patchable, and the head field actually improves
  // (d(0,3) drops from 3 via 0-1, 1-3... with tail 2 blocked).
  {
    const Triple t{1, 0, 3};
    const KnowledgeGraph shortcut = WithTriples(g, {t});
    TouchedLabels patched = labels;
    bool head_changed = false;
    bool tail_changed = false;
    EXPECT_TRUE(RelaxDistancesAfterEdgeInsert(shortcut, 0, 2, config.num_hops,
                                              {t}, patched.entities,
                                              &patched.dist_head,
                                              &head_changed));
    EXPECT_TRUE(RelaxDistancesAfterEdgeInsert(shortcut, 2, 0, config.num_hops,
                                              {t}, patched.entities,
                                              &patched.dist_tail,
                                              &tail_changed));
    EXPECT_TRUE(head_changed) << "d(0,3) avoiding 2 drops 3 -> 2";
    ExpectSameSubgraph(
        BuildSubgraphFromLabels(shortcut, 0, 2, 0, config, patched),
        ExtractSubgraph(shortcut, 0, 2, 0, config), /*seed=*/0);
  }

  // Edge at the ball boundary: 4 sits at tail distance exactly t, so a
  // new neighbor 5 would land at t + 1 — still outside. Patchable, and
  // no label moves (the predicate must not be merely conservative).
  {
    const Triple t{4, 0, 5};
    const KnowledgeGraph boundary = WithTriples(g, {t});
    TouchedLabels patched = labels;
    bool head_changed = false;
    bool tail_changed = false;
    EXPECT_TRUE(RelaxDistancesAfterEdgeInsert(boundary, 0, 2, config.num_hops,
                                              {t}, patched.entities,
                                              &patched.dist_head,
                                              &head_changed));
    EXPECT_TRUE(RelaxDistancesAfterEdgeInsert(boundary, 2, 0, config.num_hops,
                                              {t}, patched.entities,
                                              &patched.dist_tail,
                                              &tail_changed));
    EXPECT_FALSE(head_changed);
    EXPECT_FALSE(tail_changed);
  }

  // Boundary-crossing edge: 3 sits at tail distance 1, so 5 enters the
  // tail ball at distance 2 — membership change, the tail field must
  // refuse (the head field never reaches 3 and legitimately succeeds).
  {
    const Triple t{3, 0, 5};
    g = WithTriples(g, {t});
    TouchedLabels patched = labels;
    bool changed = false;
    EXPECT_TRUE(RelaxDistancesAfterEdgeInsert(g, 0, 2, config.num_hops, {t},
                                              patched.entities,
                                              &patched.dist_head, &changed));
    EXPECT_FALSE(RelaxDistancesAfterEdgeInsert(g, 2, 0, config.num_hops, {t},
                                               patched.entities,
                                               &patched.dist_tail, &changed));
  }
}

}  // namespace
}  // namespace dekg
