// Differential and lifecycle coverage for the output-sensitive extraction
// path (DESIGN.md §16): the stamped sparse BFS + touched-union candidate
// generation + stamped assembly must be bit-identical to the retained
// dense reference (ExtractSubgraphDense) on every input — across graph
// shapes, labeling policies, node caps, and hop counts, including
// disconnected emerging components joined only by bridging links — and
// the stamped workspace must survive reuse across graphs of different
// sizes, stamp-counter wrap, and concurrent per-thread use (the TSAN
// lane runs this binary).
#include <climits>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/subgraph.h"
#include "kg/knowledge_graph.h"

namespace dekg {
namespace {

bool SameSubgraph(const Subgraph& a, const Subgraph& b) {
  if (a.nodes.size() != b.nodes.size() || a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].entity != b.nodes[i].entity ||
        a.nodes[i].dist_head != b.nodes[i].dist_head ||
        a.nodes[i].dist_tail != b.nodes[i].dist_tail) {
      return false;
    }
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].src != b.edges[i].src || a.edges[i].rel != b.edges[i].rel ||
        a.edges[i].dst != b.edges[i].dst) {
      return false;
    }
  }
  return true;
}

::testing::AssertionResult SubgraphsEqual(const Subgraph& sparse,
                                          const Subgraph& dense) {
  if (SameSubgraph(sparse, dense)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "sparse (" << sparse.nodes.size() << "n/" << sparse.edges.size()
         << "e) != dense (" << dense.nodes.size() << "n/"
         << dense.edges.size() << "e)";
}

// Random graph over [0, entities); with two_components, edges stay inside
// {[0, cut) , [cut, entities)} except `bridges` cut-crossing links — the
// paper's disconnected-emerging-KG shape, where only bridging links
// connect G and G'.
KnowledgeGraph RandomGraph(int32_t entities, int32_t relations,
                           int32_t edges, Rng* rng,
                           bool two_components = false, int32_t bridges = 0) {
  KnowledgeGraph g(entities, relations);
  const int32_t cut = entities / 2;
  for (int32_t i = 0; i < edges; ++i) {
    Triple t;
    if (two_components) {
      const bool left = rng->Bernoulli(0.5);
      const int32_t lo = left ? 0 : cut;
      const int32_t hi = left ? cut : entities;
      t.head = static_cast<EntityId>(
          rng->UniformInt(lo, hi - 1));
      t.tail = static_cast<EntityId>(
          rng->UniformInt(lo, hi - 1));
    } else {
      t.head = static_cast<EntityId>(
          rng->UniformUint64(static_cast<uint64_t>(entities)));
      t.tail = static_cast<EntityId>(
          rng->UniformUint64(static_cast<uint64_t>(entities)));
    }
    t.rel = static_cast<RelationId>(
        rng->UniformUint64(static_cast<uint64_t>(relations)));
    if (t.head == t.tail) continue;
    g.AddTriple(t);
  }
  for (int32_t i = 0; i < bridges; ++i) {
    Triple t;
    t.head = static_cast<EntityId>(rng->UniformInt(0, cut - 1));
    t.tail = static_cast<EntityId>(rng->UniformInt(cut, entities - 1));
    t.rel = static_cast<RelationId>(
        rng->UniformUint64(static_cast<uint64_t>(relations)));
    g.AddTriple(t);
  }
  g.Build();
  return g;
}

std::vector<Triple> RandomTargets(const KnowledgeGraph& g, int count,
                                  Rng* rng) {
  std::vector<Triple> targets;
  for (int i = 0; i < count; ++i) {
    Triple t;
    t.head = static_cast<EntityId>(
        rng->UniformUint64(static_cast<uint64_t>(g.num_entities())));
    t.tail = t.head;
    while (t.tail == t.head) {
      t.tail = static_cast<EntityId>(
          rng->UniformUint64(static_cast<uint64_t>(g.num_entities())));
    }
    t.rel = static_cast<RelationId>(
        rng->UniformUint64(static_cast<uint64_t>(g.num_relations())));
    targets.push_back(t);
  }
  return targets;
}

TEST(SubgraphSparseProperty, MatchesDenseAcrossShapesPoliciesCapsHops) {
  Rng rng(991);
  SubgraphWorkspace workspace;
  struct Shape {
    int32_t entities, relations, edges;
    bool two_components;
    int32_t bridges;
  };
  const Shape shapes[] = {
      {30, 3, 25, false, 0},     // sparse, mostly disconnected
      {60, 5, 240, false, 0},    // dense
      {80, 4, 160, true, 0},     // two components, no bridge
      {80, 4, 160, true, 3},     // disconnected emerging KG + bridging links
      {8, 2, 30, false, 0},      // tiny multigraph
  };
  const int32_t caps[] = {0, 1, 2, 3, 8, 256};
  for (const Shape& shape : shapes) {
    KnowledgeGraph g = RandomGraph(shape.entities, shape.relations,
                                   shape.edges, &rng, shape.two_components,
                                   shape.bridges);
    const std::vector<Triple> targets = RandomTargets(g, 8, &rng);
    for (const Triple& t : targets) {
      for (int hops = 1; hops <= 3; ++hops) {
        for (const bool improved : {true, false}) {
          for (const int32_t cap : caps) {
            SubgraphConfig config;
            config.num_hops = hops;
            config.labeling =
                improved ? NodeLabeling::kImproved : NodeLabeling::kGrail;
            config.max_nodes = cap;
            const Subgraph sparse = ExtractSubgraph(g, t.head, t.tail, t.rel,
                                                    config, &workspace);
            const Subgraph dense =
                ExtractSubgraphDense(g, t.head, t.tail, t.rel, config);
            ASSERT_TRUE(SubgraphsEqual(sparse, dense))
                << "entities=" << shape.entities << " hops=" << hops
                << " improved=" << improved << " cap=" << cap;
          }
        }
      }
    }
  }
}

TEST(SubgraphSparseProperty, DegenerateCapsKeepExactlyTheEndpoints) {
  Rng rng(1203);
  KnowledgeGraph g = RandomGraph(40, 3, 120, &rng);
  SubgraphWorkspace workspace;
  for (const int32_t cap : {1, 2}) {
    SubgraphConfig config;
    config.max_nodes = cap;
    const Subgraph sub = ExtractSubgraph(g, 0, 1, 0, config, &workspace);
    // Pre-fix, cap 1 underflowed `max_nodes - 2` and kept every candidate.
    ASSERT_EQ(sub.nodes.size(), 2u);
    EXPECT_EQ(sub.nodes[0].entity, 0);
    EXPECT_EQ(sub.nodes[1].entity, 1);
    EXPECT_TRUE(
        SubgraphsEqual(sub, ExtractSubgraphDense(g, 0, 1, 0, config)));
  }
}

TEST(SubgraphSparseProperty, TouchedLabelsMatchDenseDerivedReference) {
  Rng rng(4571);
  KnowledgeGraph g = RandomGraph(120, 5, 360, &rng, /*two_components=*/true,
                                 /*bridges=*/2);
  SubgraphWorkspace workspace;
  SubgraphConfig config;
  for (const Triple& t : RandomTargets(g, 16, &rng)) {
    ExtractSubgraph(g, t.head, t.tail, t.rel, config, &workspace);
    const TouchedLabels sparse = TouchedEntityLabels(workspace);
    const std::vector<int32_t> dh =
        BfsDistances(g, t.head, t.tail, config.num_hops);
    const std::vector<int32_t> dt =
        BfsDistances(g, t.tail, t.head, config.num_hops);
    TouchedLabels dense;
    for (EntityId u = 0; u < g.num_entities(); ++u) {
      if (dh[static_cast<size_t>(u)] < 0 && dt[static_cast<size_t>(u)] < 0) {
        continue;
      }
      dense.entities.push_back(u);
      dense.dist_head.push_back(
          static_cast<int8_t>(dh[static_cast<size_t>(u)]));
      dense.dist_tail.push_back(
          static_cast<int8_t>(dt[static_cast<size_t>(u)]));
    }
    ASSERT_EQ(sparse.entities, dense.entities);
    ASSERT_EQ(sparse.dist_head, dense.dist_head);
    ASSERT_EQ(sparse.dist_tail, dense.dist_tail);
    ASSERT_EQ(TouchedEntities(workspace), dense.entities);
  }
}

TEST(SubgraphSparseProperty, WorkspaceReuseAcrossGraphSizes) {
  Rng rng(77);
  KnowledgeGraph big = RandomGraph(200, 4, 600, &rng);
  KnowledgeGraph small = RandomGraph(12, 2, 30, &rng);
  SubgraphWorkspace reused;
  SubgraphConfig config;
  // Alternate graphs of very different sizes through one workspace: stale
  // stamps from the big graph must never leak into the small one.
  for (int round = 0; round < 4; ++round) {
    const KnowledgeGraph& g = (round % 2 == 0) ? big : small;
    for (const Triple& t : RandomTargets(g, 6, &rng)) {
      const Subgraph got =
          ExtractSubgraph(g, t.head, t.tail, t.rel, config, &reused);
      SubgraphWorkspace fresh;
      const Subgraph want =
          ExtractSubgraph(g, t.head, t.tail, t.rel, config, &fresh);
      ASSERT_TRUE(SubgraphsEqual(got, want)) << "round " << round;
    }
  }
}

TEST(SubgraphSparseProperty, StampWrapResetsExactlyOnceWithIdenticalResults) {
  Rng rng(31337);
  KnowledgeGraph g = RandomGraph(80, 4, 240, &rng);
  const std::vector<Triple> targets = RandomTargets(g, 8, &rng);
  SubgraphConfig config;

  // Reference results from a fresh workspace per call.
  std::vector<Subgraph> want;
  for (const Triple& t : targets) {
    SubgraphWorkspace fresh;
    want.push_back(ExtractSubgraph(g, t.head, t.tail, t.rel, config, &fresh));
  }

  for (const uint32_t start :
       {UINT32_MAX - 4, UINT32_MAX - 1, UINT32_MAX}) {
    SubgraphWorkspace ws;
    // Warm the arrays so the reset has stale stamps to clear.
    ExtractSubgraph(g, targets[0].head, targets[0].tail, targets[0].rel,
                    config, &ws);
    ASSERT_EQ(ws.wrap_resets, 0u);
    ws.stamp = start;  // force the counter to the edge
    for (size_t i = 0; i < targets.size(); ++i) {
      const Triple& t = targets[i];
      const Subgraph got =
          ExtractSubgraph(g, t.head, t.tail, t.rel, config, &ws);
      ASSERT_TRUE(SubgraphsEqual(got, want[i])) << "start offset "
                                                << (UINT32_MAX - start);
      const TouchedLabels labels = TouchedEntityLabels(ws);
      ASSERT_FALSE(labels.entities.empty());
    }
    // Exactly one full reset: ReserveStamps(3) fires once at the edge and
    // the restarted counter has ~1.4e9 extractions of headroom.
    EXPECT_EQ(ws.wrap_resets, 1u);
  }
}

TEST(SubgraphSparseProperty, ConcurrentThreadLocalWorkspacesMatchSerial) {
  Rng rng(60601);
  KnowledgeGraph g = RandomGraph(150, 6, 450, &rng, /*two_components=*/true,
                                 /*bridges=*/4);
  const std::vector<Triple> targets = RandomTargets(g, 64, &rng);
  SubgraphConfig config;

  std::vector<Subgraph> serial;
  {
    SubgraphWorkspace ws;
    for (const Triple& t : targets) {
      serial.push_back(
          ExtractSubgraph(g, t.head, t.tail, t.rel, config, &ws));
    }
  }

  std::vector<Subgraph> parallel(targets.size());
  ThreadPool pool(4);
  pool.ParallelFor(0, static_cast<int64_t>(targets.size()), /*grain=*/1,
                   [&](int64_t begin, int64_t end) {
                     SubgraphWorkspace* ws = GetThreadLocalSubgraphWorkspace();
                     for (int64_t i = begin; i < end; ++i) {
                       const Triple& t = targets[static_cast<size_t>(i)];
                       parallel[static_cast<size_t>(i)] = ExtractSubgraph(
                           g, t.head, t.tail, t.rel, config, ws);
                     }
                   });
  for (size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(SubgraphsEqual(parallel[i], serial[i])) << "target " << i;
  }
}

TEST(SubgraphSparseProperty, ExtractionCountersAreConsistent) {
  Rng rng(8080);
  KnowledgeGraph g = RandomGraph(60, 3, 180, &rng);
  const std::vector<Triple> targets = RandomTargets(g, 10, &rng);
  SubgraphConfig config;
  SubgraphWorkspace ws;

  ResetExtractionCounters();
  uint64_t want_candidates = 0;
  for (const Triple& t : targets) {
    const Subgraph sub =
        ExtractSubgraph(g, t.head, t.tail, t.rel, config, &ws);
    want_candidates += sub.nodes.size() - 2;
  }
  const ExtractionCounters counters = GetExtractionCounters();
  EXPECT_EQ(counters.extractions, targets.size());
  EXPECT_EQ(counters.candidates_kept, want_candidates);
  // Both endpoints are popped by their own BFS pass at minimum.
  EXPECT_GE(counters.bfs_popped, 2 * targets.size());
  // The dense reference does not count.
  ExtractSubgraphDense(g, targets[0].head, targets[0].tail, targets[0].rel,
                       config);
  EXPECT_EQ(GetExtractionCounters().extractions, targets.size());
  ResetExtractionCounters();
  EXPECT_EQ(GetExtractionCounters().extractions, 0u);
}

}  // namespace
}  // namespace dekg
