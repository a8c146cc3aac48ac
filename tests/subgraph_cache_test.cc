// SubgraphCache semantics: hit/miss accounting, deterministic FIFO
// eviction under a capacity bound, byte accounting, and transparency —
// a served subgraph is exactly what a fresh extraction would produce.
// The serve shard's store, with ingest invalidation through its
// touched-entity postings, is serve::ShardCache (touched_index_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "graph/subgraph.h"

namespace dekg {
namespace {

Subgraph MakeSubgraph(int32_t num_nodes, int32_t num_edges) {
  Subgraph s;
  for (int32_t i = 0; i < num_nodes; ++i) {
    s.nodes.push_back(SubgraphNode{i, 0, 1});
  }
  for (int32_t i = 0; i < num_edges; ++i) {
    s.edges.push_back(SubgraphEdge{0, 0, 1});
  }
  return s;
}

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

TEST(SubgraphCacheTest, LookupCountsHitsAndMisses) {
  SubgraphCache cache(/*capacity=*/0);
  const Triple t{1, 0, 2};
  EXPECT_EQ(cache.Lookup(t), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);

  cache.Insert(t, MakeSubgraph(3, 2));
  const Subgraph* hit = cache.Lookup(t);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->nodes.size(), 3u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().entries, 1);

  // Find() does not touch the counters.
  EXPECT_NE(cache.Find(t), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);

  cache.ResetCounters();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().entries, 1) << "residency survives ResetCounters";
}

TEST(SubgraphCacheTest, InsertIsIdempotentWhileResident) {
  SubgraphCache cache(/*capacity=*/0);
  const Triple t{1, 0, 2};
  const Subgraph* first = cache.Insert(t, MakeSubgraph(3, 2));
  const Subgraph* second = cache.Insert(t, MakeSubgraph(9, 9));
  EXPECT_EQ(first, second) << "re-insert must keep the resident entry";
  EXPECT_EQ(second->nodes.size(), 3u);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(SubgraphCacheTest, FifoEvictionIsOldestFirst) {
  SubgraphCache cache(/*capacity=*/2);
  const Triple a{0, 0, 1}, b{1, 0, 2}, c{2, 0, 3};
  cache.Insert(a, MakeSubgraph(2, 1));
  cache.Insert(b, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.stats().entries, 2);
  cache.Insert(c, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Find(a), nullptr) << "oldest insertion evicted first";
  EXPECT_NE(cache.Find(b), nullptr);
  EXPECT_NE(cache.Find(c), nullptr);
  // Next eviction retires b, not c.
  cache.Insert(Triple{3, 0, 4}, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.Find(b), nullptr);
  EXPECT_NE(cache.Find(c), nullptr);
}

TEST(SubgraphCacheTest, ByteAccountingTracksResidency) {
  SubgraphCache cache(/*capacity=*/1);
  const int64_t expect_a =
      static_cast<int64_t>(4 * sizeof(SubgraphNode) + 3 * sizeof(SubgraphEdge));
  cache.Insert(Triple{0, 0, 1}, MakeSubgraph(4, 3));
  EXPECT_EQ(cache.stats().bytes, expect_a);
  // Eviction releases a's bytes, insert adds b's.
  const int64_t expect_b =
      static_cast<int64_t>(2 * sizeof(SubgraphNode) + 1 * sizeof(SubgraphEdge));
  cache.Insert(Triple{1, 0, 2}, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.stats().bytes, expect_b);
  // And again: b's bytes leave with it.
  cache.Insert(Triple{2, 0, 3}, MakeSubgraph(1, 0));
  EXPECT_EQ(cache.stats().bytes,
            static_cast<int64_t>(sizeof(SubgraphNode)));
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().evictions, 2);
}

TEST(SubgraphCacheTest, CapacityInvariantHoldsUnderChurn) {
  // Deterministic re-insert churn: the resident count must never exceed
  // the capacity and bytes must always equal the sum over residents.
  const int64_t capacity = 4;
  SubgraphCache cache(capacity);
  for (int32_t round = 0; round < 64; ++round) {
    const Triple t{round % 7, 0, (round % 7) + 1};
    cache.Insert(t, MakeSubgraph(1 + round % 5, round % 4));
    ASSERT_LE(cache.stats().entries, capacity) << "round " << round;
    int64_t bytes = 0;
    for (int32_t k = 0; k < 8; ++k) {
      const Subgraph* s = cache.Find(Triple{k, 0, k + 1});
      if (s == nullptr) continue;
      bytes += static_cast<int64_t>(s->nodes.size() * sizeof(SubgraphNode) +
                                    s->edges.size() * sizeof(SubgraphEdge));
    }
    ASSERT_EQ(cache.stats().bytes, bytes) << "round " << round;
  }
}

TEST(SubgraphCacheTest, ServedSubgraphMatchesFreshExtraction) {
  // A small diamond graph: extraction is deterministic, so the cached
  // subgraph must equal a fresh extraction field-for-field.
  KnowledgeGraph g(/*num_entities=*/5, /*num_relations=*/2);
  g.AddTriple(Triple{0, 0, 1});
  g.AddTriple(Triple{1, 0, 2});
  g.AddTriple(Triple{0, 1, 3});
  g.AddTriple(Triple{3, 1, 2});
  g.AddTriple(Triple{2, 0, 4});
  g.Build();

  SubgraphConfig config;
  const Triple target{0, 0, 2};
  Subgraph fresh =
      ExtractSubgraph(g, target.head, target.tail, target.rel, config);

  SubgraphCache cache(/*capacity=*/0);
  cache.Insert(target,
               ExtractSubgraph(g, target.head, target.tail, target.rel,
                               config));
  const Subgraph* served = cache.Lookup(target);
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(SameSubgraph(*served, fresh));
  // And again: repeated lookups keep serving the identical object.
  EXPECT_EQ(cache.Lookup(target), served);
}

}  // namespace
}  // namespace dekg
