// SubgraphCache semantics: hit/miss accounting, deterministic FIFO
// eviction under a capacity bound, byte accounting, and transparency —
// a served subgraph is exactly what a fresh extraction would produce.
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
  cache.Clear();
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(SubgraphCacheTest, ReinsertedKeyAgesFromReinsertion) {
  // Regression for the stale-FIFO bug: a key erased and later re-inserted
  // used to retire early through its old queue slot. With sequence-paired
  // slots, eviction order is a pure function of the live insertion
  // history: after a is erased and re-inserted, b is the oldest resident.
  SubgraphCache cache(/*capacity=*/2);
  const Triple a{0, 0, 1}, b{1, 0, 2}, c{2, 0, 3};
  cache.Insert(a, MakeSubgraph(2, 1));
  cache.Insert(b, MakeSubgraph(2, 1));
  EXPECT_TRUE(cache.Erase(a));
  cache.Insert(a, MakeSubgraph(3, 2));  // re-insert: a is now the newest
  cache.Insert(c, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Find(b), nullptr) << "b is the oldest live insertion";
  ASSERT_NE(cache.Find(a), nullptr) << "re-inserted a must survive";
  EXPECT_EQ(cache.Find(a)->nodes.size(), 3u);
  EXPECT_NE(cache.Find(c), nullptr);
}

TEST(SubgraphCacheTest, CapacityInvariantHoldsUnderChurn) {
  // Deterministic erase/re-insert churn: the resident count must never
  // exceed the capacity, bytes must always equal the sum over residents,
  // and eviction must always find a live victim (no CHECK failure from an
  // all-stale queue).
  const int64_t capacity = 4;
  SubgraphCache cache(capacity);
  for (int32_t round = 0; round < 64; ++round) {
    const Triple t{round % 7, 0, (round % 7) + 1};
    if (round % 3 == 1) cache.Erase(t);
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

TEST(SubgraphCacheTest, FifoQueueStaysBoundedByResidency) {
  // An unlimited cache never evicts, so it keeps no queue at all.
  SubgraphCache unlimited(/*capacity=*/0);
  for (int32_t i = 0; i < 100000; ++i) {
    unlimited.Insert(Triple{i, 0, i + 1}, MakeSubgraph(2, 0));
  }
  EXPECT_EQ(unlimited.stats().entries, 100000);
  EXPECT_EQ(unlimited.stats().fifo_slots, 0);

  // Insert/erase churn below capacity leaves a stale slot per cycle;
  // compaction keeps the queue within about twice the resident count.
  const int64_t capacity = 8;
  SubgraphCache bounded(capacity);
  for (int32_t i = 0; i < 4; ++i) {
    bounded.Insert(Triple{-1 - i, 0, 0}, MakeSubgraph(2, 0));
  }
  for (int32_t i = 0; i < 100000; ++i) {
    const Triple t{i, 0, i + 1};
    bounded.Insert(t, MakeSubgraph(2, 0));
    ASSERT_TRUE(bounded.Erase(t));
    ASSERT_LE(bounded.stats().fifo_slots, 2 * capacity + 20) << "cycle " << i;
  }
  EXPECT_EQ(bounded.stats().entries, 4);
  EXPECT_EQ(bounded.stats().evictions, 0);
}

TEST(SubgraphCacheTest, CompactionKeepsEvictionOrderAndReportsVictims) {
  // Random insert / erase / re-insert churn against a reference FIFO of
  // live keys: every eviction must retire the reference's oldest live key
  // and be reported through Insert's `evicted` list.
  const int64_t capacity = 6;
  SubgraphCache cache(capacity);
  std::vector<Triple> reference;  // live keys, oldest first
  Rng rng(23);
  for (int32_t step = 0; step < 20000; ++step) {
    const Triple t{static_cast<EntityId>(rng.UniformInt(0, 15)), 0, 99};
    const auto pos = std::find(reference.begin(), reference.end(), t);
    if (rng.Bernoulli(0.4)) {
      EXPECT_EQ(cache.Erase(t), pos != reference.end());
      if (pos != reference.end()) reference.erase(pos);
      continue;
    }
    std::vector<Triple> evicted;
    cache.Insert(t, MakeSubgraph(2, 0), &evicted);
    std::vector<Triple> want;
    if (pos == reference.end()) {
      if (static_cast<int64_t>(reference.size()) == capacity) {
        want.push_back(reference.front());
        reference.erase(reference.begin());
      }
      reference.push_back(t);
    }
    ASSERT_EQ(evicted, want) << "step " << step;
    ASSERT_EQ(cache.stats().entries, static_cast<int64_t>(reference.size()));
    ASSERT_LE(cache.stats().fifo_slots, 2 * capacity + 20) << "step " << step;
  }
  for (const Triple& t : reference) EXPECT_NE(cache.Find(t), nullptr);
}

TEST(SubgraphCacheTest, ReplaceSwapsPayloadInPlace) {
  SubgraphCache cache(/*capacity=*/2);
  const Triple a{0, 0, 1}, b{1, 0, 2}, c{2, 0, 3};
  EXPECT_EQ(cache.Replace(a, MakeSubgraph(1, 1)), nullptr)
      << "replacing an absent key is a no-op";
  EXPECT_EQ(cache.stats().entries, 0);

  const Subgraph* resident = cache.Insert(a, MakeSubgraph(4, 3));
  cache.Insert(b, MakeSubgraph(2, 1));
  const Subgraph* replaced = cache.Replace(a, MakeSubgraph(2, 2));
  EXPECT_EQ(replaced, resident) << "entry address is stable across Replace";
  EXPECT_EQ(replaced->nodes.size(), 2u);
  EXPECT_EQ(cache.stats().entries, 2);
  const int64_t expect =
      static_cast<int64_t>((2 + 2) * sizeof(SubgraphNode) +
                           (2 + 1) * sizeof(SubgraphEdge));
  EXPECT_EQ(cache.stats().bytes, expect) << "bytes re-accounted on Replace";

  // Replace does not refresh FIFO age: a is still the oldest insertion.
  cache.Insert(c, MakeSubgraph(2, 1));
  EXPECT_EQ(cache.Find(a), nullptr);
  EXPECT_NE(cache.Find(b), nullptr);
  EXPECT_NE(cache.Find(c), nullptr);
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
