// SubgraphCache, the one store of extracted subgraphs: deterministic
// FIFO eviction under a capacity bound when keys are removed and
// re-admitted, hit/miss/eviction counters and byte accounting, the
// trainer's use — admissions with an empty touched list, counters reset
// per epoch — and transparency: a served subgraph equals a fresh
// extraction. The touched-entity index behind Affected, against
// brute-force schedules: touched_index_test.
#include "graph/subgraph_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "graph/subgraph.h"

namespace dekg {
namespace {

// A payload of `nodes` nodes and nodes / 2 edges; its size identifies it.
Subgraph Payload(int32_t nodes) {
  Subgraph s;
  s.nodes.assign(static_cast<size_t>(nodes), SubgraphNode{0, 0, 1});
  s.edges.assign(static_cast<size_t>(nodes / 2), SubgraphEdge{0, 0, 1});
  return s;
}

int64_t PayloadBytes(int32_t nodes) {
  return SubgraphPayloadBytes(Payload(nodes));
}

TEST(SubgraphCacheTest, ReinsertedKeyAgesFromReinsertion) {
  // A key removed (invalidated) and re-admitted ages from its
  // re-admission: after a is removed and re-admitted, b is the oldest.
  SubgraphCache cache(/*capacity=*/2);
  const Triple a{0, 0, 1}, b{1, 0, 2}, c{2, 0, 3};
  cache.Admit(a, Payload(2), {0, 1});
  cache.Admit(b, Payload(2), {1, 2});
  EXPECT_TRUE(cache.Remove(a));
  cache.Admit(a, Payload(3), {0, 1});  // a is now the newest
  cache.Admit(c, Payload(2), {2, 3});
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Find(b), nullptr) << "b is the oldest live admission";
  const Subgraph* resident = cache.Lookup(a);
  ASSERT_NE(resident, nullptr) << "re-admitted a must survive";
  EXPECT_EQ(resident->nodes.size(), 3u);
  EXPECT_NE(cache.Find(c), nullptr);
  // b's postings went with it.
  EXPECT_EQ(cache.Affected({1, 2}), (std::vector<Triple>{a, c}));
}

TEST(SubgraphCacheTest, CapacityInvariantHoldsUnderRemoveChurn) {
  // Deterministic remove/re-admit churn: the resident count must never
  // exceed the capacity, bytes must always equal the sum over residents,
  // and eviction must always find a resident victim.
  const int64_t capacity = 4;
  SubgraphCache cache(capacity);
  for (int32_t round = 0; round < 64; ++round) {
    const Triple t{round % 7, 0, (round % 7) + 1};
    if (round % 3 == 1) cache.Remove(t);
    if (cache.Find(t) == nullptr) {
      cache.Admit(t, Payload(1 + round % 5), {t.head, t.tail});
    }
    ASSERT_LE(cache.stats().entries, capacity) << "round " << round;
    int64_t bytes = 0;
    int64_t resident = 0;
    for (int32_t k = 0; k < 8; ++k) {
      const Subgraph* found = cache.Find(Triple{k, 0, k + 1});
      if (found == nullptr) continue;
      bytes += SubgraphPayloadBytes(*found);
      ++resident;
    }
    ASSERT_EQ(cache.stats().entries, resident) << "round " << round;
    ASSERT_EQ(cache.stats().bytes, bytes) << "round " << round;
  }
}

TEST(SubgraphCacheTest, EvictionOrderUnderInvalidationChurn) {
  // Random admit / remove / re-admit churn against a reference FIFO of
  // live keys: every eviction must retire the reference's oldest live
  // key, however many keys were removed from the middle of the list.
  const int64_t capacity = 6;
  SubgraphCache cache(capacity);
  std::vector<Triple> reference;  // live keys, oldest first
  int64_t evictions = 0;
  Rng rng(23);
  for (int32_t step = 0; step < 20000; ++step) {
    const Triple t{static_cast<EntityId>(rng.UniformInt(0, 15)), 0, 99};
    const auto pos = std::find(reference.begin(), reference.end(), t);
    if (rng.Bernoulli(0.4)) {
      ASSERT_EQ(cache.Remove(t), pos != reference.end());
      if (pos != reference.end()) reference.erase(pos);
    } else if (pos == reference.end()) {
      if (static_cast<int64_t>(reference.size()) == capacity) {
        reference.erase(reference.begin());
        ++evictions;
      }
      reference.push_back(t);
      cache.Admit(t, Payload(2), {t.head});
    }
    ASSERT_EQ(cache.stats().entries, static_cast<int64_t>(reference.size()));
    ASSERT_EQ(cache.stats().evictions, evictions) << "step " << step;
    for (EntityId k = 0; k < 16; ++k) {
      const Triple key{k, 0, 99};
      ASSERT_EQ(cache.Find(key) != nullptr,
                std::count(reference.begin(), reference.end(), key) == 1)
          << "step " << step << " key " << k;
    }
  }
}

TEST(SubgraphCacheTest, ResetCountersKeepsResidency) {
  SubgraphCache cache(/*capacity=*/1);
  const Triple a{1, 0, 2}, b{2, 0, 3};
  EXPECT_EQ(cache.Lookup(a), nullptr);
  cache.Admit(a, Payload(3), {});
  cache.Admit(b, Payload(2), {});  // evicts a
  ASSERT_NE(cache.Lookup(b), nullptr);
  // Find does not touch the counters.
  EXPECT_NE(cache.Find(b), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().evictions, 1);

  cache.ResetCounters();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().entries, 1) << "residency survives ResetCounters";
  EXPECT_EQ(cache.stats().bytes, PayloadBytes(2));
  EXPECT_NE(cache.Find(b), nullptr);
}

// The trainer admits with an empty touched list: such a key posts
// nothing, so Affected never reports it, yet it counts, ages FIFO and is
// accounted like any other key.
TEST(SubgraphCacheTest, EmptyTouchedListPostsNothingYetCountsAndEvicts) {
  SubgraphCache cache(/*capacity=*/2);
  const Triple a{0, 0, 1}, b{1, 0, 2}, c{2, 0, 3}, d{3, 0, 4};
  cache.Admit(a, Payload(4), {});
  cache.Admit(b, Payload(2), {});
  EXPECT_EQ(cache.live_postings(), 0);
  EXPECT_EQ(cache.index_bytes(), 0);
  EXPECT_TRUE(cache.Affected({0, 1, 2, 3}).empty());
  EXPECT_EQ(cache.stats().bytes, PayloadBytes(4) + PayloadBytes(2));

  cache.Admit(c, Payload(1), {});
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Find(a), nullptr) << "oldest admission evicted first";
  EXPECT_NE(cache.Find(b), nullptr);
  EXPECT_EQ(cache.stats().bytes, PayloadBytes(2) + PayloadBytes(1));

  // A posting key beside them is the only one Affected reports, even for
  // the empty-list keys' own endpoints.
  cache.Admit(d, Payload(1), {2, 3});  // evicts b
  EXPECT_EQ(cache.Find(b), nullptr);
  EXPECT_EQ(cache.Affected({0, 1, 2, 3, 4}), std::vector<Triple>{d});
  EXPECT_EQ(cache.live_postings(), 2);
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_EQ(cache.stats().bytes, 2 * PayloadBytes(1));

  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.sweeps(), 0);
}

TEST(SubgraphCacheTest, ServedSubgraphMatchesFreshExtraction) {
  // A small diamond graph: extraction is deterministic, so the resident
  // subgraph must equal a fresh extraction field for field.
  const KnowledgeGraph g = BuildGraph(
      /*num_entities=*/5, /*num_relations=*/2,
      {{0, 0, 1}, {1, 0, 2}, {0, 1, 3}, {3, 1, 2}, {2, 0, 4}});
  SubgraphConfig config;
  const Triple target{0, 0, 2};
  const Subgraph fresh =
      ExtractSubgraph(g, target.head, target.tail, target.rel, config);
  ASSERT_GT(fresh.edges.size(), 0u);

  SubgraphCache cache;
  cache.Admit(target,
              ExtractSubgraph(g, target.head, target.tail, target.rel, config),
              {});
  const Subgraph* served = cache.Lookup(target);
  ASSERT_NE(served, nullptr);
  ASSERT_EQ(served->nodes.size(), fresh.nodes.size());
  for (size_t i = 0; i < fresh.nodes.size(); ++i) {
    EXPECT_EQ(served->nodes[i].entity, fresh.nodes[i].entity) << "node " << i;
    EXPECT_EQ(served->nodes[i].dist_head, fresh.nodes[i].dist_head);
    EXPECT_EQ(served->nodes[i].dist_tail, fresh.nodes[i].dist_tail);
  }
  ASSERT_EQ(served->edges.size(), fresh.edges.size());
  for (size_t i = 0; i < fresh.edges.size(); ++i) {
    EXPECT_EQ(served->edges[i].src, fresh.edges[i].src) << "edge " << i;
    EXPECT_EQ(served->edges[i].rel, fresh.edges[i].rel);
    EXPECT_EQ(served->edges[i].dst, fresh.edges[i].dst);
  }
  // Repeated lookups keep serving the same resident object.
  EXPECT_EQ(cache.Lookup(target), served);
}

}  // namespace
}  // namespace dekg
