// The touched-entity index of SubgraphCache, the one store of extracted
// subgraphs, against brute-force references. The main schedule is a
// seeded random sequence of Admit, Remove, Lookup and Affected calls,
// where removed and evicted keys are re-admitted so slots are reused
// across generations; it runs unbounded and at a capacity that evicts.
// After every step the resident keys, the hit/miss/eviction/entry
// counters and the payload bytes must equal a reference that keeps its
// keys in a FIFO list, the affected set of a random endpoint set must
// equal the reference's exactly (no stale slot reported, no live key
// missed, no key twice), and stale postings must stay within the sweep
// bound. A second schedule cycles one slot through several wraps of its
// 8-bit generation, and index_bytes() is checked against a hand count.
// The store's FIFO, counters and transparency: subgraph_cache_test.
#include "graph/subgraph_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/subgraph.h"

namespace dekg {
namespace {

struct TripleLess {
  bool operator()(const Triple& a, const Triple& b) const {
    return std::tie(a.head, a.rel, a.tail) < std::tie(b.head, b.rel, b.tail);
  }
};
using Reference = std::map<Triple, std::set<EntityId>, TripleLess>;

// The touched list Admit posts: `entities` ascending, each once.
std::vector<EntityId> TouchedList(const std::set<EntityId>& entities) {
  return {entities.begin(), entities.end()};
}

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

std::vector<Triple> ReferenceAffected(const Reference& ref,
                                      const std::vector<EntityId>& query) {
  std::vector<Triple> out;
  for (const auto& [key, entities] : ref) {
    for (const EntityId e : query) {
      if (entities.count(e) != 0) {
        out.push_back(key);
        break;
      }
    }
  }
  return out;
}

int64_t ReferencePostings(const Reference& ref) {
  int64_t total = 0;
  for (const auto& [key, entities] : ref) {
    total += static_cast<int64_t>(entities.size());
  }
  return total;
}

TEST(TouchedIndexTest, ReusedSlotDoesNotInheritStalePostings) {
  SubgraphCache cache;
  const Triple a{1, 0, 2};
  const Triple b{3, 0, 4};
  cache.Admit(a, Payload(2), {1, 2, 7});
  EXPECT_TRUE(cache.Remove(a));
  EXPECT_FALSE(cache.Remove(a));
  // b takes a's freed slot; a's postings under 1, 2 and 7 are stale.
  cache.Admit(b, Payload(3), {3, 4});
  EXPECT_TRUE(cache.Affected({1, 2, 7}).empty());
  EXPECT_EQ(cache.Affected({7, 3, 4, 3}), std::vector<Triple>{b});
  EXPECT_EQ(cache.Find(a), nullptr);
  ASSERT_NE(cache.Find(b), nullptr);
  EXPECT_EQ(cache.Find(b)->nodes.size(), 3u);
  EXPECT_EQ(cache.live_postings(), 2);
  // The query above dropped a's stale postings under 1, 2 and 7.
  EXPECT_EQ(cache.stale_postings(), 0);
}

// One slot cycled through three wraps of its 8-bit generation. Occupant k
// touches the three entities of block k mod 257, so it shares none with
// occupant k - 1, nor with occupant k - 256, which held the same
// generation one wrap earlier. Queries scan only those two blocks, so a
// posting that outlived a wrap stays unscanned until its generation comes
// round again. A sweep run before the wrapping bump keeps occupant 255's
// postings, which then report occupant 511 through block 255; a sweep
// after it that drops only postings of another generation keeps occupant
// 0's, which report occupant 256 through block 0.
TEST(TouchedIndexTest, GenerationWrapNeverRevivesStalePostings) {
  constexpr int32_t kBlocks = 257;
  constexpr int32_t kOccupants = 3 * 256 + 1;
  const auto block = [](int32_t k) {
    const EntityId first = static_cast<EntityId>(k % kBlocks * 3);
    return std::set<EntityId>{first, first + 1, first + 2};
  };
  const auto query = [](const std::set<EntityId>& entities) {
    return std::vector<EntityId>(entities.begin(), entities.end());
  };
  SubgraphCache cache;
  Reference ref;
  for (int32_t k = 0; k < kOccupants; ++k) {
    const Triple key{k, 0, k + 1};
    cache.Admit(key, Payload(2), TouchedList(block(k)));
    ref.emplace(key, block(k));
    ASSERT_EQ(cache.Affected(query(block(k))),
              ReferenceAffected(ref, query(block(k))))
        << "occupant " << k;
    if (k >= 256) {
      ASSERT_EQ(cache.Affected(query(block(k - 256))),
                ReferenceAffected(ref, query(block(k - 256))))
          << "occupant " << k << " revived a posting of occupant " << k - 256;
    }
    ASSERT_TRUE(cache.Remove(key));
    ref.erase(key);
    ASSERT_EQ(cache.stats().entries, 0);
    ASSERT_EQ(cache.live_postings(), 0);
    // Two or three stale postings per occupant never reach the slack, so
    // every sweep is a wrap sweep, and the slot leaves each wrap with no
    // postings at all.
    ASSERT_EQ(cache.sweeps(), (k + 1) / 256) << "occupant " << k;
    if (k % 256 == 255) {
      ASSERT_EQ(cache.stale_postings(), 0) << "occupant " << k;
    }
  }
  EXPECT_EQ(cache.sweeps(), 3);
}

// index_bytes() counts capacities: 4 bytes per allocated posting.
TEST(TouchedIndexTest, BytesMatchHandCount) {
  SubgraphCache cache;
  EXPECT_EQ(cache.index_bytes(), 0);
  cache.Admit({1, 0, 2}, Payload(2), {1, 2, 7});
  EXPECT_EQ(cache.index_bytes(), 3 * 4);
  // Lists 2 and 7 grow to two postings, list 9 holds one.
  const Triple b{3, 0, 4};
  cache.Admit(b, Payload(2), {2, 7, 9});
  EXPECT_EQ(cache.index_bytes(), 6 * 4);
  // The stale postings keep their room.
  EXPECT_TRUE(cache.Remove({1, 0, 2}));
  EXPECT_EQ(cache.index_bytes(), 6 * 4);
  // A scan drops the stale postings and keeps the capacity, which the
  // next key's postings under 2 and 7 reuse; list 3 is new.
  EXPECT_EQ(cache.Affected({1, 2, 7}), std::vector<Triple>{b});
  cache.Admit({5, 0, 6}, Payload(2), {2, 3, 7});
  EXPECT_EQ(cache.index_bytes(), 7 * 4);
  EXPECT_EQ(cache.sweeps(), 0);
  // The payload is counted apart, as cache_bytes.
  EXPECT_EQ(cache.stats().bytes, 2 * PayloadBytes(2));
}

// The brute-force model of a SubgraphCache: resident keys in admission
// order with their touched entities and payload sizes, and the counters.
struct ReferenceStore {
  std::vector<Triple> fifo;  // oldest admission first
  Reference touched;
  std::map<Triple, int32_t, TripleLess> payload;  // Payload(n)'s n
  SubgraphCache::Stats stats;

  bool Resident(const Triple& key) const { return touched.count(key) != 0; }
  void Forget(Triple key) {  // by value: `key` may alias fifo.front()
    fifo.erase(std::find(fifo.begin(), fifo.end(), key));
    stats.bytes -= PayloadBytes(payload[key]);
    touched.erase(key);
    payload.erase(key);
    --stats.entries;
  }
};

// Seeded schedule at `capacity`; see the file comment.
void RunRandomSchedule(int64_t capacity) {
  constexpr int32_t kEntities = 48;
  constexpr int32_t kKeyPool = 160;
  Rng rng(20231017);
  SubgraphCache cache(capacity);
  ReferenceStore ref;
  int64_t sweeps = 0;
  int64_t wrap_sweeps = 0;
  int64_t reused_adds = 0;
  std::set<Triple, TripleLess> ever_added;

  const auto key_of = [](int64_t k) {
    return Triple{static_cast<EntityId>(k % kEntities),
                  static_cast<RelationId>(k % 3),
                  static_cast<EntityId>(k / 3 % kEntities)};
  };
  const auto random_key = [&] {
    return key_of(rng.UniformInt(0, kKeyPool - 1));
  };
  const auto resident_key_or_random = [&] {
    if (!ref.touched.empty() && rng.Bernoulli(0.8)) {
      auto it = ref.touched.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(ref.touched.size()) - 1));
      return it->first;
    }
    return random_key();
  };
  // Checks the sweep bookkeeping of an operation that freed `freed`
  // postings (a Remove, or an Admit that evicted), given the counts
  // before it.
  const auto check_free = [&](int64_t freed, int64_t live_before,
                              int64_t stale_before, int64_t sweeps_before) {
    ASSERT_LE(cache.sweeps(), sweeps_before + 1);
    if (cache.sweeps() != sweeps_before) {
      ++sweeps;
      ASSERT_EQ(cache.stale_postings(), 0);
      // Within the slack, only a generation wrap sweeps.
      if (stale_before + freed <=
          live_before - freed + SubgraphCache::kSweepSlack) {
        ++wrap_sweeps;
      }
    } else {
      ASSERT_EQ(cache.stale_postings(), stale_before + freed);
    }
  };

  for (int32_t phase = 0; phase < 10; ++phase) {
    // Even phases never query, so stale postings pile up until a sweep
    // runs; odd phases query often, so scans compact them. The last two
    // phases mostly remove, so the few resident keys cycle a few slots
    // through many generations, and in the querying one a slot wraps
    // before the slack forces a sweep.
    const double query_share = phase % 2 == 0 ? 0.0 : 0.4;
    const double add_share = phase < 8 ? 0.55 : 0.2;
    const int32_t steps = phase < 9 ? 900 : 12000;
    for (int32_t step = 0; step < steps; ++step) {
      const double op = rng.UniformDouble();
      const double rest = (op - query_share) / (1.0 - query_share);
      if (op < query_share) {
        std::vector<EntityId> query;
        const int64_t n = rng.UniformInt(1, 6);
        for (int64_t i = 0; i < n; ++i) {
          // A few endpoints lie past every posted entity.
          query.push_back(
              static_cast<EntityId>(rng.UniformInt(0, kEntities + 7)));
        }
        std::vector<Triple> got = cache.Affected(query);
        std::sort(got.begin(), got.end(), TripleLess{});
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "a key reported twice, phase " << phase << " step " << step;
        ASSERT_EQ(got, ReferenceAffected(ref.touched, query))
            << "phase " << phase << " step " << step;
      } else if (rest < 0.1) {
        const Triple key = resident_key_or_random();
        const Subgraph* got = cache.Lookup(key);
        ASSERT_EQ(got != nullptr, ref.Resident(key));
        if (got != nullptr) {
          ++ref.stats.hits;
          ASSERT_EQ(got->nodes.size(),
                    static_cast<size_t>(ref.payload[key]));
        } else {
          ++ref.stats.misses;
        }
      } else if (rest < 0.1 + 0.9 * add_share) {
        const Triple key = random_key();
        if (ref.Resident(key)) continue;
        std::set<EntityId> entities;
        const int64_t n = rng.UniformInt(0, kEntities);
        for (int64_t i = 0; i < n; ++i) {
          entities.insert(
              static_cast<EntityId>(rng.UniformInt(0, kEntities - 1)));
        }
        const int32_t nodes = static_cast<int32_t>(rng.UniformInt(1, 9));
        if (!ever_added.insert(key).second) ++reused_adds;
        int64_t evicted = 0;
        if (capacity > 0 && ref.stats.entries == capacity) {
          evicted = static_cast<int64_t>(ref.touched[ref.fifo.front()].size());
          ref.Forget(ref.fifo.front());
          ++ref.stats.evictions;
        }
        const int64_t live_before = cache.live_postings();
        const int64_t stale_before = cache.stale_postings();
        const int64_t sweeps_before = cache.sweeps();
        cache.Admit(key, Payload(nodes), TouchedList(entities));
        ref.fifo.push_back(key);
        ref.touched.emplace(key, entities);
        ref.payload[key] = nodes;
        ref.stats.bytes += PayloadBytes(nodes);
        ++ref.stats.entries;
        check_free(evicted, live_before, stale_before, sweeps_before);
      } else {
        // Remove a resident key, or try one that is not resident.
        const Triple key = resident_key_or_random();
        const bool resident = ref.Resident(key);
        const int64_t posted =
            resident ? static_cast<int64_t>(ref.touched[key].size()) : 0;
        const int64_t live_before = cache.live_postings();
        const int64_t stale_before = cache.stale_postings();
        const int64_t sweeps_before = cache.sweeps();
        ASSERT_EQ(cache.Remove(key), resident);
        if (resident) ref.Forget(key);
        check_free(posted, live_before, stale_before, sweeps_before);
      }
      if (::testing::Test::HasFatalFailure()) return;

      const SubgraphCache::Stats& got = cache.stats();
      ASSERT_EQ(got.hits, ref.stats.hits);
      ASSERT_EQ(got.misses, ref.stats.misses);
      ASSERT_EQ(got.evictions, ref.stats.evictions);
      ASSERT_EQ(got.entries, ref.stats.entries);
      ASSERT_EQ(got.bytes, ref.stats.bytes);
      for (int64_t k = 0; k < kKeyPool; ++k) {
        const Triple key = key_of(k);
        ASSERT_EQ(cache.Find(key) != nullptr, ref.Resident(key))
            << "key " << k << ", phase " << phase << " step " << step;
      }
      ASSERT_EQ(cache.live_postings(), ReferencePostings(ref.touched));
      ASSERT_GE(cache.stale_postings(), 0);
      ASSERT_LE(cache.stale_postings(),
                cache.live_postings() + SubgraphCache::kSweepSlack)
          << "phase " << phase << " step " << step;
    }
  }
  // The schedule must have reused keys (and so slots), swept, and
  // wrapped a generation, and a bounded run must have evicted.
  EXPECT_GT(reused_adds, 0);
  EXPECT_GT(sweeps, 0);
  EXPECT_GT(wrap_sweeps, 0);
  EXPECT_EQ(cache.sweeps(), sweeps);
  if (capacity > 0) {
    EXPECT_GT(ref.stats.evictions, 0);
  }
}

TEST(TouchedIndexTest, RandomScheduleMatchesBruteForce) {
  RunRandomSchedule(/*capacity=*/0);
}

TEST(TouchedIndexTest, RandomScheduleMatchesBruteForceWhileEvicting) {
  RunRandomSchedule(/*capacity=*/24);
}

}  // namespace
}  // namespace dekg
