// serve::TouchedIndex against a brute-force reference: a seeded random
// sequence of Add, Remove and Affected calls, where removed and fresh keys
// are re-added so slots are reused across generations. After every step
// the affected set of a random endpoint set must equal the reference's
// exactly (no stale slot reported, no live key missed, no key twice), the
// labels and counts must match, and stale postings must stay within the
// sweep bound. A second schedule cycles one slot through several wraps of
// its 8-bit generation, and bytes() is checked against a hand count.
#include "serve/touched_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace dekg::serve {
namespace {

struct TripleLess {
  bool operator()(const Triple& a, const Triple& b) const {
    return std::tie(a.head, a.rel, a.tail) < std::tie(b.head, b.rel, b.tail);
  }
};
using Reference = std::map<Triple, std::set<EntityId>, TripleLess>;

// Labels over `entities` with distance fields derived from the entity ids,
// so Find can be checked against the reference.
TouchedLabels LabelsFor(const std::set<EntityId>& entities) {
  TouchedLabels labels;
  for (const EntityId e : entities) {
    labels.entities.push_back(e);
    labels.dist_head.push_back(static_cast<int8_t>(e % 3));
    labels.dist_tail.push_back(static_cast<int8_t>(e % 5));
  }
  return labels;
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
  TouchedIndex index;
  const Triple a{1, 0, 2};
  const Triple b{3, 0, 4};
  index.Add(a, LabelsFor({1, 2, 7}));
  EXPECT_TRUE(index.Remove(a));
  EXPECT_FALSE(index.Remove(a));
  // b takes a's freed slot; a's postings under 1, 2 and 7 are stale.
  index.Add(b, LabelsFor({3, 4}));
  EXPECT_TRUE(index.Affected({1, 2, 7}).empty());
  EXPECT_EQ(index.Affected({7, 3, 4, 3}), std::vector<Triple>{b});
  EXPECT_EQ(index.Find(a), nullptr);
  ASSERT_NE(index.Find(b), nullptr);
  EXPECT_EQ(index.Find(b)->entities, (std::vector<EntityId>{3, 4}));
  EXPECT_EQ(index.live_postings(), 2);
  // The query above dropped a's stale postings under 1, 2 and 7.
  EXPECT_EQ(index.stale_postings(), 0);
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
  TouchedIndex index;
  Reference ref;
  for (int32_t k = 0; k < kOccupants; ++k) {
    const Triple key{k, 0, k + 1};
    index.Add(key, LabelsFor(block(k)));
    ref.emplace(key, block(k));
    ASSERT_EQ(index.Affected(query(block(k))),
              ReferenceAffected(ref, query(block(k))))
        << "occupant " << k;
    if (k >= 256) {
      ASSERT_EQ(index.Affected(query(block(k - 256))),
                ReferenceAffected(ref, query(block(k - 256))))
          << "occupant " << k << " revived a posting of occupant " << k - 256;
    }
    ASSERT_TRUE(index.Remove(key));
    ref.erase(key);
    ASSERT_EQ(index.size(), 0);
    ASSERT_EQ(index.live_postings(), 0);
    // Two or three stale postings per occupant never reach the slack, so
    // every sweep is a wrap sweep, and the slot leaves each wrap with no
    // postings at all.
    ASSERT_EQ(index.sweeps(), (k + 1) / 256) << "occupant " << k;
    if (k % 256 == 255) {
      ASSERT_EQ(index.stale_postings(), 0) << "occupant " << k;
    }
  }
  EXPECT_EQ(index.sweeps(), 3);
}

// bytes() counts capacities: 6 label bytes per touched entity of a
// resident key and 4 bytes per allocated posting.
TEST(TouchedIndexTest, BytesMatchHandCount) {
  const auto labels = [](std::vector<EntityId> entities) {
    TouchedLabels out;
    out.dist_head = std::vector<int8_t>(entities.size(), 1);
    out.dist_tail = std::vector<int8_t>(entities.size(), 2);
    out.entities = std::move(entities);
    return out;
  };
  TouchedIndex index;
  EXPECT_EQ(index.bytes(), 0);
  index.Add({1, 0, 2}, labels({1, 2, 7}));
  EXPECT_EQ(index.bytes(), 3 * 6 + 3 * 4);
  // Lists 2 and 7 grow to two postings, list 9 holds one.
  const Triple b{3, 0, 4};
  index.Add(b, labels({2, 7, 9}));
  EXPECT_EQ(index.bytes(), 6 * 6 + 6 * 4);
  // Removing frees the labels; the stale postings keep their room.
  EXPECT_TRUE(index.Remove({1, 0, 2}));
  EXPECT_EQ(index.bytes(), 3 * 6 + 6 * 4);
  // A scan drops the stale postings and keeps the capacity, which the
  // next key's postings under 2 and 7 reuse.
  EXPECT_EQ(index.Affected({1, 2, 7}), std::vector<Triple>{b});
  index.Add({5, 0, 6}, labels({2, 7}));
  EXPECT_EQ(index.bytes(), 5 * 6 + 6 * 4);
  EXPECT_EQ(index.sweeps(), 0);
}

TEST(TouchedIndexTest, RandomScheduleMatchesBruteForce) {
  constexpr int32_t kEntities = 48;
  constexpr int32_t kKeyPool = 160;
  Rng rng(20231017);
  TouchedIndex index;
  Reference ref;
  int64_t sweeps = 0;
  int64_t wrap_sweeps = 0;
  int64_t reused_adds = 0;
  std::set<Triple, TripleLess> ever_added;

  const auto random_key = [&] {
    const int64_t k = rng.UniformInt(0, kKeyPool - 1);
    return Triple{static_cast<EntityId>(k % kEntities),
                  static_cast<RelationId>(k % 3),
                  static_cast<EntityId>(k / 3 % kEntities)};
  };

  for (int32_t phase = 0; phase < 10; ++phase) {
    // Even phases only add and remove, so stale postings pile up until a
    // sweep runs; odd phases query often, so scans compact them. The last
    // two phases mostly remove, so the few resident keys cycle a few slots
    // through many generations, and in the querying one a slot wraps
    // before the slack forces a sweep.
    const double query_share = phase % 2 == 0 ? 0.0 : 0.4;
    const double add_share = phase < 8 ? 0.55 : 0.2;
    const int32_t steps = phase < 9 ? 900 : 12000;
    for (int32_t step = 0; step < steps; ++step) {
      const double op = rng.UniformDouble();
      if (op < query_share) {
        std::vector<EntityId> query;
        const int64_t n = rng.UniformInt(1, 6);
        for (int64_t i = 0; i < n; ++i) {
          // A few endpoints lie past every posted entity.
          query.push_back(
              static_cast<EntityId>(rng.UniformInt(0, kEntities + 7)));
        }
        std::vector<Triple> got = index.Affected(query);
        std::sort(got.begin(), got.end(), TripleLess{});
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "a key reported twice, phase " << phase << " step " << step;
        ASSERT_EQ(got, ReferenceAffected(ref, query))
            << "phase " << phase << " step " << step;
      } else if (op < query_share + (1.0 - query_share) * add_share) {
        const Triple key = random_key();
        if (ref.count(key) != 0) continue;
        std::set<EntityId> entities;
        const int64_t n = rng.UniformInt(0, kEntities);
        for (int64_t i = 0; i < n; ++i) {
          entities.insert(
              static_cast<EntityId>(rng.UniformInt(0, kEntities - 1)));
        }
        if (!ever_added.insert(key).second) ++reused_adds;
        index.Add(key, LabelsFor(entities));
        ref.emplace(key, entities);
      } else {
        // Remove a resident key, or try one that is not resident.
        Triple key = random_key();
        if (!ref.empty() && rng.Bernoulli(0.8)) {
          auto it = ref.begin();
          std::advance(
              it, rng.UniformInt(0, static_cast<int64_t>(ref.size()) - 1));
          key = it->first;
        }
        const auto it = ref.find(key);
        const int64_t posted =
            it == ref.end() ? 0 : static_cast<int64_t>(it->second.size());
        const int64_t stale_before = index.stale_postings();
        const int64_t sweeps_before = index.sweeps();
        ASSERT_EQ(index.Remove(key), it != ref.end());
        if (it != ref.end()) ref.erase(it);
        ASSERT_LE(index.sweeps(), sweeps_before + 1);
        if (index.sweeps() != sweeps_before) {
          ++sweeps;
          ASSERT_EQ(index.stale_postings(), 0);
          // Within the slack, only a generation wrap sweeps.
          if (stale_before + posted <=
              index.live_postings() + TouchedIndex::kSweepSlack) {
            ++wrap_sweeps;
          }
        } else {
          ASSERT_EQ(index.stale_postings(), stale_before + posted);
        }
      }

      ASSERT_EQ(index.size(), static_cast<int64_t>(ref.size()));
      ASSERT_EQ(index.live_postings(), ReferencePostings(ref));
      ASSERT_GE(index.stale_postings(), 0);
      ASSERT_LE(index.stale_postings(),
                index.live_postings() + TouchedIndex::kSweepSlack)
          << "phase " << phase << " step " << step;
    }
    for (const auto& [key, entities] : ref) {
      const TouchedLabels* labels = index.Find(key);
      ASSERT_NE(labels, nullptr);
      const TouchedLabels want = LabelsFor(entities);
      EXPECT_EQ(labels->entities, want.entities);
      EXPECT_EQ(labels->dist_head, want.dist_head);
      EXPECT_EQ(labels->dist_tail, want.dist_tail);
    }
  }
  // The schedule must have reused keys (and so slots), swept, and
  // wrapped a generation.
  EXPECT_GT(reused_adds, 0);
  EXPECT_GT(sweeps, 0);
  EXPECT_GT(wrap_sweeps, 0);
  EXPECT_EQ(index.sweeps(), sweeps);
}

}  // namespace
}  // namespace dekg::serve
