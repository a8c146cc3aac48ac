// The resident store of one serve shard (DESIGN.md §13). It makes every
// residency decision — lookup, admission, FIFO eviction and invalidation
// — over one dense slot per resident key {key, generation, subgraph,
// posted count, prev, next}, found through a key → slot map.
//
// prev/next link the resident slots into one FIFO list in admission
// order. Admit evicts from the head and links at the tail and Remove
// unlinks in O(1), so an entry ages from its latest admission. A removed
// key leaves nothing behind in the list, so no sequence numbers are
// needed to tell a stale queue entry from a live one.
//
// Inverted, each entity has one flat vector of 4-byte postings, indexed
// by EntityId, naming the resident keys whose touched set holds it: a
// posting packs a 24-bit slot and that slot's 8-bit generation, and is
// live iff its generation equals its slot's. A slot keeps only how many
// postings it made, which is all freeing it needs to know.
// Freeing a slot bumps its generation and leaves its postings stale, so
// a later key that reuses the slot is never reported through them.
// Affected drops the stale postings it scans, and a full sweep drops them
// all once they outnumber the live ones by more than kSweepSlack. A sweep
// also runs right after the bump that wraps a slot's generation back to
// its value at the last sweep, and drops every posting of that free slot,
// so an 8-bit generation never aliases (DESIGN.md §13 has the argument).
//
// Not thread-safe; the engine calls it from one thread at a time.
#ifndef DEKG_SERVE_SHARD_CACHE_H_
#define DEKG_SERVE_SHARD_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/subgraph.h"
#include "kg/knowledge_graph.h"

namespace dekg::serve {

class ShardCache {
 public:
  // The counters SubgraphCache keeps: hits, misses, evictions (capacity
  // driven only), entries and payload bytes (SubgraphPayloadBytes).
  using Stats = SubgraphCache::Stats;

  // Stale postings tolerated beyond the live count before a full sweep.
  static constexpr int64_t kSweepSlack = 4096;
  // Slots a posting can name (its low 24 bits).
  static constexpr uint32_t kMaxSlots = 1u << 24;

  // capacity = maximum resident entries; 0 = unlimited.
  explicit ShardCache(int64_t capacity = 0);

  // The resident subgraph of `key` or null, counting a hit or a miss. The
  // pointer is valid until the next Admit or Remove.
  const Subgraph* Lookup(const Triple& key);

  // Lookup without touching the hit/miss counters: the residency probe.
  const Subgraph* Find(const Triple& key) const;

  // Admits `key`, which must not be resident: evicts from the FIFO head
  // while the cache is at capacity, then links `key` at the tail and
  // posts it under each of `touched`, the extraction's touched set
  // (TouchedEntities; each entity once).
  void Admit(const Triple& key, Subgraph subgraph,
             const std::vector<EntityId>& touched);

  // Forgets `key` with its subgraph in O(1) (plus an amortized share of a
  // sweep). Returns false when `key` is not resident.
  bool Remove(const Triple& key);

  // Every resident key whose touched set holds one of `entities`, each
  // once, in the order its first live posting is met. Drops the stale
  // postings of the scanned lists.
  std::vector<Triple> Affected(const std::vector<EntityId>& entities);

  const Stats& stats() const { return stats_; }
  int64_t live_postings() const { return live_; }
  int64_t stale_postings() const { return stale_; }
  // Full sweeps run so far, by the slack bound or by a generation wrap.
  int64_t sweeps() const { return sweeps_; }
  // Allocated bytes of every entity's posting list (capacities, not
  // sizes). The fixed-size slot array, list headers and key map are not
  // counted.
  int64_t index_bytes() const { return posting_bytes_; }

 private:
  static constexpr uint32_t kNone = ~0u;  // end of the FIFO list
  struct Slot {
    Triple key;
    uint8_t generation = 0;
    uint8_t swept_generation = 0;  // generation at the last full sweep
    uint32_t seen = 0;  // last Affected query that reported this slot
    uint32_t prev = kNone;  // FIFO neighbours while resident
    uint32_t next = kNone;
    uint32_t posted = 0;  // postings Admit made for the resident key
    Subgraph subgraph;
  };
  // Slot in the low 24 bits, the slot's generation in the high 8.
  using Posting = uint32_t;
  static constexpr uint32_t kSlotMask = kMaxSlots - 1;

  bool Live(Posting p) const {
    return uint32_t{slots_[p & kSlotMask].generation} == p >> 24;
  }
  void Unlink(uint32_t s);
  // Frees resident slot `s`: unlinks it, drops its key and payload, and
  // bumps its generation (sweeping on a wrap or past the slack).
  void Free(uint32_t s);
  // Drops every stale posting and every posting of `freed`, a slot Free
  // just freed, and restarts every slot's wrap count.
  void Sweep(uint32_t freed);

  int64_t capacity_;
  Stats stats_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<Triple, uint32_t, TripleHash> slot_of_;
  uint32_t head_ = kNone;  // oldest admission, the next to evict
  uint32_t tail_ = kNone;
  std::vector<std::vector<Posting>> postings_;  // by EntityId
  uint32_t query_ = 0;  // stamp of the last Affected call
  int64_t live_ = 0;
  int64_t stale_ = 0;
  int64_t sweeps_ = 0;
  int64_t posting_bytes_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_SHARD_CACHE_H_
