// Touched-entity index of a shard engine's subgraph cache (DESIGN.md
// §13): the sparse labels of every resident key and, inverted, the
// resident keys whose touched set holds each entity.
//
// Each resident key owns a dense slot {key, generation, labels}. The
// inverse is one flat vector of 8-byte postings {slot, generation} per
// entity, indexed by EntityId. A posting is live iff its generation
// equals its slot's. Add appends one posting per touched entity; Remove
// bumps the slot's generation and frees the slot in O(1), leaving its
// postings stale, so a later key that reuses the slot is never reported
// through them. Affected drops the stale postings of the lists it scans,
// and once stale postings outnumber live ones by more than kSweepSlack a
// full O(entities + postings) sweep drops them all, so postings stay
// within about twice the live count.
//
// A 32-bit generation cannot alias: before a slot's generation wraps,
// Remove runs a full sweep first. That leaves only the slot's
// current-generation postings, which the wrap turns stale, so no posting
// carries the generation the slot restarts at.
//
// Not thread-safe; the engine calls it from one thread at a time.
#ifndef DEKG_SERVE_TOUCHED_INDEX_H_
#define DEKG_SERVE_TOUCHED_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/subgraph.h"
#include "kg/knowledge_graph.h"

namespace dekg::serve {

class TouchedIndex {
 public:
  // Stale postings tolerated beyond the live count before a full sweep.
  static constexpr int64_t kSweepSlack = 4096;

  // Records `labels` for `key`, which must not be resident, and posts
  // the key under each entity of labels.entities.
  void Add(const Triple& key, TouchedLabels labels);

  // Forgets `key` and its labels in O(1) (plus an amortized share of a
  // sweep). Returns false when `key` is not resident.
  bool Remove(const Triple& key);

  // The labels of a resident key, or null. The pointer is valid until
  // the next Add, or the next Remove of this key.
  TouchedLabels* Find(const Triple& key);

  // Every resident key whose touched set holds one of `entities`, each
  // once, in the order its first live posting is met. Drops the stale
  // postings of the scanned lists.
  std::vector<Triple> Affected(const std::vector<EntityId>& entities);

  int64_t size() const { return static_cast<int64_t>(slot_of_.size()); }
  int64_t live_postings() const { return live_; }
  int64_t stale_postings() const { return stale_; }

 private:
  struct Slot {
    Triple key;
    uint32_t generation = 0;
    uint32_t seen = 0;  // last Affected query that reported this slot
    TouchedLabels labels;
  };
  struct Posting {
    uint32_t slot = 0;
    uint32_t generation = 0;
  };

  bool Live(const Posting& p) const {
    return slots_[p.slot].generation == p.generation;
  }
  // Drops every stale posting.
  void Sweep();

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<Triple, uint32_t, TripleHash> slot_of_;
  std::vector<std::vector<Posting>> postings_;  // by EntityId
  uint32_t query_ = 0;  // stamp of the last Affected call
  int64_t live_ = 0;
  int64_t stale_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_TOUCHED_INDEX_H_
