// Touched-entity index of a shard engine's subgraph cache (DESIGN.md
// §13): the sparse labels of every resident key and, inverted, the
// resident keys whose touched set holds each entity.
//
// Each resident key owns a dense slot {key, generation, labels}; its
// labels take 6 bytes per touched entity (a 4-byte EntityId and two
// one-byte distances). The inverse is one flat vector of 4-byte postings
// per entity, indexed by EntityId: a posting packs a 24-bit slot and
// that slot's 8-bit generation. A posting is live iff its generation
// equals its slot's. Add appends one posting per touched entity; Remove
// bumps the slot's generation and frees the slot in O(1), leaving its
// postings stale, so a later key that reuses the slot is never reported
// through them. Affected drops the stale postings of the lists it scans,
// and once stale postings outnumber live ones by more than kSweepSlack a
// full O(entities + postings) sweep drops them all, so postings stay
// within about twice the live count.
//
// An 8-bit generation cannot alias. A slot's stale postings carry only
// generations it has held since the last full sweep, so a posting can
// read live again only once the slot's generation wraps back to its
// value at that sweep, 256 bumps later. Remove runs a full sweep right
// after that wrapping bump and drops every posting naming the slot,
// which is free then, so the slot leaves the wrap with no postings at
// all. A sweep restarts every slot's count, so slots that FIFO eviction
// reuses round-robin, and that therefore wrap together, share one sweep
// per 256 rounds rather than running one each.
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
  // Slots a posting can name (its low 24 bits).
  static constexpr uint32_t kMaxSlots = 1u << 24;

  // Records `labels` for `key`, which must not be resident, and posts
  // the key under each entity of labels.entities.
  void Add(const Triple& key, TouchedLabels labels);

  // Forgets `key` and its labels in O(1) (plus an amortized share of a
  // sweep). Returns false when `key` is not resident.
  bool Remove(const Triple& key);

  // The labels of a resident key, or null, for in-place patching that
  // keeps every vector's size. The pointer is valid until the next Add,
  // or the next Remove of this key.
  TouchedLabels* Find(const Triple& key);

  // Every resident key whose touched set holds one of `entities`, each
  // once, in the order its first live posting is met. Drops the stale
  // postings of the scanned lists.
  std::vector<Triple> Affected(const std::vector<EntityId>& entities);

  int64_t size() const { return static_cast<int64_t>(slot_of_.size()); }
  int64_t live_postings() const { return live_; }
  int64_t stale_postings() const { return stale_; }
  // Full sweeps run so far, by the slack bound or by a generation wrap.
  int64_t sweeps() const { return sweeps_; }
  // Allocated bytes of the resident keys' label vectors plus every
  // entity's posting list (capacities, not sizes). The fixed-size slot
  // array, list headers and key map are not counted.
  int64_t bytes() const { return label_bytes_ + posting_bytes_; }

 private:
  struct Slot {
    Triple key;
    uint8_t generation = 0;
    uint8_t swept_generation = 0;  // generation at the last full sweep
    uint32_t seen = 0;  // last Affected query that reported this slot
    TouchedLabels labels;
  };
  // Slot in the low 24 bits, the slot's generation in the high 8.
  using Posting = uint32_t;
  static constexpr uint32_t kSlotMask = kMaxSlots - 1;

  bool Live(Posting p) const {
    return uint32_t{slots_[p & kSlotMask].generation} == p >> 24;
  }
  // Drops every stale posting and every posting of `freed`, a slot Remove
  // just freed, and restarts every slot's wrap count.
  void Sweep(uint32_t freed);

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<Triple, uint32_t, TripleHash> slot_of_;
  std::vector<std::vector<Posting>> postings_;  // by EntityId
  uint32_t query_ = 0;  // stamp of the last Affected call
  int64_t live_ = 0;
  int64_t stale_ = 0;
  int64_t sweeps_ = 0;
  int64_t label_bytes_ = 0;
  int64_t posting_bytes_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_TOUCHED_INDEX_H_
