#include "serve/shard_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dekg::serve {

ShardCache::ShardCache(int64_t capacity) : capacity_(capacity) {
  DEKG_CHECK_GE(capacity, 0);
}

const Subgraph* ShardCache::Lookup(const Triple& key) {
  const Subgraph* found = Find(key);
  ++(found != nullptr ? stats_.hits : stats_.misses);
  return found;
}

const Subgraph* ShardCache::Find(const Triple& key) const {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? nullptr : &slots_[it->second].subgraph;
}

void ShardCache::Admit(const Triple& key, Subgraph subgraph,
                       const std::vector<EntityId>& touched) {
  while (capacity_ > 0 && stats_.entries >= capacity_) {
    Free(head_);
    ++stats_.evictions;
  }
  const auto [it, fresh] = slot_of_.try_emplace(key, 0);
  DEKG_CHECK(fresh) << "ShardCache::Admit: key already resident";
  if (free_slots_.empty()) {
    DEKG_CHECK_LT(slots_.size(), kMaxSlots);
    it->second = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    it->second = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint32_t s = it->second;
  Slot& slot = slots_[s];
  slot.key = key;
  slot.prev = tail_;
  slot.next = kNone;
  (tail_ == kNone ? head_ : slots_[tail_].next) = s;
  tail_ = s;
  const Posting posting = s | uint32_t{slot.generation} << 24;
  size_t grown = 0;  // posting capacity added
  for (const EntityId e : touched) {
    const size_t i = static_cast<size_t>(e);
    if (i >= postings_.size()) postings_.resize(i + 1);
    std::vector<Posting>& list = postings_[i];
    const size_t capacity = list.capacity();
    list.push_back(posting);
    grown += list.capacity() - capacity;
  }
  posting_bytes_ += static_cast<int64_t>(grown * sizeof(Posting));
  slot.posted = static_cast<uint32_t>(touched.size());
  live_ += slot.posted;
  stats_.bytes += SubgraphPayloadBytes(subgraph);
  slot.subgraph = std::move(subgraph);
  ++stats_.entries;
}

bool ShardCache::Remove(const Triple& key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) return false;
  Free(it->second);
  return true;
}

std::vector<Triple> ShardCache::Affected(
    const std::vector<EntityId>& entities) {
  if (++query_ == 0) {
    // Stamp wrap: clear every slot's stamp once, then restart at 1.
    for (Slot& slot : slots_) slot.seen = 0;
    query_ = 1;
  }
  std::vector<Triple> out;
  for (const EntityId e : entities) {
    const size_t i = static_cast<size_t>(e);
    if (i >= postings_.size()) continue;  // nothing ever posted under e
    std::vector<Posting>& list = postings_[i];
    size_t kept = 0;
    for (const Posting p : list) {
      if (!Live(p)) continue;
      list[kept++] = p;
      Slot& slot = slots_[p & kSlotMask];
      if (slot.seen == query_) continue;
      slot.seen = query_;
      out.push_back(slot.key);
    }
    stale_ -= static_cast<int64_t>(list.size() - kept);
    list.resize(kept);
  }
  return out;
}

void ShardCache::Unlink(uint32_t s) {
  const Slot& slot = slots_[s];
  (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;
}

void ShardCache::Free(uint32_t s) {
  Unlink(s);
  Slot& slot = slots_[s];
  slot_of_.erase(slot.key);
  stats_.bytes -= SubgraphPayloadBytes(slot.subgraph);
  slot.subgraph = Subgraph{};
  --stats_.entries;
  free_slots_.push_back(s);
  live_ -= slot.posted;
  stale_ += slot.posted;
  // Sweep right after a wrapping bump, so the slot leaves the wrap with
  // no postings (see the header comment).
  if (++slot.generation == slot.swept_generation ||
      stale_ > live_ + kSweepSlack) {
    Sweep(s);
  }
}

void ShardCache::Sweep(uint32_t freed) {
  for (std::vector<Posting>& list : postings_) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [this, freed](Posting p) {
                                return !Live(p) || (p & kSlotMask) == freed;
                              }),
               list.end());
  }
  for (Slot& slot : slots_) slot.swept_generation = slot.generation;
  stale_ = 0;
  ++sweeps_;
}

}  // namespace dekg::serve
