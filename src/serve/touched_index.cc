#include "serve/touched_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dekg::serve {

namespace {

int64_t LabelBytes(const TouchedLabels& labels) {
  return static_cast<int64_t>(
      labels.entities.capacity() * sizeof(EntityId) +
      labels.dist_head.capacity() * sizeof(int8_t) +
      labels.dist_tail.capacity() * sizeof(int8_t));
}

}  // namespace

void TouchedIndex::Add(const Triple& key, TouchedLabels labels) {
  const auto [it, fresh] = slot_of_.try_emplace(key, 0);
  DEKG_CHECK(fresh) << "TouchedIndex::Add: key already resident";
  if (free_slots_.empty()) {
    DEKG_CHECK_LT(slots_.size(), kMaxSlots);
    it->second = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    it->second = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[it->second];
  slot.key = key;
  const Posting posting = it->second | uint32_t{slot.generation} << 24;
  size_t grown = 0;  // posting capacity added
  for (const EntityId e : labels.entities) {
    const size_t i = static_cast<size_t>(e);
    if (i >= postings_.size()) postings_.resize(i + 1);
    std::vector<Posting>& list = postings_[i];
    const size_t capacity = list.capacity();
    list.push_back(posting);
    grown += list.capacity() - capacity;
  }
  posting_bytes_ += static_cast<int64_t>(grown * sizeof(Posting));
  live_ += static_cast<int64_t>(labels.entities.size());
  label_bytes_ += LabelBytes(labels);
  slot.labels = std::move(labels);
}

bool TouchedIndex::Remove(const Triple& key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) return false;
  const uint32_t s = it->second;
  slot_of_.erase(it);
  Slot& slot = slots_[s];
  const int64_t posted = static_cast<int64_t>(slot.labels.entities.size());
  label_bytes_ -= LabelBytes(slot.labels);
  slot.labels = TouchedLabels{};
  free_slots_.push_back(s);
  live_ -= posted;
  stale_ += posted;
  // Sweep right after a wrapping bump, so the slot leaves the wrap with
  // no postings (see the header comment).
  if (++slot.generation == slot.swept_generation ||
      stale_ > live_ + kSweepSlack) {
    Sweep(s);
  }
  return true;
}

TouchedLabels* TouchedIndex::Find(const Triple& key) {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? nullptr : &slots_[it->second].labels;
}

std::vector<Triple> TouchedIndex::Affected(
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

void TouchedIndex::Sweep(uint32_t freed) {
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
