// Versioned CLRM row table (DESIGN.md §14).
//
// One slot per row, in a ChunkedVector (slots never move). A slot points
// at the newest version of its row: one allocation holding {epoch, row,
// previous version}.
// Assign() gives each replaced row a new version at the pending epoch and
// swings the slot to it (release) — O(1) per changed row, nothing copied,
// nothing that grows with the table. Publish() hands out a Version: an
// O(1) view at the current epoch. A reader follows a slot's chain past
// versions newer than its epoch, so the view keeps seeing exactly the rows
// of its epoch while the writer assigns; for the newest view that is the
// slot's head, for older ones one step per later replacement.
//
// Reclamation: a replaced version goes into the currently open retire
// set. Every Version keeps the set opened at its publication alive, and
// each set keeps its successor alive, so a replaced version is freed
// exactly when no Version published before its replacement remains —
// and no remaining reader's chain walk reaches it.
//
// Thread contract: one writer calls Assign/Publish (and reads operator[]
// of the current state); Versions are safe from any thread and may
// outlive the table.
#ifndef DEKG_SERVE_ROW_TABLE_H_
#define DEKG_SERVE_ROW_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/chunked_vector.h"
#include "common/logging.h"

namespace dekg::serve {

template <typename Row>
class RowTable {
  struct Node {
    uint64_t epoch = 0;
    Row row;
    const Node* prev = nullptr;
  };
  using Slots = ChunkedVector<std::atomic<const Node*>, 10>;

  // Versions the writer replaced while this set was open.
  struct Retired {
    std::vector<std::unique_ptr<const Node>> nodes;
    std::shared_ptr<Retired> next;

    ~Retired() {
      // Unlink the chain iteratively: a reader pinning an old version
      // across many ingests leaves a long chain behind it.
      std::shared_ptr<Retired> rest = std::move(next);
      while (rest != nullptr && rest.use_count() == 1) {
        rest = std::move(rest->next);
      }
    }
  };

 public:
  // (row index, new row).
  using Update = std::pair<size_t, Row>;

  // An immutable view of the table as of one Publish(). O(1) to copy.
  class Version {
   public:
    Version() = default;
    size_t size() const { return size_; }
    const Row* operator[](size_t i) const {
      const Node* node = (*slots_)[i].load(std::memory_order_acquire);
      while (node->epoch > epoch_) node = node->prev;
      return &node->row;
    }

   private:
    friend class RowTable;
    std::shared_ptr<const Slots> slots_;
    uint64_t epoch_ = 0;
    size_t size_ = 0;
    std::shared_ptr<const Retired> retired_;
  };

  // An empty table that never grows.
  RowTable() = default;
  // A table over `rows`; `fill` is the row every index past size() starts
  // as when Assign grows the table.
  RowTable(Row fill, std::vector<Row> rows)
      : fill_(new Node{0, std::move(fill), nullptr}) {
    std::vector<Update> updates;
    updates.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      updates.emplace_back(i, std::move(rows[i]));
    }
    const size_t n = updates.size();
    Assign(n, std::move(updates));
  }
  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;

  ~RowTable() {
    // Hand the live versions to the open set: published Versions may
    // still read them, and the set dies with the last of them.
    for (size_t i = 0; i < slots_->size(); ++i) {
      const Node* head = (*slots_)[i].load(std::memory_order_relaxed);
      if (head != fill_.get()) open_->nodes.emplace_back(head);
    }
    if (fill_ != nullptr) open_->nodes.push_back(std::move(fill_));
  }

  size_t size() const { return slots_->size(); }
  const Row* fill() const { return fill_ != nullptr ? &fill_->row : nullptr; }
  // The current (writer-side) row.
  const Row* operator[](size_t i) const {
    return &(*slots_)[i].load(std::memory_order_relaxed)->row;
  }

  // Grows to new_size (>= size(); new rows start as the fill row), then
  // replaces each updated row.
  void Assign(size_t new_size, std::vector<Update> updates) {
    DEKG_CHECK_GE(new_size, slots_->size());
    DEKG_CHECK(new_size == slots_->size() || fill_ != nullptr)
        << "growing a RowTable needs a fill row";
    while (slots_->size() < new_size) slots_->emplace_back(fill_.get());
    for (Update& u : updates) {
      DEKG_CHECK_LT(u.first, new_size);
      std::atomic<const Node*>& slot = (*slots_)[u.first];
      const Node* old = slot.load(std::memory_order_relaxed);
      slot.store(new Node{epoch_, std::move(u.second), old},
                 std::memory_order_release);
      if (old != fill_.get()) open_->nodes.emplace_back(old);
    }
  }

  // A Version at the current state. Versions replaced from now on are
  // kept until that Version (and every earlier one) is gone.
  Version Publish() {
    auto next = std::make_shared<Retired>();
    open_->next = next;
    open_ = std::move(next);
    Version v;
    v.slots_ = slots_;
    v.epoch_ = epoch_++;
    v.size_ = slots_->size();
    v.retired_ = open_;
    return v;
  }

 private:
  std::shared_ptr<Slots> slots_ = std::make_shared<Slots>();
  std::unique_ptr<const Node> fill_;
  uint64_t epoch_ = 0;  // stamped on versions Assign creates
  std::shared_ptr<Retired> open_ = std::make_shared<Retired>();
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_ROW_TABLE_H_
