#include "serve/snapshot.h"

#include <utility>

#include "common/thread_pool.h"

namespace dekg::serve {

Tensor SnapshotWriter::MakeRow(const core::RelationTable& table) const {
  return model_->clrm()->EmbedEntity(table).value();
}

RowTable<Tensor> SnapshotWriter::InitialRows() const {
  if (model_->clrm() == nullptr) return RowTable<Tensor>();
  // Rows are independent; each lands in its own pre-sized slot, so the
  // table is bit-identical at any thread count. Brand-new ids (including
  // any gap below the highest ingested id) start from the all-zero
  // table; one shared zero row suffices — rows are replaced wholesale,
  // never mutated in place.
  const KnowledgeGraph& g = live_.graph();
  std::vector<Tensor> rows(static_cast<size_t>(g.num_entities()));
  ParallelFor(0, g.num_entities(), /*grain=*/0, [&](int64_t begin, int64_t end) {
    for (int64_t e = begin; e < end; ++e) {
      rows[static_cast<size_t>(e)] =
          MakeRow(g.RelationComponentTable(static_cast<EntityId>(e)));
    }
  });
  return RowTable<Tensor>(
      MakeRow(core::RelationTable(static_cast<size_t>(g.num_relations()), 0)),
      std::move(rows));
}

SnapshotWriter::SnapshotWriter(core::DekgIlpModel* model,
                               const KnowledgeGraph& base,
                               const LiveGraphConfig& config)
    : model_(model), live_(base, config), rows_(InitialRows()) {
  Publish(0);
}

Status SnapshotWriter::Ingest(const std::vector<Triple>& triples,
                              IngestReport* report, std::string* error) {
  const Status status = live_.Ingest(triples, report, error);
  if (status != Status::kOk) return status;

  if (model_->clrm() != nullptr) {
    // Grow the table to the new entity count (new ids start as the fill
    // row) and rematerialize each touched row — one new version each.
    const KnowledgeGraph& g = live_.graph();
    std::vector<RowTable<Tensor>::Update> updates;
    updates.reserve(report->touched_entities.size());
    for (EntityId e : report->touched_entities) {
      updates.emplace_back(static_cast<size_t>(e),
                           MakeRow(g.RelationComponentTable(e)));
    }
    rows_.Assign(static_cast<size_t>(g.num_entities()), std::move(updates));
    refreshes_ += report->touched_entities.size();
  }
  Publish(epoch_.load(std::memory_order_relaxed) + 1);
  return Status::kOk;
}

uint64_t SnapshotWriter::FrozenRowBytes() const {
  if (rows_.fill() == nullptr) return 0;
  return rows_.size() * static_cast<uint64_t>(rows_.fill()->numel()) *
         sizeof(float);
}

void SnapshotWriter::Publish(uint64_t epoch) {
  // O(1): a view of the writer's graph store and of the row tables, which
  // share every untouched row with the last snapshot.
  auto snapshot = std::make_shared<GraphSnapshot>(live_.graph());
  snapshot->epoch = epoch;
  snapshot->entity_emb = rows_.Publish();
  epoch_.store(snapshot->epoch, std::memory_order_release);
  std::shared_ptr<const GraphSnapshot> previous;
  {
    std::lock_guard<std::mutex> lock(published_mutex_);
    previous = std::exchange(published_, std::move(snapshot));
  }
  // When no reader still pins the previous epoch, it is freed here,
  // outside the lock.
}

}  // namespace dekg::serve
