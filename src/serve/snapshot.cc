#include "serve/snapshot.h"

#include <utility>

#include "common/thread_pool.h"

namespace dekg::serve {

namespace {

uint64_t RowBytes(const Tensor& row) {
  return static_cast<uint64_t>(row.numel()) * sizeof(float);
}
uint64_t RowBytes(const quant::QuantRow& row) { return row.PayloadBytes(); }

// The next state of a row table: grown to `new_n` rows (new ids start as
// the table's fill row) with each touched row rematerialized — one new
// row version each.
template <typename Row, typename Make>
void Refresh(RowTable<Row>* rows, size_t new_n,
             const std::vector<EntityId>& touched, const Make& make) {
  std::vector<typename RowTable<Row>::Update> updates;
  updates.reserve(touched.size());
  for (EntityId e : touched) updates.emplace_back(static_cast<size_t>(e), make(e));
  rows->Assign(new_n, std::move(updates));
}

}  // namespace

Tensor SnapshotWriter::MakeRow(const core::RelationTable& table) const {
  return model_->clrm()->EmbedEntity(table).value();
}

quant::QuantRow SnapshotWriter::MakeRowQ(
    const core::RelationTable& table) const {
  quant::QuantRow q;
  std::string error;
  DEKG_CHECK(quant::QuantizeRow(MakeRow(table), precision_, &q, &error))
      << "quantizing fusion row: " << error;
  return q;
}

template <typename Row, typename Make>
RowTable<Row> SnapshotWriter::InitialRows(bool wanted, const Make& make) const {
  if (model_->clrm() == nullptr || !wanted) return RowTable<Row>();
  // Rows are independent; each lands in its own pre-sized slot, so the
  // table is bit-identical at any thread count. Brand-new ids (including
  // any gap below the highest ingested id) start from the all-zero
  // table; one shared zero row suffices — rows are replaced wholesale,
  // never mutated in place.
  const KnowledgeGraph& g = live_.graph();
  std::vector<Row> rows(static_cast<size_t>(g.num_entities()));
  ParallelFor(0, g.num_entities(), /*grain=*/0, [&](int64_t begin, int64_t end) {
    for (int64_t e = begin; e < end; ++e) {
      rows[static_cast<size_t>(e)] =
          make(g.RelationComponentTable(static_cast<EntityId>(e)));
    }
  });
  return RowTable<Row>(
      make(core::RelationTable(static_cast<size_t>(g.num_relations()), 0)),
      std::move(rows));
}

SnapshotWriter::SnapshotWriter(core::DekgIlpModel* model,
                               const KnowledgeGraph& base,
                               const LiveGraphConfig& config,
                               quant::Precision precision)
    : model_(model),
      precision_(precision),
      live_(base, config),
      // Quantized modes quantize each row as it is materialized and never
      // keep the fp32 copy.
      rows_(InitialRows<Tensor>(
          precision == quant::Precision::kFp32,
          [&](const core::RelationTable& t) { return MakeRow(t); })),
      qrows_(InitialRows<quant::QuantRow>(
          precision != quant::Precision::kFp32,
          [&](const core::RelationTable& t) { return MakeRowQ(t); })) {
  Publish(0);
}

Status SnapshotWriter::Ingest(const std::vector<Triple>& triples,
                              IngestReport* report, std::string* error) {
  const Status status = live_.Ingest(triples, report, error);
  if (status != Status::kOk) return status;

  if (model_->clrm() != nullptr) {
    const KnowledgeGraph& g = live_.graph();
    const size_t new_n = static_cast<size_t>(g.num_entities());
    if (precision_ == quant::Precision::kFp32) {
      Refresh(&rows_, new_n, report->touched_entities, [&](EntityId e) {
        return MakeRow(g.RelationComponentTable(e));
      });
    } else {
      Refresh(&qrows_, new_n, report->touched_entities, [&](EntityId e) {
        return MakeRowQ(g.RelationComponentTable(e));
      });
    }
    refreshes_ += report->touched_entities.size();
  }
  Publish(epoch_.load(std::memory_order_relaxed) + 1);
  return Status::kOk;
}

uint64_t SnapshotWriter::FrozenRowBytes() const {
  if (rows_.fill() != nullptr) return rows_.size() * RowBytes(*rows_.fill());
  if (qrows_.fill() != nullptr) return qrows_.size() * RowBytes(*qrows_.fill());
  return 0;
}

void SnapshotWriter::Publish(uint64_t epoch) {
  // O(1): a view of the writer's graph store and of the row tables, which
  // share every untouched row with the last snapshot.
  auto snapshot = std::make_shared<GraphSnapshot>(live_.graph());
  snapshot->epoch = epoch;
  snapshot->precision = precision_;
  snapshot->entity_emb = rows_.Publish();
  snapshot->entity_emb_q = qrows_.Publish();
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
