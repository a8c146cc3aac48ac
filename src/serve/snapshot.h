// Epoch-snapshot (RCU) publication of the live graph (DESIGN.md §14).
//
// The sharded serving stack separates the single writer (ingest) from
// many readers (scoring); a reader never waits for ingest work:
//
//  * `GraphSnapshot` is an immutable view of the graph plus the
//    materialized CLRM fusion rows, tagged with a monotonically
//    increasing epoch. Scoring grabs one shared_ptr at batch start and
//    reads it for the whole batch — a concurrent ingest can never move
//    the data under a reader's feet.
//  * `SnapshotWriter` owns the mutable state: a LiveGraph (the only
//    writer of its append-only graph store) and the current row tables.
//    Ingest appends the batch, refreshes exactly the touched rows, then
//    publishes a fresh snapshot by swapping one shared_ptr under a mutex
//    that guards nothing else — readers hold it only to copy the pointer.
//    (std::atomic<std::shared_ptr> is not used: libstdc++ 12's load()
//    releases its internal lock with a relaxed store, so a reader's read
//    of the pointer races with the writer's next store — TSan reports
//    it.) Readers that loaded the old snapshot keep it alive until their
//    batch finishes.
//  * What an epoch ingested needs no record of its own: the graph is
//    append-only, so the edges a shard engine missed are the snapshot's
//    edge ids from the count it last caught up to, in ingest order.
//
// Costs, stated plainly: publishing copies and frees nothing that grows
// with the graph. The snapshot graph is an O(1) view (shared store, entity
// count, edge count), and the row tables are versioned (serve/row_table.h):
// an ingest adds one new version per touched row and shares every other
// row with the previous epoch; a replaced version is freed once no older
// snapshot remains. An
// ingest costs O(batch + touched rows), plus O(degree) to move a node's
// adjacency list when it outgrows its block (amortized O(1) per edge) and
// a triple-index rehash each time the edge count doubles. Old snapshots
// stay exact: appends land past every published view's prefix.
//
// Thread contract: exactly one thread calls Ingest at a time (the
// scheduler thread, or the router's caller). Current() is safe from any
// thread, any time. live() / Row() read the writer-side mutable state
// and are only meaningful where ingest is externally serialized against
// the caller (the router's writer-side hooks, tests).
#ifndef DEKG_SERVE_SNAPSHOT_H_
#define DEKG_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dekg_ilp.h"
#include "kg/knowledge_graph.h"
#include "serve/live_graph.h"
#include "serve/protocol.h"
#include "serve/row_table.h"

namespace dekg::serve {

// An immutable view of the graph at one epoch. Readers hold it by
// shared_ptr; the last reader (or the writer's next publish) frees it.
struct GraphSnapshot {
  explicit GraphSnapshot(KnowledgeGraph g) : graph(std::move(g)) {}

  uint64_t epoch = 0;
  KnowledgeGraph graph;
  // Materialized CLRM fusion rows, [1, dim] each; *entity_emb[e] always
  // equals EmbedEntity(RelationComponentTable(e)) for `graph`. Rows are
  // shared with other snapshots when unchanged. Empty when CLRM is off.
  RowTable<Tensor>::Version entity_emb;
};

class SnapshotWriter {
 public:
  // Copies the base graph into the writer's own store, materializes the
  // CLRM row table (parallelized over entities, bit-identical at any
  // thread count), and publishes the epoch-0 snapshot. `model` must
  // outlive the writer and is treated as frozen.
  SnapshotWriter(core::DekgIlpModel* model, const KnowledgeGraph& base,
                 const LiveGraphConfig& config);

  // The most recently published snapshot. Safe from any thread; never
  // waits for ingest work (the lock covers a pointer copy).
  std::shared_ptr<const GraphSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(published_mutex_);
    return published_;
  }

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Applies an emerging-triple batch to the writer graph, refreshes the
  // touched CLRM rows, and publishes a new snapshot. Atomic admission:
  // a rejected batch changes nothing and publishes nothing. Single
  // writer only.
  Status Ingest(const std::vector<Triple>& triples, IngestReport* report,
                std::string* error);

  // Writer-side views (serialize externally against Ingest).
  const KnowledgeGraph& live() const { return live_.graph(); }
  const Tensor& Row(EntityId e) const {
    return *rows_[static_cast<size_t>(e)];
  }

  // Total bytes of the materialized fusion-row payload (0 when CLRM is
  // off) — the serve STATS frozen-model accounting. Every row has the
  // zero row's size.
  uint64_t FrozenRowBytes() const;

  uint64_t ingested_triples() const { return live_.ingested_triples(); }
  uint64_t embedding_refreshes() const { return refreshes_; }

 private:
  void Publish(uint64_t epoch);

  // Materializes the fusion row of a relation-component table.
  Tensor MakeRow(const core::RelationTable& table) const;
  // The row table at construction: every entity's row, with the
  // all-zero table's row as the fill for entities still to come. Empty
  // when CLRM is off.
  RowTable<Tensor> InitialRows() const;

  core::DekgIlpModel* model_;
  LiveGraph live_;
  RowTable<Tensor> rows_;
  uint64_t refreshes_ = 0;
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex published_mutex_;  // guards published_ only
  std::shared_ptr<const GraphSnapshot> published_;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_SNAPSHOT_H_
