// N-shard serving router (DESIGN.md §14).
//
// Owns the single SnapshotWriter (ingest side) and N follower
// InferenceEngines (scoring side), partitioned over the entity space by
// the consistent-hash ShardMap. Each shard keeps its own subgraph cache
// and maintenance bookkeeping; the graph and CLRM rows are shared
// read-only through epoch snapshots, so "a shard's CLRM rows" means the
// rows its cached extractions reference — ownership governs cache and
// invalidation responsibility, not row storage (a triple needs both endpoints'
// rows, which may hash to different shards; splitting row storage would
// force a cross-shard read on nearly every score).
//
// ScoreBatch partitions the items by ShardOfTriple, fans the per-shard
// sub-batches out over the thread pool (each shard's engine is touched
// by exactly one worker), and merges with index-ordered fan-in:
// out[position of item in the request] = shard score. Determinism proof
// sketch: each item's score is a pure function of (triple, snapshot
// graph) — independent of micro-batch composition, cache state, and
// thread count by the engine contract — and the fan-in
// writes it back to the item's original index, so the response vector
// is bit-identical to the 1-shard (and offline) path for every shard
// count.
//
// Ingest goes through the writer once; with synchronous_maintenance
// (the deterministic server default) every shard's cache is caught up
// before Ingest returns, and the response carries the summed
// invalidated count. With it off, Ingest returns as
// soon as the new snapshot is published and each shard catches up at
// its next ScoreBatch — that is the concurrent-reader mode the snapshot
// churn test exercises (a reader scoring concurrently with the writer
// never waits for ingest work and never sees a half-applied batch).
//
// Threading: ScoreBatch, Ingest, and Stats are scheduler-thread calls
// (one at a time). The exception is the deferred mode above: one thread
// may call Ingest while another calls ScoreBatch — writer state and
// reader state are disjoint, and the snapshot hand-off is a pointer swap
// under a mutex that guards nothing else (SnapshotWriter::Current).
#ifndef DEKG_SERVE_ROUTER_H_
#define DEKG_SERVE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dekg_ilp.h"
#include "serve/engine.h"
#include "serve/shard_map.h"
#include "serve/snapshot.h"

namespace dekg::serve {

struct RouterConfig {
  // Number of shard engines. 1 runs one engine with no partition step.
  int32_t num_shards = 1;
  // Per-shard engine configuration. cache_capacity applies per shard.
  EngineConfig engine;
  // true: Ingest catches every shard's cache up before returning, so
  // ingest responses carry exact invalidated counts and
  // the scheduler-serialized server answers exactly as one engine
  // would. false: Ingest returns at snapshot publication; shards catch
  // up lazily at their next ScoreBatch (readers never wait for ingest).
  bool synchronous_maintenance = true;
};

class Router {
 public:
  // `model` must outlive the router and is treated as frozen. `base` is
  // the built graph the server starts from.
  Router(core::DekgIlpModel* model, const KnowledgeGraph& base,
         const RouterConfig& config);

  int32_t num_shards() const { return config_.num_shards; }
  const ShardMap& shard_map() const { return shard_map_; }
  uint64_t epoch() const { return writer_.epoch(); }
  std::shared_ptr<const GraphSnapshot> CurrentSnapshot() const {
    return writer_.Current();
  }

  // Scoring-side validation against the current snapshot. Safe wherever
  // CurrentSnapshot() is.
  Status ValidateScore(const std::vector<Triple>& triples,
                       std::string* error) const {
    return ValidateTriplesForScoring(writer_.Current()->graph, triples, error);
  }

  // Scores every item; items must have passed ValidateScore. The result
  // is bit-identical across shard counts (see determinism sketch above).
  std::vector<double> ScoreBatch(const std::vector<ScoreItem>& items);

  // Applies an emerging-triple batch. Fills every response field; the
  // graph is unchanged on rejection. Single writer at a time.
  void Ingest(const std::vector<Triple>& triples, IngestResponse* response);

  // Aggregate across shards (cache counters summed; graph counters from
  // the current snapshot, once).
  EngineStats Stats() const;
  EngineStats ShardStats(int32_t shard) const;

  // Writer-side views (serialize externally against Ingest) — test and
  // golden-print hooks.
  const KnowledgeGraph& graph() const { return writer_.live(); }
  const Tensor& EntityEmbedding(EntityId e) const { return writer_.Row(e); }

 private:
  RouterConfig config_;
  core::DekgIlpModel* model_;
  SnapshotWriter writer_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<InferenceEngine>> shards_;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_ROUTER_H_
