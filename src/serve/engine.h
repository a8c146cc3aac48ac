// Inference engine of the online scoring server (DESIGN.md §9, §14): one
// shard of a serve::Router.
//
// Owns a shard's resident subgraphs in one serve::ShardCache
// (serve/shard_cache.h), which makes every residency decision, and
// borrows the frozen DEKG-ILP model and the router's shared
// SnapshotWriter, which it never ingests into. It reads graph + CLRM
// rows from epoch-tagged immutable snapshots (serve/snapshot.h): at the
// start of every ScoreBatch it loads the current snapshot and, if epochs
// advanced since it last looked, takes the endpoints of the edges
// appended since the edge count it caught up to and invalidates every
// resident subgraph whose touched set holds one (DESIGN.md §13). That
// is sound because ingest only appends edges: the snapshot graph equals
// the cached graph plus those edges, and a cached extraction that no new
// edge touches is exactly what a fresh extraction would return.
//
// Three operations, all invoked from one thread at a time (the
// scheduler thread, or one router fan-out worker per shard):
//
//  * ScoreBatch — scores a micro-batch of triples against the current
//    snapshot. Cache lookups and insertions are serial (index order);
//    extraction of misses and core::ScoreInference fan out over the
//    thread pool with read-only shared state, so results are
//    bit-identical at any thread count.
//  * CatchUpCache — the ingest-side cache maintenance, factored out so
//    the router can run it synchronously per shard (deterministic
//    server mode) or let each shard self-serve lazily.
//  * Stats — counter snapshot.
//
// Determinism contract: a score depends only on (triple, snapshot graph)
// — never on micro-batch composition, cache state, shard assignment, or
// thread count. ScoreItem::seed only keys the score memo. At fp32 a score
// equals DekgIlpPredictor::ScoreTriples on the statically built
// equivalent graph bit for bit: both run core::ScoreInference, the
// snapshot rows are the predictor's fused rows, and cached and fresh
// extractions are identical by determinism of extraction.
#ifndef DEKG_SERVE_ENGINE_H_
#define DEKG_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dekg_ilp.h"
#include "graph/subgraph.h"
#include "serve/live_graph.h"
#include "serve/protocol.h"
#include "serve/shard_cache.h"
#include "serve/snapshot.h"

namespace dekg::serve {

struct EngineConfig {
  // Maximum resident cached subgraphs per shard (0 = unlimited), evicted
  // FIFO by the shard's ShardCache.
  int64_t cache_capacity = 4096;
  LiveGraphConfig live_graph;
  // Packed-batch grouping handed to core::ScoreInference. Bitwise
  // transparent (DESIGN.md §11); servers keep the default.
  core::GsmBatchOptions gsm_batch;
  // Score memo: finished scores keyed by (triple, item seed), valid for
  // one snapshot epoch (flushed whenever the cache catches up to a newer
  // epoch, since scores depend on the graph). A score is a pure function
  // of (triple, snapshot graph) — the engine determinism contract — so
  // replaying the stored double is bit-identical to recomputing it,
  // and repeated hot queries skip the GNN forward entirely. Capacity is
  // a hard bound on resident entries; when full, new scores are simply
  // not memoized (no eviction, so hit/miss behavior is a pure function
  // of the request history). 0 disables the memo — benches and tests
  // that measure the subgraph-cache path itself set 0.
  int64_t score_memo_capacity = 1 << 16;
  // Storage precision of the frozen serving model (DESIGN.md §15). fp32
  // is the exact mode — bit-identical to offline Evaluate, the
  // repository determinism contract. fp16/int8 quantize the materialized
  // CLRM fusion rows and the R-GCN dense transforms at engine startup
  // (the fp32 copies are dropped — that is the footprint reduction) and
  // score through quant/qkernels.h. Quantized scores are epsilon-gated
  // against fp32 (tests/quant_gate_test.cc) but remain bit-deterministic
  // across thread counts, batch compositions, and shard assignments.
  quant::Precision precision = quant::Precision::kFp32;
};

// One unit of scoring work: the triple plus its derived item seed
// (MixSeed(request_seed, index_within_request), derived by the batcher).
// The score does not depend on the seed; it only keys the score memo.
struct ScoreItem {
  Triple triple;
  uint64_t seed = 0;
};

struct EngineStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;    // capacity-driven removals
  uint64_t cache_invalidated = 0;  // ingest-driven removals
  uint64_t cache_bytes = 0;  // subgraph payload only
  // Touched-entity index: posting bytes (ShardCache::index_bytes) and
  // full sweeps of its stale postings.
  uint64_t index_bytes = 0;
  uint64_t index_sweeps = 0;
  uint64_t graph_triples = 0;
  uint64_t graph_entities = 0;
  uint64_t ingested_triples = 0;
  uint64_t embedding_refreshes = 0;  // CLRM rows recomputed after startup
  uint64_t memo_hits = 0;            // scores replayed from the memo
  uint64_t memo_misses = 0;          // scores that ran the full pipeline
  uint64_t memo_entries = 0;         // resident memoized scores
  // Frozen-model accounting (protocol v4): storage precision of the
  // frozen model (quant::Precision numeric value) and the byte footprint
  // of the materialized fusion rows / R-GCN dense transforms at that
  // precision.
  uint8_t precision = 0;
  uint64_t frozen_row_bytes = 0;
  uint64_t frozen_weight_bytes = 0;
};

class InferenceEngine {
 public:
  // `model` and `writer` must outlive the engine; the model is treated as
  // frozen, and `writer` is shared with the router's other shards (this
  // engine never calls its Ingest). Starts caught up to the writer's
  // current epoch (the cache is empty, so there is nothing to maintain).
  InferenceEngine(core::DekgIlpModel* model, SnapshotWriter* writer,
                  const EngineConfig& config);

  // Scores every item against the current snapshot, catching the cache
  // up first if ingest epochs landed since the last batch. Items must
  // have passed validation against that snapshot (or an earlier one —
  // the graph only grows).
  std::vector<double> ScoreBatch(const std::vector<ScoreItem>& items);

  // Brings the cache up to `snap`'s epoch: takes the endpoints of the
  // snapshot's edges appended since the last catch-up and drops exactly
  // the resident entries whose touched set holds one. When `response` is
  // non-null the drop count is ADDED to its `invalidated` (the router
  // accumulates one response across shards). No-op when already caught
  // up.
  void CatchUpCache(const GraphSnapshot& snap, IngestResponse* response);

  uint64_t caught_up_epoch() const { return caught_up_epoch_; }

  EngineStats Stats() const;

 private:
  // (triple, derived item seed): the memo key.
  struct MemoKey {
    Triple triple;
    uint64_t seed = 0;
    bool operator==(const MemoKey& o) const {
      return triple == o.triple && seed == o.seed;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      const size_t h = TripleHash{}(k.triple);
      return h ^ (static_cast<size_t>(k.seed) * 0x9E3779B97F4A7C15ull + (h << 6));
    }
  };

  // The full scoring pipeline (cache lookup / extract / ScoreInference /
  // admit) against one pinned snapshot — everything ScoreBatch does
  // behind the memo front-end.
  std::vector<double> ScoreBatchAgainstSnapshot(
      const GraphSnapshot& snap, const std::vector<ScoreItem>& items);

  core::DekgIlpModel* model_;
  EngineConfig config_;
  SnapshotWriter* writer_;

  // Quantized R-GCN dense transforms, built once at construction when
  // config_.precision != fp32 and the model has a GSM (null otherwise).
  // Each engine owns its copy — weights are per-model, not per-shard
  // state, and the duplication is small next to the fusion rows.
  std::unique_ptr<quant::RgcnQuantWeights> qweights_;

  // The snapshot epoch (and that snapshot's edge count) the cache state
  // is consistent with: every resident subgraph equals a fresh
  // extraction against the graph at this epoch.
  uint64_t caught_up_epoch_ = 0;
  int64_t caught_up_edges_ = 0;

  // The resident subgraphs (FIFO at config_.cache_capacity) and,
  // inverted, the keys each entity's new edges can affect.
  ShardCache cache_;

  // Finished-score memo for the caught-up epoch (see
  // EngineConfig::score_memo_capacity). Flushed by CatchUpCache on every
  // epoch advance.
  std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;

  uint64_t invalidated_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_ENGINE_H_
