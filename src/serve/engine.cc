#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace dekg::serve {

namespace {

// Quantizes the model's R-GCN dense transforms once per engine; null for
// fp32 (the fp32 path reads the parameters directly) and for GSM-less
// models.
std::unique_ptr<quant::RgcnQuantWeights> BuildQuantWeights(
    core::DekgIlpModel* model, quant::Precision precision) {
  if (precision == quant::Precision::kFp32 || model->gsm() == nullptr) {
    return nullptr;
  }
  return std::make_unique<quant::RgcnQuantWeights>(
      model->gsm()->QuantizeFrozenWeights(precision));
}

}  // namespace

InferenceEngine::InferenceEngine(core::DekgIlpModel* model,
                                 SnapshotWriter* writer,
                                 const EngineConfig& config)
    : model_(model),
      config_(config),
      writer_(writer),
      qweights_(BuildQuantWeights(model, config.precision)),
      caught_up_epoch_(writer->epoch()),
      caught_up_edges_(writer->live().num_triples()),
      cache_(config.cache_capacity) {
  // The engine reads the shared writer's rows; a precision mismatch
  // would score fp32 rows through quantized kernels (or vice versa).
  DEKG_CHECK(writer->precision() == config_.precision)
      << "engine precision must match the shared SnapshotWriter's";
}

std::vector<double> InferenceEngine::ScoreBatch(
    const std::vector<ScoreItem>& items) {
  // One snapshot for the whole batch: a concurrent ingest publishing a
  // newer epoch cannot move the graph or the rows under this batch's
  // feet, and the shared_ptr keeps the old epoch alive until we return.
  const std::shared_ptr<const GraphSnapshot> snap = writer_->Current();
  CatchUpCache(*snap, nullptr);  // flushes the memo on an epoch advance
  if (config_.score_memo_capacity <= 0) {
    return ScoreBatchAgainstSnapshot(*snap, items);
  }

  // Memo front-end: replay finished scores for (triple, seed) pairs this
  // epoch has already computed; run the pipeline only for the rest. A
  // score is a pure function of (triple, snapshot graph), and the
  // pipeline's result is invariant to batch composition, so scoring the
  // miss subset produces the exact bits the full batch would have.
  const size_t n = items.size();
  std::vector<double> scores(n, 0.0);
  std::vector<ScoreItem> fresh;
  std::vector<size_t> fresh_pos;
  for (size_t i = 0; i < n; ++i) {
    const auto it = memo_.find(MemoKey{items[i].triple, items[i].seed});
    if (it != memo_.end()) {
      scores[i] = it->second;
      ++memo_hits_;
    } else {
      fresh.push_back(items[i]);
      fresh_pos.push_back(i);
      ++memo_misses_;
    }
  }
  if (!fresh.empty()) {
    const std::vector<double> computed = ScoreBatchAgainstSnapshot(*snap, fresh);
    for (size_t k = 0; k < fresh.size(); ++k) {
      scores[fresh_pos[k]] = computed[k];
      // At capacity new scores are simply not memoized: no eviction, so
      // hit/miss behavior stays a pure function of the request history.
      if (static_cast<int64_t>(memo_.size()) < config_.score_memo_capacity) {
        memo_.emplace(MemoKey{fresh[k].triple, fresh[k].seed}, computed[k]);
      }
    }
  }
  return scores;
}

std::vector<double> InferenceEngine::ScoreBatchAgainstSnapshot(
    const GraphSnapshot& snap, const std::vector<ScoreItem>& items) {
  const KnowledgeGraph& g = snap.graph;
  const core::Gsm* gsm = model_->gsm();
  const size_t n = items.size();
  std::vector<Triple> triples(n);
  for (size_t i = 0; i < n; ++i) triples[i] = items[i].triple;

  // Phase 1 (serial): cache lookups, with hit/miss counting. A triple
  // repeated within the batch is extracted (and admitted) once.
  std::vector<const Subgraph*> subs;
  std::vector<Triple> miss;  // distinct missed triples, first-seen order
  std::vector<Subgraph> miss_subs;
  std::vector<std::vector<EntityId>> miss_touched;
  if (gsm != nullptr) {
    subs.assign(n, nullptr);
    std::vector<size_t> miss_slot(n, 0);
    std::unordered_map<Triple, size_t, TripleHash> slot_of;
    for (size_t i = 0; i < n; ++i) {
      subs[i] = cache_.Lookup(triples[i]);
      if (subs[i] != nullptr) continue;
      const auto [it, fresh] = slot_of.emplace(triples[i], miss.size());
      if (fresh) miss.push_back(triples[i]);
      miss_slot[i] = it->second;
    }
    // Phase 2 (parallel): extract the misses into batch-local storage.
    // Extraction is RNG-free and reads only the const snapshot graph;
    // each touched set is captured from the workspace for the
    // touched-entity postings.
    miss_subs.resize(miss.size());
    miss_touched.resize(miss.size());
    ParallelFor(0, static_cast<int64_t>(miss.size()), /*grain=*/0,
                [&](int64_t begin, int64_t end) {
                  SubgraphWorkspace* workspace =
                      GetThreadLocalSubgraphWorkspace();
                  for (int64_t m = begin; m < end; ++m) {
                    miss_subs[static_cast<size_t>(m)] =
                        gsm->Extract(g, miss[static_cast<size_t>(m)], workspace);
                    miss_touched[static_cast<size_t>(m)] =
                        TouchedEntities(*workspace);
                  }
                });
    for (size_t i = 0; i < n; ++i) {
      if (subs[i] == nullptr) subs[i] = &miss_subs[miss_slot[i]];
    }
  }

  // Phase 3 (parallel): the one inference path, over the snapshot's rows.
  core::ClrmRows rows;
  if (snap.precision == quant::Precision::kFp32) {
    rows.fp32 = [&](EntityId e) -> const Tensor& {
      return *snap.entity_emb[static_cast<size_t>(e)];
    };
  } else {
    rows.quantized = [&](EntityId e) -> const quant::QuantRow& {
      return *snap.entity_emb_q[static_cast<size_t>(e)];
    };
  }
  std::vector<double> scores =
      core::ScoreInference(model_->clrm(), gsm, triples, subs, rows,
                           qweights_.get(), config_.gsm_batch);

  // Phase 4 (serial, first-miss order): admit the misses. Admission after
  // scoring means a capacity-bounded cache can never evict a subgraph
  // this same batch still needs. Admitted entries were extracted from
  // `snap`, which CatchUpCache made the cache consistent with above.
  for (size_t m = 0; m < miss.size(); ++m) {
    cache_.Admit(miss[m], std::move(miss_subs[m]), miss_touched[m]);
  }
  return scores;
}

void InferenceEngine::CatchUpCache(const GraphSnapshot& snap,
                                   IngestResponse* response) {
  if (snap.epoch == caught_up_epoch_) return;
  DEKG_CHECK_GT(snap.epoch, caught_up_epoch_);

  // Memoized scores are valid for exactly one graph; the new epoch's
  // graph is a strict supergraph, so every entry is suspect.
  memo_.clear();

  // The missed epochs' edges: the snapshot's edges from the caught-up
  // edge count on. Ingest only appends edges, so the snapshot graph
  // equals the caught-up graph plus exactly these.
  const KnowledgeGraph& g = snap.graph;
  std::vector<EntityId> touched;
  for (int64_t id = caught_up_edges_; id < g.num_triples(); ++id) {
    const Edge& e = g.edge(id);
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  caught_up_epoch_ = snap.epoch;
  caught_up_edges_ = g.num_triples();

  // Invalidate exactly the cached extractions a new edge can affect:
  // those whose touched set holds an endpoint of one (TouchedEntities in
  // graph/subgraph.h has the argument). The next lookup re-extracts.
  const std::vector<Triple> affected = cache_.Affected(touched);
  for (const Triple& key : affected) cache_.Remove(key);
  invalidated_ += affected.size();
  if (response != nullptr) response->invalidated += affected.size();
}

EngineStats InferenceEngine::Stats() const {
  EngineStats stats;
  const ShardCache::Stats& cs = cache_.stats();
  stats.cache_hits = static_cast<uint64_t>(cs.hits);
  stats.cache_misses = static_cast<uint64_t>(cs.misses);
  stats.cache_entries = static_cast<uint64_t>(cs.entries);
  stats.cache_bytes = static_cast<uint64_t>(cs.bytes);
  stats.cache_evictions = static_cast<uint64_t>(cs.evictions);
  stats.cache_invalidated = invalidated_;
  stats.index_bytes = static_cast<uint64_t>(cache_.index_bytes());
  stats.index_sweeps = static_cast<uint64_t>(cache_.sweeps());
  // Graph counters come off the published snapshot so Stats is safe to
  // call where only Current() is (any thread, any time).
  const std::shared_ptr<const GraphSnapshot> snap = writer_->Current();
  stats.graph_triples = static_cast<uint64_t>(snap->graph.num_triples());
  stats.graph_entities = static_cast<uint64_t>(snap->graph.num_entities());
  stats.ingested_triples = writer_->ingested_triples();
  stats.embedding_refreshes = writer_->embedding_refreshes();
  stats.memo_hits = memo_hits_;
  stats.memo_misses = memo_misses_;
  stats.memo_entries = static_cast<uint64_t>(memo_.size());
  stats.precision = static_cast<uint8_t>(config_.precision);
  stats.frozen_row_bytes = writer_->FrozenRowBytes();
  if (qweights_ != nullptr) {
    stats.frozen_weight_bytes = qweights_->PayloadBytes();
  } else if (model_->gsm() != nullptr) {
    stats.frozen_weight_bytes =
        model_->gsm()->FrozenDenseParamCount() * sizeof(float);
  }
  return stats;
}

}  // namespace dekg::serve
