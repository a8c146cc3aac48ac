#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "quant/qkernels.h"

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
                                 const KnowledgeGraph& base,
                                 const EngineConfig& config)
    : model_(model),
      config_(config),
      owned_writer_(std::make_unique<SnapshotWriter>(
          model, base, config.live_graph, config.precision)),
      writer_(owned_writer_.get()),
      qweights_(BuildQuantWeights(model, config.precision)),
      caught_up_epoch_(owned_writer_->epoch()),
      caught_up_edges_(owned_writer_->live().num_triples()) {}

InferenceEngine::InferenceEngine(core::DekgIlpModel* model,
                                 SnapshotWriter* writer,
                                 const EngineConfig& config)
    : model_(model),
      config_(config),
      writer_(writer),
      qweights_(BuildQuantWeights(model, config.precision)),
      caught_up_epoch_(writer->epoch()),
      caught_up_edges_(writer->live().num_triples()) {
  // A follower reads the shared writer's rows; a precision mismatch
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
  // score is a pure function of (triple, seed, snapshot graph), and the
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
  const RowTable<Tensor>::Version& rows = snap.entity_emb;
  core::Clrm* clrm = model_->clrm();
  core::Gsm* gsm = model_->gsm();
  const size_t n = items.size();
  std::vector<double> scores(n, 0.0);

  // Phase 1 (serial): cache lookups, with hit/miss counting.
  std::vector<const Subgraph*> subs(n, nullptr);
  std::vector<int64_t> miss;
  std::vector<Subgraph> miss_subs;
  std::vector<TouchedLabels> miss_labels;
  if (gsm != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      subs[i] = cache_.Lookup(items[i].triple);
      if (subs[i] == nullptr) miss.push_back(static_cast<int64_t>(i));
    }
    // Phase 2 (parallel): extract the misses into batch-local storage.
    // Extraction is RNG-free and reads only the const snapshot graph;
    // the sparse touched-set labels are captured from each workspace —
    // they feed the invalidation index and the ingest-patch
    // re-relaxation.
    miss_subs.resize(miss.size());
    miss_labels.resize(miss.size());
    ParallelFor(0, static_cast<int64_t>(miss.size()), /*grain=*/0,
                [&](int64_t begin, int64_t end) {
                  SubgraphWorkspace* workspace =
                      GetThreadLocalSubgraphWorkspace();
                  for (int64_t m = begin; m < end; ++m) {
                    const Triple& t =
                        items[static_cast<size_t>(miss[static_cast<size_t>(m)])]
                            .triple;
                    miss_subs[static_cast<size_t>(m)] =
                        gsm->Extract(g, t, workspace);
                    miss_labels[static_cast<size_t>(m)] =
                        TouchedEntityLabels(*workspace);
                  }
                });
    for (size_t m = 0; m < miss.size(); ++m) {
      subs[static_cast<size_t>(miss[m])] = &miss_subs[m];
    }
  }

  // Phase 3 (parallel): model scoring. Same term order as
  // DekgIlpModel::ScoreLink: sem, then Add(sem, tpo) — the packed branch
  // adds in float before widening to double for the identical bits.
  // Quantized GSM scoring always packs: the per-item ScoreSubgraph path
  // builds an autograd tape over the fp32 parameters and stays
  // fp32-only.
  const bool quantized = config_.precision != quant::Precision::kFp32;
  const RowTable<quant::QuantRow>::Version& qrows = snap.entity_emb_q;
  // Row base of r^sem for the quantized DistMult decoder.
  const float* rel_sem_data = nullptr;
  int64_t rel_sem_dim = 0;
  if (quantized && clrm != nullptr) {
    const Tensor& rel_sem = clrm->relation_sem().value();
    rel_sem_data = rel_sem.Data();
    rel_sem_dim = rel_sem.dim(1);
  }
  const bool pack =
      gsm != nullptr && (config_.gsm_batch.max_batch > 1 || quantized);
  if (pack) {
    // Every item's subgraph is in hand (cache hit or fresh extraction),
    // so the whole micro-batch packs into block-diagonal GNN forwards.
    std::vector<int64_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<int64_t>(i);
    const std::vector<std::vector<int64_t>> groups =
        core::GroupForPacking(subs, all, config_.gsm_batch);
    ParallelFor(
        0, static_cast<int64_t>(groups.size()), /*grain=*/0,
        [&](int64_t begin, int64_t end) {
          std::vector<const Subgraph*> group_subs;
          std::vector<RelationId> group_rels;
          for (int64_t b = begin; b < end; ++b) {
            const std::vector<int64_t>& idxs =
                groups[static_cast<size_t>(b)];
            group_subs.clear();
            group_rels.clear();
            for (int64_t i : idxs) {
              group_subs.push_back(subs[static_cast<size_t>(i)]);
              group_rels.push_back(
                  items[static_cast<size_t>(i)].triple.rel);
            }
            const std::vector<float> tpo = gsm->ScoreSubgraphsPacked(
                group_subs, group_rels, qweights_.get());
            for (size_t k = 0; k < idxs.size(); ++k) {
              const int64_t i = idxs[k];
              const ScoreItem& item = items[static_cast<size_t>(i)];
              float value = tpo[k];
              if (clrm != nullptr) {
                const float sem =
                    quantized
                        ? quant::QuantDistMult(
                              *qrows[static_cast<size_t>(item.triple.head)],
                              rel_sem_data + item.triple.rel * rel_sem_dim,
                              *qrows[static_cast<size_t>(item.triple.tail)])
                        : clrm->ScoreEmbedded(
                                  *rows[static_cast<size_t>(
                                      item.triple.head)],
                                  item.triple.rel,
                                  *rows[static_cast<size_t>(
                                      item.triple.tail)])
                              .value()
                              .Data()[0];
                value = sem + value;
              }
              scores[static_cast<size_t>(i)] = static_cast<double>(value);
            }
          }
        });
  } else if (quantized) {
    // CLRM-only quantized scoring (gsm != nullptr forces `pack` above).
    ParallelFor(0, static_cast<int64_t>(n), /*grain=*/0,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    const ScoreItem& item = items[static_cast<size_t>(i)];
                    scores[static_cast<size_t>(i)] =
                        static_cast<double>(quant::QuantDistMult(
                            *qrows[static_cast<size_t>(item.triple.head)],
                            rel_sem_data + item.triple.rel * rel_sem_dim,
                            *qrows[static_cast<size_t>(item.triple.tail)]));
                  }
                });
  } else {
    ParallelFor(0, static_cast<int64_t>(n), /*grain=*/0,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    const ScoreItem& item = items[static_cast<size_t>(i)];
                    Rng rng(item.seed);
                    ag::Var score;
                    if (clrm != nullptr) {
                      score = clrm->ScoreEmbedded(
                          *rows[static_cast<size_t>(item.triple.head)],
                          item.triple.rel,
                          *rows[static_cast<size_t>(item.triple.tail)]);
                    }
                    if (gsm != nullptr) {
                      ag::Var tpo = gsm->ScoreSubgraph(
                          *subs[static_cast<size_t>(i)], item.triple.rel,
                          /*training=*/false, &rng);
                      score = score.defined() ? ag::Add(score, tpo) : tpo;
                    }
                    scores[static_cast<size_t>(i)] =
                        static_cast<double>(score.value().Data()[0]);
                  }
                });
  }

  // Phase 4 (serial, index order): admit the misses. Insertion after
  // scoring means a capacity-bounded cache can never evict a subgraph
  // this same batch still needs. Admitted entries were extracted from
  // `snap`, which CatchUpCache made the cache consistent with above.
  for (size_t m = 0; m < miss.size(); ++m) {
    const Triple& t = items[static_cast<size_t>(miss[m])].triple;
    if (key_meta_.count(t) > 0) continue;  // duplicate within the batch
    cache_.Insert(t, std::move(miss_subs[m]));
    CachedMeta meta;
    meta.labels = std::move(miss_labels[m]);
    meta.seq = insert_seq_++;
    for (EntityId e : meta.labels.entities) entity_index_[e].insert(t);
    fifo_.push_back(FifoSlot{t, meta.seq});
    key_meta_.emplace(t, std::move(meta));
  }
  EnforceCapacity();
  return scores;
}

void InferenceEngine::Ingest(const std::vector<Triple>& triples,
                             IngestResponse* response) {
  DEKG_CHECK(owned_writer_ != nullptr)
      << "follower engines never ingest; route through the writer";
  IngestReport report;
  std::string error;
  const Status status = writer_->Ingest(triples, &report, &error);
  response->status = status;
  response->error = error;
  if (status != Status::kOk) return;
  response->accepted = report.accepted;
  response->duplicates = report.duplicates;
  response->new_entities = report.new_entities;
  CatchUpCache(*writer_->Current(), response);
}

void InferenceEngine::CatchUpCache(const GraphSnapshot& snap,
                                   IngestResponse* response) {
  if (snap.epoch == caught_up_epoch_) return;
  DEKG_CHECK_GT(snap.epoch, caught_up_epoch_);

  // Memoized scores are valid for exactly one graph; the new epoch's
  // graph is a strict supergraph, so every entry is suspect.
  memo_.clear();

  // The missed epochs' batches, oldest first: the snapshot's edges from
  // the caught-up edge count on. Ingest only appends edges, so the
  // snapshot graph equals the caught-up graph plus exactly these triples
  // — the same shape as a single larger ingest, which is what the patch
  // predicate below reasons about.
  const KnowledgeGraph& g = snap.graph;
  std::vector<Triple> combined;
  std::vector<EntityId> touched;
  for (int64_t id = caught_up_edges_; id < g.num_triples(); ++id) {
    const Edge& e = g.edge(id);
    combined.push_back(Triple{e.src, e.rel, e.dst});
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  caught_up_epoch_ = snap.epoch;
  caught_up_edges_ = g.num_triples();

  // Maintain exactly the cached extractions a new edge can affect: those
  // whose touched set contains an endpoint of a combined-batch triple.
  std::vector<Triple> affected;
  TripleSet seen;
  for (EntityId e : touched) {
    auto it = entity_index_.find(e);
    if (it == entity_index_.end()) continue;
    for (const Triple& key : it->second) {
      if (seen.insert(key).second) affected.push_back(key);
    }
  }

  core::Gsm* gsm = model_->gsm();
  if (!config_.patch_cache || gsm == nullptr) {
    // Invalidate-on-ingest: drop every affected entry; the next lookup
    // pays a full re-extraction.
    for (const Triple& key : affected) RemoveCached(key);
    invalidated_ += affected.size();
    if (response != nullptr) response->invalidated += affected.size();
    return;
  }

  // Patch in place (DESIGN.md §13). The snapshot graph already contains
  // the combined edges, so decrease-only re-relaxation from the new-edge
  // endpoints reaches the exact fresh blocked-BFS fixpoint over the
  // cached touched set — unless a node outside that set would be pulled
  // into the t-hop ball (membership change), in which case the entry
  // falls back to invalidation + full re-extraction on its next lookup.
  const SubgraphConfig sc = gsm->subgraph_config();
  uint64_t removed = 0;
  for (const Triple& key : affected) {
    CachedMeta& meta = key_meta_.find(key)->second;
    bool head_changed = false;
    bool tail_changed = false;
    const bool patchable =
        RelaxDistancesAfterEdgeInsert(g, key.head, key.tail, sc.num_hops,
                                      combined, meta.labels.entities,
                                      &meta.labels.dist_head,
                                      &head_changed) &&
        RelaxDistancesAfterEdgeInsert(g, key.tail, key.head, sc.num_hops,
                                      combined, meta.labels.entities,
                                      &meta.labels.dist_tail, &tail_changed);
    if (!patchable) {
      RemoveCached(key);
      ++fallback_;
      ++invalidated_;
      ++removed;
      continue;
    }
    // The touched union set is unchanged, so entity_index_ stays valid;
    // the rebuild goes through the same assembly path fresh extraction
    // uses, so the swapped payload is bit-identical to ExtractSubgraph
    // on the snapshot graph.
    cache_.Replace(key,
                   BuildSubgraphFromLabels(g, key.head, key.tail, key.rel, sc,
                                           meta.labels, &patch_workspace_));
    if (head_changed || tail_changed) {
      ++repaired_;
      if (response != nullptr) ++response->repaired;
    } else {
      ++patched_;
      if (response != nullptr) ++response->patched;
    }
  }
  if (response != nullptr) response->invalidated += removed;
}

void InferenceEngine::RemoveCached(const Triple& key) {
  auto it = key_meta_.find(key);
  if (it == key_meta_.end()) return;
  cache_.Erase(key);
  for (EntityId e : it->second.labels.entities) {
    auto idx = entity_index_.find(e);
    if (idx == entity_index_.end()) continue;
    idx->second.erase(key);
    if (idx->second.empty()) entity_index_.erase(idx);
  }
  key_meta_.erase(it);
}

void InferenceEngine::EnforceCapacity() {
  if (config_.cache_capacity <= 0) return;
  while (static_cast<int64_t>(key_meta_.size()) > config_.cache_capacity) {
    DEKG_CHECK(!fifo_.empty());
    const FifoSlot victim = fifo_.front();
    fifo_.pop_front();
    // Stale queue slots are skipped: a slot whose sequence number no
    // longer matches the resident entry belongs to an invalidated (and
    // possibly re-inserted) key, so acting on it would retire the new
    // incarnation early. Matching on (key, seq) makes eviction order a
    // pure function of the insertion history.
    auto it = key_meta_.find(victim.triple);
    if (it == key_meta_.end() || it->second.seq != victim.seq) continue;
    RemoveCached(victim.triple);
    ++evictions_;
  }
}

EngineStats InferenceEngine::Stats() const {
  EngineStats stats;
  const SubgraphCache::Stats& cs = cache_.stats();
  stats.cache_hits = static_cast<uint64_t>(cs.hits);
  stats.cache_misses = static_cast<uint64_t>(cs.misses);
  stats.cache_entries = static_cast<uint64_t>(cs.entries);
  stats.cache_bytes = static_cast<uint64_t>(cs.bytes);
  stats.cache_evictions = evictions_;
  stats.cache_invalidated = invalidated_;
  stats.cache_patched = patched_;
  stats.cache_repaired = repaired_;
  stats.cache_fallback = fallback_;
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
