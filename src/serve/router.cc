#include "serve/router.h"

#include "common/thread_pool.h"

namespace dekg::serve {

Router::Router(core::DekgIlpModel* model, const KnowledgeGraph& base,
               const RouterConfig& config)
    : config_(config),
      model_(model),
      writer_(model, base, config.engine.live_graph),
      shard_map_(config.num_shards) {
  DEKG_CHECK_GE(config_.num_shards, 1);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int32_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<InferenceEngine>(model_, &writer_, config_.engine));
  }
}

std::vector<double> Router::ScoreBatch(const std::vector<ScoreItem>& items) {
  if (config_.num_shards == 1) return shards_[0]->ScoreBatch(items);

  // Partition by shard, preserving request order within each shard.
  const size_t n = items.size();
  const int32_t num_shards = config_.num_shards;
  std::vector<std::vector<ScoreItem>> shard_items(
      static_cast<size_t>(num_shards));
  std::vector<std::vector<size_t>> shard_pos(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < n; ++i) {
    const int32_t s = shard_map_.ShardOfTriple(items[i].triple);
    shard_items[static_cast<size_t>(s)].push_back(items[i]);
    shard_pos[static_cast<size_t>(s)].push_back(i);
  }

  // Fan out: disjoint index ranges mean each shard's engine (and its
  // cache state) is touched by exactly one worker. The nested
  // ParallelFors inside ScoreBatch run inline-serial on the worker, so
  // shard-level parallelism replaces item-level parallelism here.
  std::vector<std::vector<double>> shard_scores(
      static_cast<size_t>(num_shards));
  ParallelFor(0, num_shards, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t s = begin; s < end; ++s) {
      if (shard_items[static_cast<size_t>(s)].empty()) continue;
      shard_scores[static_cast<size_t>(s)] =
          shards_[static_cast<size_t>(s)]->ScoreBatch(
              shard_items[static_cast<size_t>(s)]);
    }
  });

  // Index-ordered fan-in: shard completion order cannot matter because
  // every score lands at its item's original request index.
  std::vector<double> out(n, 0.0);
  for (size_t s = 0; s < static_cast<size_t>(num_shards); ++s) {
    for (size_t k = 0; k < shard_pos[s].size(); ++k) {
      out[shard_pos[s][k]] = shard_scores[s][k];
    }
  }
  return out;
}

void Router::Ingest(const std::vector<Triple>& triples,
                    IngestResponse* response) {
  IngestReport report;
  std::string error;
  const Status status = writer_.Ingest(triples, &report, &error);
  response->status = status;
  response->error = error;
  if (status != Status::kOk) return;
  response->accepted = report.accepted;
  response->duplicates = report.duplicates;
  response->new_entities = report.new_entities;
  // Serial over shards: maintenance counters accumulate into one
  // response, and the scheduler thread owns every shard right now.
  const std::shared_ptr<const GraphSnapshot> snap = writer_.Current();
  for (auto& shard : shards_) shard->CatchUpCache(*snap, response);
}

EngineStats Router::Stats() const {
  EngineStats total = shards_[0]->Stats();
  for (size_t s = 1; s < shards_.size(); ++s) {
    const EngineStats one = shards_[s]->Stats();
    total.cache_hits += one.cache_hits;
    total.cache_misses += one.cache_misses;
    total.cache_entries += one.cache_entries;
    total.cache_evictions += one.cache_evictions;
    total.cache_invalidated += one.cache_invalidated;
    total.cache_bytes += one.cache_bytes;
    total.index_bytes += one.index_bytes;
    total.index_sweeps += one.index_sweeps;
    total.memo_hits += one.memo_hits;
    total.memo_misses += one.memo_misses;
    total.memo_entries += one.memo_entries;
    // graph_* / ingested / refreshes and the frozen-model fields
    // (frozen_row_bytes, frozen_weight_bytes) are writer-global: every
    // shard reports the same values, so shard 0's stand.
  }
  return total;
}

EngineStats Router::ShardStats(int32_t shard) const {
  return shards_[static_cast<size_t>(shard)]->Stats();
}

}  // namespace dekg::serve
