#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "eval/evaluator.h"

namespace dekg::serve {

namespace {

// Power-of-2 bucket for a batch of `count` triples: [2^b, 2^(b+1)).
size_t HistBucket(int64_t count) {
  size_t b = 0;
  while (count > 1 && b < 15) {
    count >>= 1;
    ++b;
  }
  return b;
}

double Percentile(std::vector<double> sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_samples.size() - 1) + 0.5);
  return sorted_samples[std::min(idx, sorted_samples.size() - 1)];
}

}  // namespace

MicroBatcher::MicroBatcher(Router* router, const BatcherConfig& config)
    : router_(router), config_(config) {
  DEKG_CHECK_GT(config_.max_batch_triples, 0);
  latency_ring_.reserve(kLatencyWindow);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

MicroBatcher::~MicroBatcher() { Drain(); }

std::future<ScoreResponse> MicroBatcher::SubmitScore(ScoreRequest request) {
  Work work;
  work.kind = Work::Kind::kScore;
  work.score = std::move(request);
  std::future<ScoreResponse> future = work.score_promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ScoreResponse response;
      response.status = Status::kShuttingDown;
      response.error = "server is draining";
      work.score_promise.set_value(std::move(response));
      return future;
    }
    ++requests_admitted_;
    queue_.push_back(std::move(work));
  }
  cv_.notify_one();
  return future;
}

std::future<IngestResponse> MicroBatcher::SubmitIngest(IngestRequest request) {
  Work work;
  work.kind = Work::Kind::kIngest;
  work.ingest = std::move(request);
  std::future<IngestResponse> future = work.ingest_promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      IngestResponse response;
      response.status = Status::kShuttingDown;
      response.error = "server is draining";
      work.ingest_promise.set_value(std::move(response));
      return future;
    }
    ++requests_admitted_;
    queue_.push_back(std::move(work));
  }
  cv_.notify_one();
  return future;
}

std::future<StatsResponse> MicroBatcher::SubmitStats() {
  Work work;
  work.kind = Work::Kind::kStats;
  std::future<StatsResponse> future = work.stats_promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      StatsResponse response;
      response.status = Status::kShuttingDown;
      work.stats_promise.set_value(std::move(response));
      return future;
    }
    queue_.push_back(std::move(work));
  }
  cv_.notify_one();
  return future;
}

void MicroBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && joined_) return;
    draining_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  joined_ = true;
}

void MicroBatcher::SchedulerLoop() {
  for (;;) {
    std::vector<Work> batch;  // consecutive scoring requests
    Work other;               // one ingest / stats barrier request
    bool have_other = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and fully drained
      Work first = std::move(queue_.front());
      queue_.pop_front();
      if (first.kind != Work::Kind::kScore) {
        other = std::move(first);
        have_other = true;
      } else {
        int64_t total =
            static_cast<int64_t>(first.score.triples.size());
        batch.push_back(std::move(first));
        while (!queue_.empty() && queue_.front().kind == Work::Kind::kScore) {
          const int64_t next =
              static_cast<int64_t>(queue_.front().score.triples.size());
          if (total + next > config_.max_batch_triples) break;
          total += next;
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    if (!batch.empty()) {
      RunScoreBatch(&batch);
    } else if (have_other && other.kind == Work::Kind::kIngest) {
      IngestResponse response;
      response.request_id = other.ingest.request_id;
      router_->Ingest(other.ingest.triples, &response);
      RecordLatency(other.admitted.ElapsedMillis());
      other.ingest_promise.set_value(std::move(response));
    } else if (have_other) {
      other.stats_promise.set_value(BuildStats());
    }
  }
}

void MicroBatcher::RunScoreBatch(std::vector<Work>* works) {
  struct Slot {
    size_t work;
    size_t offset;
    size_t count;
  };
  std::vector<Slot> slots;
  std::vector<ScoreItem> items;
  for (size_t wi = 0; wi < works->size(); ++wi) {
    Work& work = (*works)[wi];
    std::string error;
    const Status status = router_->ValidateScore(work.score.triples, &error);
    if (status != Status::kOk) {
      ScoreResponse response;
      response.request_id = work.score.request_id;
      response.status = status;
      response.error = error;
      RecordLatency(work.admitted.ElapsedMillis());
      work.score_promise.set_value(std::move(response));
      continue;
    }
    slots.push_back(Slot{wi, items.size(), work.score.triples.size()});
    for (size_t i = 0; i < work.score.triples.size(); ++i) {
      // Item seed (the memo key) derived from the request's own seed and
      // the triple's *logical* index (chunk offset + index within the
      // frame): micro-batch packing and client-side pipelined splitting
      // cannot change it.
      items.push_back(ScoreItem{
          work.score.triples[i],
          MixSeed(work.score.seed,
                  work.score.index_offset + static_cast<uint64_t>(i))});
    }
  }

  std::vector<double> scores;
  if (!items.empty()) {
    scores = router_->ScoreBatch(items);
    ++batches_scored_;
    triples_scored_ += items.size();
    ++batch_hist_[HistBucket(static_cast<int64_t>(items.size()))];
  }

  for (const Slot& slot : slots) {
    Work& work = (*works)[slot.work];
    ScoreResponse response;
    response.request_id = work.score.request_id;
    response.scores.assign(scores.begin() + static_cast<int64_t>(slot.offset),
                           scores.begin() +
                               static_cast<int64_t>(slot.offset + slot.count));
    if (work.score.with_rank) {
      response.has_rank = true;
      const std::vector<double> negatives(response.scores.begin() + 1,
                                          response.scores.end());
      response.rank = RankOf(response.scores[0], negatives);
    }
    RecordLatency(work.admitted.ElapsedMillis());
    work.score_promise.set_value(std::move(response));
  }
}

void MicroBatcher::RecordLatency(double millis) {
  if (latency_ring_.size() < kLatencyWindow) {
    latency_ring_.push_back(millis);
  } else {
    latency_ring_[latency_cursor_] = millis;
  }
  latency_cursor_ = (latency_cursor_ + 1) % kLatencyWindow;
  ++latency_samples_;
}

StatsResponse MicroBatcher::BuildStats() {
  StatsResponse stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queue_depth = queue_.size();
    stats.requests_admitted = requests_admitted_;
  }
  stats.batches_scored = batches_scored_;
  stats.triples_scored = triples_scored_;
  for (size_t b = 0; b < 16; ++b) stats.batch_hist[b] = batch_hist_[b];
  std::vector<double> sorted = latency_ring_;
  std::sort(sorted.begin(), sorted.end());
  stats.latency_p50_ms = Percentile(sorted, 0.50);
  stats.latency_p99_ms = Percentile(sorted, 0.99);
  stats.latency_samples = latency_samples_;
  const EngineStats engine = router_->Stats();
  stats.cache_hits = engine.cache_hits;
  stats.cache_misses = engine.cache_misses;
  stats.cache_entries = engine.cache_entries;
  stats.cache_evictions = engine.cache_evictions;
  stats.cache_invalidated = engine.cache_invalidated;
  stats.cache_bytes = engine.cache_bytes;
  stats.graph_triples = engine.graph_triples;
  stats.graph_entities = engine.graph_entities;
  stats.ingested_triples = engine.ingested_triples;
  stats.embedding_refreshes = engine.embedding_refreshes;
  stats.epoch = router_->epoch();
  stats.uptime_s = uptime_.ElapsedSeconds();
  stats.frozen_row_bytes = engine.frozen_row_bytes;
  stats.frozen_weight_bytes = engine.frozen_weight_bytes;
  stats.shards.reserve(static_cast<size_t>(router_->num_shards()));
  for (int32_t s = 0; s < router_->num_shards(); ++s) {
    const EngineStats one = router_->ShardStats(s);
    ShardStatsBlock block;
    block.shard = static_cast<uint32_t>(s);
    block.cache_hits = one.cache_hits;
    block.cache_misses = one.cache_misses;
    block.cache_entries = one.cache_entries;
    stats.shards.push_back(block);
  }
  return stats;
}

}  // namespace dekg::serve
