// Micro-batching scheduler of the online scoring server (DESIGN.md §9).
//
// Connection threads enqueue admitted requests; one scheduler thread
// drains the queue in FIFO order, packing consecutive scoring requests
// into micro-batches of at most max_batch_triples triples and running
// them through Router::ScoreBatch (which fans the per-shard sub-batches
// out over the thread pool). Ingest and stats requests act as barriers:
// they run between scoring batches on the scheduler thread, which is
// the only thread that ever touches the router — graph mutation, cache
// bookkeeping, and scoring never overlap, by construction.
//
// Determinism: a score depends only on (triple, snapshot graph), so
// scores are independent of how requests get packed into micro-batches.
// Each triple's item seed, which keys the engines' score memo, is derived
// here as MixSeed(request.seed, request.index_offset +
// index_within_request), so a logical request a pipelined client split
// into chunks (each carrying its logical offset) keys the memo exactly as
// the unsplit request does. The scheduler never waits for the queue to
// fill: it seals a batch as soon as no further queued scoring request
// fits, so batching adds no timer latency.
#ifndef DEKG_SERVE_BATCHER_H_
#define DEKG_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "serve/router.h"
#include "serve/protocol.h"

namespace dekg::serve {

struct BatcherConfig {
  // Micro-batch cap in triples. A single larger request still runs
  // (alone); the cap only stops further packing.
  int64_t max_batch_triples = 256;
};

class MicroBatcher {
 public:
  MicroBatcher(Router* router, const BatcherConfig& config);
  ~MicroBatcher();  // drains

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Admission. After Drain() begins, these return an already-fulfilled
  // future with Status::kShuttingDown.
  std::future<ScoreResponse> SubmitScore(ScoreRequest request);
  std::future<IngestResponse> SubmitIngest(IngestRequest request);
  // Stats run through the queue like any request, so the snapshot is
  // consistent (no engine access from other threads).
  std::future<StatsResponse> SubmitStats();

  // Graceful: stops admission, finishes every queued request, joins the
  // scheduler thread. Idempotent.
  void Drain();

 private:
  struct Work {
    enum class Kind { kScore, kIngest, kStats };
    Kind kind = Kind::kScore;
    ScoreRequest score;
    IngestRequest ingest;
    std::promise<ScoreResponse> score_promise;
    std::promise<IngestResponse> ingest_promise;
    std::promise<StatsResponse> stats_promise;
    Timer admitted;  // admission-to-response latency origin
  };

  void SchedulerLoop();
  void RunScoreBatch(std::vector<Work>* works);
  void RecordLatency(double millis);
  StatsResponse BuildStats();

  Router* router_;
  BatcherConfig config_;
  Timer uptime_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Work> queue_;
  bool draining_ = false;
  uint64_t requests_admitted_ = 0;

  // Scheduler-thread-only state.
  uint64_t batches_scored_ = 0;
  uint64_t triples_scored_ = 0;
  uint64_t batch_hist_[16] = {0};
  std::vector<double> latency_ring_;  // last kLatencyWindow samples
  size_t latency_cursor_ = 0;
  uint64_t latency_samples_ = 0;
  static constexpr size_t kLatencyWindow = 4096;

  std::thread scheduler_;
  bool joined_ = false;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_BATCHER_H_
