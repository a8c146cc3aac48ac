// serve_hubs and serve_ingest: the shipped dekg_serve as a child process,
// driven over loopback by serve::Client connections (WORKLOADS.md).
//
// Untraced run: set-up (kSetupRepeats spawns), a cold warm-up,
// kServeRounds rounds of a cold window, a closed-loop window and an
// open-loop window, then the correctness gate against the offline
// predictor. Traced run: the same phases after a single spawn, the wire
// and codec probes, then an in-process replay of the warm-up and the
// start of the closed-loop schedule through the layers' public functions.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "kg/dataset_io.h"
#include "nn/train_checkpoint.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "server_process.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dekg::KnowledgeGraph;
using dekg::Subgraph;
using dekg::Triple;
using dekg::TripleHash;
using dekg::serve::Client;
using dekg::serve::IngestRequest;
using dekg::serve::IngestResponse;
using dekg::serve::ScoreItem;
using dekg::serve::ScoreRequest;
using dekg::serve::ScoreResponse;
using dekg::serve::Status;

constexpr int kSetupRepeats = 5;
constexpr double kSetupTimeoutS = 60.0;
constexpr size_t kWarmupDepth = 4;
constexpr int kClosedConnections = 2;
constexpr size_t kClosedDepth = 32;
// dekg_serve's micro-batch cap, which the in-process replay mirrors.
constexpr int64_t kMaxBatchTriples = 256;
// Closed-loop requests the traced replay runs after the warm-up.
constexpr size_t kReplayRequests = 768;
constexpr int kRttProbes = 200;
// The open-loop sender spins for the last stretch before a send.
constexpr double kSpinS = 200e-6;
// Open-loop request ids start here, so no fact check in the run reuses a
// closed-loop stream position.
constexpr uint64_t kOpenIdBase = uint64_t{1} << 40;

struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  void Add(bool ok, int64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

bool Connect(Client* client, uint16_t port) {
  std::string error;
  if (client->Connect("127.0.0.1", port, &error)) return true;
  Log("connect failed: %s", error.c_str());
  return false;
}

std::vector<Triple> RequestTriples(const ServeInputs& in, const Request& r) {
  const std::vector<Triple>& q = in.queries[static_cast<size_t>(r.query)];
  if (r.kind == RequestKind::kFact) return {q[static_cast<size_t>(r.position)]};
  return q;
}

// A fact check carries its triple at a stream position (index_offset)
// no ranking request uses and no earlier fact check used: the triple is
// repeated at a different request position, so the score memo, keyed on
// (triple, position seed), misses while the subgraph cache holds it.
ScoreRequest MakeScore(const ServeInputs& in, const Request& r, uint64_t id) {
  ScoreRequest request;
  request.request_id = id;
  request.triples = RequestTriples(in, r);
  if (r.kind == RequestKind::kFact) request.index_offset = kQueryTriples + id;
  return request;
}

bool ScoreOk(const ScoreResponse& response, size_t triples) {
  return response.status == Status::kOk && response.scores.size() == triples;
}

// G' in file order, handed out as kIngestBatch-triple ingest requests.
// Holding the lock across the request keeps file order when several
// connections reach ingest slots at once.
class IngestFeed {
 public:
  explicit IngestFeed(std::vector<Triple> emerging)
      : emerging_(std::move(emerging)) {}

  // Sends the next batch; false when G' is used up or the connection
  // failed (the latter also counted in `tally`).
  bool SendNext(Client* client, Tally* tally, std::vector<double>* rtt_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ + kIngestBatch > emerging_.size()) return false;
    IngestRequest request;
    request.request_id = next_;
    request.triples.assign(emerging_.begin() + static_cast<int64_t>(next_),
                           emerging_.begin() +
                               static_cast<int64_t>(next_ + kIngestBatch));
    IngestResponse response;
    std::string error;
    const double start = Now();
    const bool sent = client->Ingest(request, &response, &error);
    const bool ok = sent && response.status == Status::kOk &&
                    response.accepted == kIngestBatch;
    tally->Add(ok);
    if (!ok) {
      Log("ingest failed: %s %s", error.c_str(), response.error.c_str());
      return false;
    }
    rtt_ms->push_back((Now() - start) * 1e3);
    next_ += kIngestBatch;
    return true;
  }

  std::vector<Triple> Ingested() {
    std::lock_guard<std::mutex> lock(mu_);
    return {emerging_.begin(), emerging_.begin() + static_cast<int64_t>(next_)};
  }

  // The batch after `batches` already handed out, for the in-process
  // replay; empty when G' is used up.
  std::vector<Triple> Batch(size_t batches) const {
    const size_t begin = batches * kIngestBatch;
    if (begin + kIngestBatch > emerging_.size()) return {};
    return {emerging_.begin() + static_cast<int64_t>(begin),
            emerging_.begin() + static_cast<int64_t>(begin + kIngestBatch)};
  }

 private:
  std::mutex mu_;
  std::vector<Triple> emerging_;
  size_t next_ = 0;
};

// Hands out one phase's cold links in pool order, each once. Once they
// are used up, a cold slot falls back to the warm-up link its schedule
// entry drew.
class ColdFeed {
 public:
  enum Phase { kClosed = 0, kOpen = 1 };
  ColdFeed(const ServeInputs& in, Phase phase)
      : first_(in.warmup.size() + phase * in.cold_per_phase),
        end_(first_ + in.cold_per_phase) {}

  // `r` with a cold slot resolved to a ranking request.
  Request Resolve(const Request& r) {
    if (r.kind != RequestKind::kCold) return r;
    Request out = r;
    out.kind = RequestKind::kRank;
    const size_t q = first_ + next_++;
    if (q < end_) out.query = static_cast<int32_t>(q);
    return out;
  }

  // Cold links handed out so far.
  size_t sent() const { return std::min(next_.load(), end_ - first_); }

 private:
  const size_t first_;
  const size_t end_;
  std::atomic<size_t> next_{0};
};

std::vector<Triple> LoadEmerging(const std::string& data_dir) {
  std::ifstream in(data_dir + "/emerging.tsv");
  std::vector<Triple> out;
  Triple t;
  while (in >> t.head >> t.rel >> t.tail) out.push_back(t);
  return out;
}

// ----- Phases against the live server -----

// What the timed rounds measured, accumulated across rounds.
struct Traffic {
  double cold_triples = 0.0;    // cold windows: triples answered
  double cold_s = 0.0;          // cold windows: first send to last answer
  double closed_triples = 0.0;  // closed loop: triples answered
  double closed_s = 0.0;        // closed loop: first send to last answer
  int64_t closed_requests = 0;
  std::vector<double> latency_ms;    // open loop, from each scheduled send
  std::vector<double> round_p99_ms;  // open loop, each round's p99
  std::vector<double> lag_ms;        // open loop, how late the generator sent
  std::vector<double> ingest_ms;     // both loops, ingest round trips
};

// The links `queries`, each once as a ranking request, kWarmupDepth in
// flight on one connection. Memo and subgraph cache have not seen them,
// so all of it is cold scoring. Adds the triples answered and the time
// from the first send to the last answer to `out`, when given.
void RunCold(const ServeInputs& in, const std::vector<int32_t>& queries,
             uint16_t port, Tally* tally, Traffic* out) {
  std::vector<ScoreRequest> requests;
  size_t triples = 0;
  for (int32_t q : queries) {
    Request r;
    r.query = q;
    requests.push_back(MakeScore(in, r, requests.size()));
    triples += requests.back().triples.size();
  }
  Client client;
  std::vector<ScoreResponse> responses;
  std::string error;
  const double start = Now();
  const bool sent = Connect(&client, port) &&
                    client.ScorePipelined(requests, kWarmupDepth, &responses,
                                          &error);
  const double elapsed = Now() - start;
  for (size_t i = 0; i < requests.size(); ++i) {
    tally->Add(sent && ScoreOk(responses[i], requests[i].triples.size()));
  }
  if (!sent) Log("cold requests failed: %s", error.c_str());
  Log("%zu cold links: %.0f triples/s", queries.size(),
      static_cast<double>(triples) / elapsed);
  if (out != nullptr) {
    out->cold_triples += static_cast<double>(triples);
    out->cold_s += elapsed;
  }
}

// kClosedConnections connections, each keeping kClosedDepth requests in
// flight, walk the closed schedule from *next, sending for `seconds`; a
// loop that runs past the schedule's end wraps. Counts every triple
// answered over the time until the last answer: a count cut off at a
// fixed time would step by whole ingest cycles on serve_ingest.
void RunClosed(const ServeInputs& in, uint16_t port, double seconds,
               size_t* next, IngestFeed* feed, ColdFeed* cold, Tally* tally,
               Traffic* out) {
  std::atomic<size_t> cursor{*next};
  std::mutex mu;
  std::vector<std::pair<double, size_t>> done;  // (completion time, triples)
  const double start = Now();
  const double end = start + seconds;
  const auto worker = [&] {
    Client client;
    if (!Connect(&client, port)) {
      tally->Add(false);
      return;
    }
    std::deque<std::pair<uint64_t, size_t>> inflight;
    std::vector<std::pair<double, size_t>> mine;
    std::vector<double> ingest_ms;
    bool broken = false;
    const auto receive_one = [&] {
      const auto [id, n] = inflight.front();
      inflight.pop_front();
      ScoreResponse response;
      std::string error;
      const bool received = client.ReceiveScore(&response, &id, &error);
      tally->Add(received && ScoreOk(response, n));
      if (!received) {
        Log("closed loop: %s", error.c_str());
        broken = true;
        return;
      }
      mine.emplace_back(Now(), n);
    };
    while (!broken) {
      while (!broken && inflight.size() < kClosedDepth && Now() < end) {
        const size_t i = cursor++;
        const Request r = cold->Resolve(in.closed[i % in.closed.size()]);
        if (r.kind == RequestKind::kIngest) {
          while (!broken && !inflight.empty()) receive_one();
          if (!broken) feed->SendNext(&client, tally, &ingest_ms);
          continue;
        }
        const ScoreRequest request = MakeScore(in, r, i);
        std::string error;
        if (!client.SendScore(request, &error)) {
          Log("closed loop: %s", error.c_str());
          tally->Add(false);
          broken = true;
          break;
        }
        inflight.emplace_back(i, request.triples.size());
      }
      if (inflight.empty()) break;
      receive_one();
    }
    tally->Add(false, static_cast<int64_t>(inflight.size()));
    std::lock_guard<std::mutex> lock(mu);
    done.insert(done.end(), mine.begin(), mine.end());
    out->ingest_ms.insert(out->ingest_ms.end(), ingest_ms.begin(),
                          ingest_ms.end());
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClosedConnections; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  *next = cursor;

  double last = start;
  for (const auto& [at, n] : done) {
    out->closed_triples += static_cast<double>(n);
    last = std::max(last, at);
  }
  out->closed_s += last - start;
  out->closed_requests += static_cast<int64_t>(done.size());
}

// Poisson arrivals at the schedule's fixed rate: the open schedule's
// requests due in [*clock, *clock + seconds), from *next on. A sender
// thread, a receiver thread on the same connection (the sender only
// writes the socket, the receiver only reads it), and an ingest thread
// on a second connection; returns once every response is in.
void RunOpen(const ServeInputs& in, uint16_t port, double seconds,
             size_t* next, double* clock, IngestFeed* feed, ColdFeed* cold,
             Tally* tally, Traffic* out) {
  Client scores;
  Client ingests;
  if (!Connect(&scores, port) || !Connect(&ingests, port)) {
    tally->Add(false);
    return;
  }
  struct Pending {
    uint64_t id;
    double due;
    size_t triples;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  size_t ingests_due = 0;
  bool sender_done = false;
  std::atomic<bool> broken{false};
  std::vector<double> latency_ms;
  std::vector<double> ingest_ms;
  const double t0 = Now() + 0.01;

  std::thread receiver([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || sender_done; });
        if (pending.empty()) return;
        p = pending.front();
        pending.pop_front();
      }
      ScoreResponse response;
      std::string error;
      const bool received = scores.ReceiveScore(&response, &p.id, &error);
      tally->Add(received && ScoreOk(response, p.triples));
      if (!received) {
        Log("open loop: %s", error.c_str());
        broken = true;
        return;
      }
      latency_ms.push_back((Now() - p.due) * 1e3);
    }
  });
  std::thread ingester([&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return ingests_due > 0 || sender_done; });
        if (ingests_due == 0) return;
        --ingests_due;
      }
      feed->SendNext(&ingests, tally, &ingest_ms);
    }
  });
  size_t i = *next;
  for (; i < in.open.size() && !broken; ++i) {
    const Request& r = in.open[i];
    if (r.at_s >= *clock + seconds) break;
    const double due = t0 + (r.at_s - *clock);
    // Sleep to just short of the due time, then spin: a sleep alone
    // wakes late by the scheduler's slack, which would count as latency.
    const double wait = due - Now() - kSpinS;
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    while (Now() < due) {
    }
    if (r.kind == RequestKind::kIngest) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++ingests_due;
      }
      cv.notify_all();
      continue;
    }
    const ScoreRequest request = MakeScore(in, cold->Resolve(r), kOpenIdBase + i);
    out->lag_ms.push_back((Now() - due) * 1e3);
    std::string error;
    if (!scores.SendScore(request, &error)) {
      Log("open loop: %s", error.c_str());
      tally->Add(false);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({request.request_id, due, request.triples.size()});
    }
    cv.notify_all();
  }
  *next = i;
  *clock += seconds;
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  cv.notify_all();
  receiver.join();
  ingester.join();
  tally->Add(false, static_cast<int64_t>(pending.size()));
  out->latency_ms.insert(out->latency_ms.end(), latency_ms.begin(),
                         latency_ms.end());
  out->round_p99_ms.push_back(Quantile(latency_ms, 0.99));
  out->ingest_ms.insert(out->ingest_ms.end(), ingest_ms.begin(),
                        ingest_ms.end());
}

// Served scores of the gate links must equal, bit for bit, the offline
// predictor's on the graph the server holds: the inference graph, or G
// plus the ingested prefix of G' (bench_churn's static oracle).
bool RunGate(const ServeInputs& in, const ServeSpec& spec, uint16_t port,
             IngestFeed* feed, Tally* tally) {
  const dekg::DekgDataset dataset = dekg::LoadDekgDatasetDir(in.data_dir, "gate");
  dekg::core::DekgIlpModel model(ModelConfig(dataset.num_relations()), 1);
  std::string error;
  DEKG_CHECK(dekg::nn::LoadParamsOnly(in.checkpoint, &model, &error)) << error;
  std::unique_ptr<KnowledgeGraph> oracle;
  if (spec.no_emerging) {
    std::vector<Triple> all = dataset.original_graph().Triples();
    const std::vector<Triple> ingested = feed->Ingested();
    all.insert(all.end(), ingested.begin(), ingested.end());
    oracle = std::make_unique<KnowledgeGraph>(dekg::BuildGraph(
        dataset.num_total_entities(), dataset.num_relations(), all));
  }
  const KnowledgeGraph& graph =
      oracle != nullptr ? *oracle : dataset.inference_graph();

  ScoreRequest request;
  request.request_id = 1;
  for (int32_t q : in.gate) {
    const std::vector<Triple>& triples = in.queries[static_cast<size_t>(q)];
    request.triples.insert(request.triples.end(), triples.begin(),
                           triples.end());
  }
  Client client;
  ScoreResponse response;
  const bool served = Connect(&client, port) &&
                      client.Score(request, &response, &error) &&
                      ScoreOk(response, request.triples.size());
  dekg::core::DekgIlpPredictor predictor(&model);
  const std::vector<double> offline =
      predictor.ScoreTriples(graph, request.triples);
  int64_t mismatches = 0;
  for (size_t i = 0; i < offline.size(); ++i) {
    const bool equal =
        served && std::memcmp(&offline[i], &response.scores[i],
                              sizeof(double)) == 0;
    tally->Add(equal);
    if (!equal) ++mismatches;
  }
  Log("gate: %zu served scores vs offline predictor, %lld mismatches",
      offline.size(), static_cast<long long>(mismatches));
  return mismatches == 0;
}

// ----- In-process replay (traced run) -----

struct Step {
  bool ingest = false;
  bool warmup = false;
  std::vector<ScoreItem> items;
};

// The warm-up and the first kReplayRequests closed-loop requests, packed
// the way the batcher packs a full queue: consecutive score requests up
// to kMaxBatchTriples triples; an ingest is a barrier.
std::vector<Step> BuildSteps(const ServeInputs& in) {
  std::vector<Step> steps;
  Step batch;
  const auto flush = [&] {
    if (!batch.items.empty()) steps.push_back(std::move(batch));
    batch = Step{};
  };
  const auto add = [&](const Request& r, uint64_t id, bool warmup) {
    if (r.kind == RequestKind::kIngest) {
      flush();
      Step s;
      s.ingest = true;
      steps.push_back(std::move(s));
      return;
    }
    const ScoreRequest request = MakeScore(in, r, id);
    if (static_cast<int64_t>(batch.items.size() + request.triples.size()) >
            kMaxBatchTriples ||
        batch.warmup != warmup) {
      flush();
    }
    batch.warmup = warmup;
    // The batcher's per-item stream seed.
    for (size_t i = 0; i < request.triples.size(); ++i) {
      batch.items.push_back(ScoreItem{
          request.triples[i],
          dekg::MixSeed(request.seed, request.index_offset + i)});
    }
  };
  for (int32_t q : in.warmup) {
    Request r;
    r.query = q;
    add(r, static_cast<uint64_t>(q), true);
  }
  ColdFeed cold(in, ColdFeed::kClosed);
  for (size_t i = 0; i < std::min(kReplayRequests, in.closed.size()); ++i) {
    add(cold.Resolve(in.closed[i]), i, false);
  }
  flush();
  return steps;
}

// Which items of a batch the engine's score memo and FIFO subgraph cache
// miss, mirrored from their documented policies (engine.h): the memo
// keys (triple, seed), holds at most its capacity and is flushed by an
// ingest; the cache admits misses in index order and evicts oldest
// first. Cache entries an ingest drops for a membership change are not
// mirrored, so on serve_ingest a few misses count as hits. The replay
// reports how many misses the mirror placed wrongly
// (replay.mirror_miss_error), and without ingest any is a failure.
class EngineMirror {
 public:
  explicit EngineMirror(const dekg::serve::EngineConfig& config)
      : config_(config) {}

  // Positions of memo misses in `items`; *cache_miss (same length) marks
  // which of those also miss the subgraph cache.
  std::vector<size_t> Score(const std::vector<ScoreItem>& items,
                            std::vector<bool>* cache_miss) {
    std::vector<size_t> fresh;
    for (size_t i = 0; i < items.size(); ++i) {
      if (memo_.count(Key(items[i])) == 0) fresh.push_back(i);
    }
    cache_miss->assign(fresh.size(), false);
    std::vector<Triple> admit;
    for (size_t k = 0; k < fresh.size(); ++k) {
      const Triple& t = items[fresh[k]].triple;
      if (resident_.count(t) == 0) {
        (*cache_miss)[k] = true;
        admit.push_back(t);
      }
    }
    for (const Triple& t : admit) {
      if (resident_.insert(t).second) fifo_.push_back(t);
    }
    while (static_cast<int64_t>(resident_.size()) > config_.cache_capacity) {
      resident_.erase(fifo_.front());
      fifo_.pop_front();
    }
    for (size_t i : fresh) {
      if (static_cast<int64_t>(memo_.size()) < config_.score_memo_capacity) {
        memo_.insert(Key(items[i]));
      }
    }
    return fresh;
  }

  void Ingest() { memo_.clear(); }

 private:
  struct KeyHash {
    size_t operator()(const std::pair<Triple, uint64_t>& k) const {
      return TripleHash{}(k.first) ^ (k.second * 0x9E3779B97F4A7C15ull);
    }
  };
  static std::pair<Triple, uint64_t> Key(const ScoreItem& item) {
    return {item.triple, item.seed};
  }

  dekg::serve::EngineConfig config_;
  std::unordered_set<std::pair<Triple, uint64_t>, KeyHash> memo_;
  std::unordered_set<Triple, TripleHash> resident_;
  std::deque<Triple> fifo_;
};

// Mean of a vector; 0 when empty.
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

dekg::serve::RouterConfig ServerRouterConfig(const ServeSpec& spec) {
  dekg::serve::RouterConfig config;
  config.engine.cache_capacity = spec.cache_entries;
  config.engine.live_graph.max_entities = 1 << 20;  // dekg_serve's default
  return config;
}

// Multiply-adds of one packed R-GCN forward, estimated from the subgraph
// size: per layer a dense [dim x dim] transform of every node and of
// every edge message, plus the readout scorer. A computed value.
double EstimateMflop(double nodes, double edges, int32_t dim, int32_t layers) {
  const double d = static_cast<double>(dim);
  return (2.0 * layers * (nodes + edges) * d * d + 2.0 * 4.0 * d) / 1e6;
}

struct ReplayMetrics {
  std::vector<Metric> metrics;
  bool identical = true;  // pool-1 and pool-N replays scored the same bits
  // Per batch, |engine's cache misses - the mirror's|, summed.
  double mirror_error = 0.0;
};

ReplayMetrics RunReplay(const ServeInputs& in, const ServeSpec& spec,
                        IngestFeed* feed, Tracer* tracer) {
  ReplayMetrics out;
  std::unique_ptr<dekg::DekgDataset> dataset;
  const int64_t load = tracer->Time("kg.LoadDekgDatasetDir", -1, -1, [&] {
    dataset = std::make_unique<dekg::DekgDataset>(
        dekg::LoadDekgDatasetDir(in.data_dir, "replay"));
  });
  const double kg_load_s = tracer->Duration(load);
  dekg::core::DekgIlpModel model(ModelConfig(dataset->num_relations()), 1);
  std::string error;
  DEKG_CHECK(dekg::nn::LoadParamsOnly(in.checkpoint, &model, &error)) << error;
  const KnowledgeGraph& base = spec.no_emerging ? dataset->original_graph()
                                                : dataset->inference_graph();
  const dekg::serve::RouterConfig config = ServerRouterConfig(spec);
  const std::vector<Step> steps = BuildSteps(in);

  // Pass 1: the workload's pool size, Router calls only.
  dekg::SetDefaultThreadCount(kPoolThreads);
  std::unique_ptr<dekg::serve::Router> router;
  const int64_t build = tracer->Time("snapshot.Materialize(Router)", -1, -1, [&] {
    router = std::make_unique<dekg::serve::Router>(&model, base, config);
  });
  const double materialize_s = tracer->Duration(build);
  std::unique_ptr<dekg::serve::SnapshotWriter> writer;
  if (spec.ingest_every > 0) {
    writer = std::make_unique<dekg::serve::SnapshotWriter>(
        &model, base, config.engine.live_graph);
  }
  std::vector<double> batch_ms;
  std::vector<std::vector<double>> scores_n;
  double score_s_n = 0.0;
  double timed_score_s = 0.0;  // after the warm-up
  double ingest_s = 0.0;
  std::vector<double> snapshot_ms;
  std::vector<double> catchup_ms;
  double patched = 0.0, repaired = 0.0, fallback = 0.0, refreshed = 0.0;
  size_t ingests = 0;
  dekg::serve::EngineStats warm{};
  for (size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    if (!step.warmup && (s == 0 || steps[s - 1].warmup)) warm = router->Stats();
    if (step.ingest) {
      const std::vector<Triple> batch = feed->Batch(ingests);
      if (batch.empty()) continue;
      ++ingests;
      IngestResponse response;
      const int64_t r = tracer->Time("router.Ingest", -1, static_cast<int64_t>(s),
                                     [&] { router->Ingest(batch, &response); });
      const uint64_t before = writer->embedding_refreshes();
      dekg::serve::IngestReport report;
      const int64_t w = tracer->Time("snapshot.Ingest", -1, static_cast<int64_t>(s),
                                     [&] { writer->Ingest(batch, &report, &error); });
      DEKG_CHECK(response.status == Status::kOk) << response.error;
      snapshot_ms.push_back(tracer->Duration(w) * 1e3);
      catchup_ms.push_back((tracer->Duration(r) - tracer->Duration(w)) * 1e3);
      ingest_s += tracer->Duration(r);
      patched += static_cast<double>(response.patched);
      repaired += static_cast<double>(response.repaired);
      fallback += static_cast<double>(response.invalidated);
      refreshed += static_cast<double>(writer->embedding_refreshes() - before);
      continue;
    }
    const double start = Now();
    std::vector<double> scores = router->ScoreBatch(step.items);
    const double d = Now() - start;
    score_s_n += d;
    if (!step.warmup) timed_score_s += d;
    batch_ms.push_back(d * 1e3);
    scores_n.push_back(std::move(scores));
  }
  const dekg::serve::EngineStats end_stats = router->Stats();
  const double memo_hits = static_cast<double>(end_stats.memo_hits - warm.memo_hits);
  const double memo_all =
      memo_hits + static_cast<double>(end_stats.memo_misses - warm.memo_misses);
  const double cache_hits =
      static_cast<double>(end_stats.cache_hits - warm.cache_hits);
  const double cache_all =
      cache_hits + static_cast<double>(end_stats.cache_misses - warm.cache_misses);
  const double cache_mb = static_cast<double>(end_stats.cache_bytes) / 1e6;
  router.reset();
  writer.reset();

  // Pass 2: pool size 1, with the engine's stages replayed beside each
  // Router::ScoreBatch on the same triples, so their spans can be
  // subtracted from it.
  dekg::SetDefaultThreadCount(1);
  router = std::make_unique<dekg::serve::Router>(&model, base, config);
  EngineMirror mirror(config.engine);
  dekg::core::Gsm* gsm = model.gsm();
  dekg::core::Clrm* clrm = model.clrm();
  dekg::SubgraphWorkspace workspace;
  double score_s_1 = 0.0;
  double misses_total = 0.0;
  double miss_self_s = 0.0;
  std::vector<double> extract_us, nodes, edges, touched, packed_us_per_sub,
      group_sizes, distmult_us;
  size_t score_step = 0;
  ingests = 0;
  for (size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    if (step.ingest) {
      const std::vector<Triple> batch = feed->Batch(ingests);
      if (batch.empty()) continue;
      ++ingests;
      IngestResponse response;
      router->Ingest(batch, &response);
      mirror.Ingest();
      continue;
    }
    const uint64_t misses_before = router->Stats().cache_misses;
    const int64_t parent = tracer->Open("router.ScoreBatch", -1, static_cast<int64_t>(s));
    const double start = Now();
    const std::vector<double> scores = router->ScoreBatch(step.items);
    const double end = Now();
    tracer->Close(parent, start, end);
    score_s_1 += end - start;
    if (scores != scores_n[score_step++]) out.identical = false;
    const double misses =
        static_cast<double>(router->Stats().cache_misses - misses_before);

    const std::shared_ptr<const dekg::serve::GraphSnapshot> snap =
        router->CurrentSnapshot();
    std::vector<bool> cache_miss;
    const std::vector<size_t> fresh = mirror.Score(step.items, &cache_miss);
    double children_s = 0.0;
    std::vector<Subgraph> subs(fresh.size());
    int64_t mirrored_misses = 0;
    for (size_t k = 0; k < fresh.size(); ++k) {
      const Triple& t = step.items[fresh[k]].triple;
      if (!cache_miss[k]) {
        // A cache hit's subgraph, for the forward replay: extraction is
        // deterministic, so this is the one the engine holds. Untimed.
        subs[k] = gsm->Extract(snap->graph, t, &workspace);
        continue;
      }
      ++mirrored_misses;
      const int64_t id = tracer->Time("graph.Extract", parent, static_cast<int64_t>(s), [&] {
        subs[k] = gsm->Extract(snap->graph, t, &workspace);
      });
      children_s += tracer->Duration(id);
      extract_us.push_back(tracer->Duration(id) * 1e6);
      nodes.push_back(static_cast<double>(subs[k].nodes.size()));
      edges.push_back(static_cast<double>(subs[k].edges.size()));
      touched.push_back(static_cast<double>(
          dekg::TouchedEntityLabels(workspace).entities.size()));
    }
    out.mirror_error += std::abs(misses - static_cast<double>(mirrored_misses));
    std::vector<const Subgraph*> ptrs;
    std::vector<int64_t> all;
    for (size_t k = 0; k < subs.size(); ++k) {
      ptrs.push_back(&subs[k]);
      all.push_back(static_cast<int64_t>(k));
    }
    for (const std::vector<int64_t>& group :
         dekg::core::GroupForPacking(ptrs, all, config.engine.gsm_batch)) {
      std::vector<const Subgraph*> group_subs;
      std::vector<dekg::RelationId> rels;
      for (int64_t k : group) {
        group_subs.push_back(ptrs[static_cast<size_t>(k)]);
        rels.push_back(step.items[fresh[static_cast<size_t>(k)]].triple.rel);
      }
      const int64_t id =
          tracer->Time("gsm.ScoreSubgraphsPacked", parent, static_cast<int64_t>(s),
                       [&] { gsm->ScoreSubgraphsPacked(group_subs, rels); });
      children_s += tracer->Duration(id);
      packed_us_per_sub.push_back(tracer->Duration(id) * 1e6 /
                                  static_cast<double>(group.size()));
      group_sizes.push_back(static_cast<double>(group.size()));
    }
    for (size_t i : fresh) {
      const Triple& t = step.items[i].triple;
      const int64_t id = tracer->Time("clrm.ScoreEmbedded", parent, static_cast<int64_t>(s), [&] {
        clrm->ScoreEmbedded(*snap->entity_emb[static_cast<size_t>(t.head)], t.rel,
                            *snap->entity_emb[static_cast<size_t>(t.tail)]);
      });
      children_s += tracer->Duration(id);
      distmult_us.push_back(tracer->Duration(id) * 1e6);
    }
    if (misses > 0) {
      misses_total += misses;
      miss_self_s += (end - start) - children_s;
    }
  }
  router.reset();
  dekg::SetDefaultThreadCount(kPoolThreads);
  if (out.mirror_error > 0) {
    Log("replay: mirrored cache misses differ from the engine's by %.0f",
        out.mirror_error);
  }
  Log("replay after the warm-up: %.0f scored triples, %.0f cache lookups; "
      "%zu extractions, %zu ingests",
      memo_all, cache_all, touched.size(), ingests);

  const dekg::core::DekgIlpConfig& mc = model.config();
  double snapshot_s = 0.0;
  for (double ms : snapshot_ms) snapshot_s += ms / 1e3;
  const double ingest_share = Ratio(snapshot_s, timed_score_s + ingest_s);
  out.metrics = {
      {"router.score_batch_ms_p50", Median(batch_ms)},
      {"router.parallel_speedup", Ratio(score_s_1, score_s_n)},
      {"engine.memo_hit_share", Ratio(memo_hits, memo_all)},
      {"engine.cache_hit_share", Ratio(cache_hits, cache_all)},
      {"engine.admit_us_per_miss", Ratio(miss_self_s * 1e6, misses_total)},
      {"engine.touched_per_entry", Mean(touched)},
      {"engine.cache_mb", cache_mb},
      {"graph.extract_us", Mean(extract_us)},
      {"graph.nodes_per_subgraph", Mean(nodes)},
      {"graph.edges_per_subgraph", Mean(edges)},
      {"gsm.packed_us_per_subgraph", Mean(packed_us_per_sub)},
      {"gsm.subgraphs_per_group", Mean(group_sizes)},
      {"gnn.mflop_per_subgraph",
       EstimateMflop(Mean(nodes), Mean(edges), mc.dim, mc.num_layers)},
      {"clrm.distmult_us", Mean(distmult_us)},
      {"snapshot.ingest_ms", Median(snapshot_ms)},
      {"snapshot.ingest_share", ingest_share},
      {"engine.catchup_ms", Median(catchup_ms)},
      {"engine.patched_per_ingest", Ratio(patched, ingests)},
      {"engine.repaired_per_ingest", Ratio(repaired, ingests)},
      {"engine.fallback_per_ingest", Ratio(fallback, ingests)},
      {"snapshot.rows_refreshed_per_ingest", Ratio(refreshed, ingests)},
      {"kg.load_s", kg_load_s},
      {"snapshot.materialize_s", materialize_s},
      {"replay.mirror_miss_error", out.mirror_error},
  };
  return out;
}

// Share of scored triples (warm-up and closed schedule) scored before,
// but never at this request position — the case a triple-keyed memo
// would answer and the (triple, position seed) memo misses. Fact checks
// always take a fresh position.
double RepeatAtOtherPositionShare(const ServeInputs& in) {
  std::unordered_map<Triple, uint32_t, TripleHash> positions;  // bit mask
  double scored = 0.0;
  double repeated = 0.0;
  const auto visit = [&](const Request& r) {
    if (r.kind == RequestKind::kIngest) return;
    const std::vector<Triple> triples = RequestTriples(in, r);
    for (size_t i = 0; i < triples.size(); ++i) {
      uint32_t& seen = positions[triples[i]];
      const uint32_t bit = r.kind == RequestKind::kFact ? 0u : 1u << i;
      scored += 1.0;
      if (seen != 0 && (seen & bit) == 0) repeated += 1.0;
      seen |= bit;
    }
  };
  for (int32_t q : in.warmup) {
    Request r;
    r.query = q;
    visit(r);
  }
  ColdFeed cold(in, ColdFeed::kClosed);
  for (const Request& r : in.closed) visit(cold.Resolve(r));
  Log("schedule: %.0f scored triples, %.0f scored before at another position",
      scored, repeated);
  return Ratio(repeated, scored);
}

// Round trip of a request the memo answers entirely, and the codec cost
// of the workload's requests and responses.
void RunWireProbes(const ServeInputs& in, uint16_t port, Tally* tally,
                   Tracer* tracer, std::vector<Metric>* metrics) {
  Request r;
  r.query = in.warmup.front();
  ScoreRequest request = MakeScore(in, r, 0);
  Client client;
  std::vector<double> rtt_us;
  if (Connect(&client, port)) {
    for (int i = 0; i <= kRttProbes; ++i) {
      ScoreResponse response;
      std::string error;
      request.request_id = static_cast<uint64_t>(i);
      const double start = Now();
      const bool ok = client.Score(request, &response, &error) &&
                      ScoreOk(response, request.triples.size());
      const double end = Now();
      tally->Add(ok);
      if (i > 0) {  // the first fills the memo
        tracer->Add("wire.Score(memo)", start, end, -1, i);
        rtt_us.push_back((end - start) * 1e6);
      }
    }
  }
  metrics->push_back({"wire.memo_rtt_us", Median(rtt_us)});

  const size_t n = std::min<size_t>(in.closed.size(), 2000);
  double codec_s = 0.0;
  size_t requests = 0;
  for (size_t i = 0; i < n; ++i) {
    if (in.closed[i].kind == RequestKind::kIngest) continue;
    ScoreRequest q = MakeScore(in, in.closed[i], i);
    ScoreResponse a;
    a.request_id = i;
    a.scores.assign(q.triples.size(), 0.5);
    const double start = Now();
    const std::vector<uint8_t> qb = dekg::serve::EncodeScoreRequest(q);
    ScoreRequest q2;
    const bool q_ok = dekg::serve::DecodeScoreRequest(qb, &q2);
    const std::vector<uint8_t> ab = dekg::serve::EncodeScoreResponse(a);
    ScoreResponse a2;
    const bool a_ok = dekg::serve::DecodeScoreResponse(ab, &a2);
    const double end = Now();
    DEKG_CHECK(q_ok && a_ok && q2.triples == q.triples) << "codec round trip";
    tracer->Add("protocol.Codec", start, end, -1, static_cast<int64_t>(i));
    codec_s += end - start;
    ++requests;
  }
  metrics->push_back(
      {"protocol.codec_us_per_request", Ratio(codec_s * 1e6, requests)});
}

// Batch-size median from STATS batch_hist: the lower bound 2^b of the
// bucket holding the median micro-batch.
double HistMedian(const uint64_t (&hist)[16]) {
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  uint64_t acc = 0;
  for (int b = 0; b < 16; ++b) {
    acc += hist[b];
    if (2 * acc >= total && total > 0) return static_cast<double>(1u << b);
  }
  return 0.0;
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& options) {
  RunResult result;
  const ServeSpec spec = ServeSpecFor(options.workload);
  const ServeInputs in = LoadServeInputs(
      options.workload,
      EnsureInputs(options.workload, options.seed, options.work_dir + "/inputs"));
  IngestFeed feed(spec.ingest_every > 0 ? LoadEmerging(in.data_dir)
                                        : std::vector<Triple>{});
  Log("inputs loaded: %zu links, %zu closed and %zu open requests",
      in.queries.size(), in.closed.size(), in.open.size());
  const CpuSplit cpus = SplitCpus();
  PinTo(cpus.generator);
  dekg::SetDefaultThreadCount(kPoolThreads);

  std::vector<std::string> args = {in.data_dir, in.checkpoint, "--threads",
                                   std::to_string(kPoolThreads), "--cache",
                                   std::to_string(spec.cache_entries)};
  if (spec.no_emerging) args.push_back("--no-emerging");
  const std::string tag = std::string(WorkloadName(options.workload)) + "-" +
                          std::to_string(options.seed);
  const std::string port_file = options.work_dir + "/" + tag + ".port";
  const std::string log_file = options.work_dir + "/" + tag + ".server.log";

  Tally tally;
  std::vector<double> setup_s;
  ServerProcess server;
  const int spawns = options.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < spawns; ++k) {
    std::string error;
    ServerProcess* p = &server;
    ServerProcess spare;
    if (k + 1 < spawns) p = &spare;
    const double s = p->Start(options.server_binary, args, cpus.measured,
                              port_file, log_file, kSetupTimeoutS, &error);
    tally.Add(s >= 0);
    if (s < 0) {
      Log("server start failed: %s", error.c_str());
      result.correct = false;
      result.attempted = tally.attempted;
      result.failed = tally.failed;
      return result;
    }
    setup_s.push_back(s);
    if (p == &spare) tally.Add(spare.Stop(30.0));
  }
  const uint16_t port = server.port();
  Log("server up: set-up %.3f s (median of %zu)", Median(setup_s), setup_s.size());

  RunCold(in, in.warmup, port, &tally, nullptr);
  // The timed traffic runs kServeRounds rounds of a cold window, a
  // closed-loop window and an open-loop window, so every phase samples
  // the whole run: host speed drifts over seconds, and a drift then moves
  // every metric a little instead of one metric a lot. A cold window is a
  // fixed set of links, and each loop gets a fixed share of the round: a
  // loop that took what a slow cold window left would shrink on a slow
  // host, and its metric would move further than the host's speed.
  Traffic traffic;
  ColdFeed closed_cold(in, ColdFeed::kClosed);
  ColdFeed open_cold(in, ColdFeed::kOpen);
  size_t closed_next = 0;
  size_t open_next = 0;
  double open_clock = 0.0;
  const double round_s = options.seconds / kServeRounds;
  for (int round = 0; round < kServeRounds; ++round) {
    RunCold(in, in.windows[static_cast<size_t>(round)], port, &tally, &traffic);
    RunClosed(in, port, round_s * spec.closed_share, &closed_next, &feed,
              &closed_cold, &tally, &traffic);
    RunOpen(in, port, round_s * spec.open_share, &open_next, &open_clock, &feed,
            &open_cold, &tally, &traffic);
  }
  const double cold_tps = traffic.cold_triples / traffic.cold_s;
  const double closed_tps = traffic.closed_triples / traffic.closed_s;
  const std::vector<double>& ingest_ms = traffic.ingest_ms;
  // First sights among the timed score requests, as sent and as the
  // traffic model would have them over the same request count.
  const int64_t timed_requests =
      traffic.closed_requests + static_cast<int64_t>(traffic.latency_ms.size());
  const double first_sight_share = Ratio(
      static_cast<double>(closed_cold.sent() + open_cold.sent()),
      static_cast<double>(timed_requests));
  const double model_first_sight_share = ZipfFirstSightShare(
      kPoolLinks, static_cast<int64_t>(in.warmup.size()), timed_requests);
  Log("cold windows %.0f triples/s; closed loop %.0f triples/s over %lld "
      "requests; open loop %zu requests, p50 %.2f ms, p99 %.2f ms (median "
      "of rounds), generator lag p99 %.2f ms; %zu ingests, p50 %.1f ms; "
      "first sights %.4f of timed requests (traffic model: %.4f)",
      cold_tps, closed_tps, static_cast<long long>(traffic.closed_requests),
      traffic.latency_ms.size(), Quantile(traffic.latency_ms, 0.5),
      Median(traffic.round_p99_ms), Quantile(traffic.lag_ms, 0.99),
      ingest_ms.size(), Quantile(ingest_ms, 0.5), first_sight_share,
      model_first_sight_share);

  Tracer tracer;
  std::vector<Metric> layer;
  dekg::serve::StatsResponse stats;
  {
    Client client;
    std::string error;
    const bool ok = Connect(&client, port) && client.Stats(&stats, &error);
    tally.Add(ok);
    Log("server stats: %llu batches, %llu triples, cache %llu hits / %llu "
        "misses, %llu entries, %.1f MB; %llu ingested",
        static_cast<unsigned long long>(stats.batches_scored),
        static_cast<unsigned long long>(stats.triples_scored),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.cache_entries),
        static_cast<double>(stats.cache_bytes) / 1e6,
        static_cast<unsigned long long>(stats.ingested_triples));
  }
  if (options.trace) RunWireProbes(in, port, &tally, &tracer, &layer);

  const bool gate = RunGate(in, spec, port, &feed, &tally);
  const double rss_mb = server.PeakRssMb();
  // The spare spawns of the set-up already checked that a shutdown exits
  // cleanly.
  tally.Add(server.Kill());
  Log("server stopped");
  result.correct = gate;

  if (!options.trace) {
    result.metrics = {
        {"setup_s", Median(setup_s)},
        {"score_triples_per_s", closed_tps},
        {"cold_triples_per_s", cold_tps},
        {"rss_peak_mb", rss_mb},
    };
  } else {
    const double traced_start = Now();
    PinTo(cpus.measured);  // the replay stands in for the server
    ReplayMetrics replay = RunReplay(in, spec, &feed, &tracer);
    if (!replay.identical) {
      Log("replay: scores differ between pool sizes");
      result.correct = false;
    }
    tally.Add(replay.identical);
    // Without ingest the mirror is exact; a miss it placed wrongly means the
    // engine's cache policy changed and the per-miss metrics are off.
    tally.Add(spec.ingest_every > 0 || replay.mirror_error == 0);
    double score_batch_p50 = 0.0;
    for (const Metric& m : replay.metrics) {
      if (m.name == "router.score_batch_ms_p50") score_batch_p50 = m.value;
    }
    layer.push_back({"batcher.triples_per_batch_p50", HistMedian(stats.batch_hist)});
    layer.push_back({"batcher.queue_ms_p50",
                     std::max(0.0, stats.latency_p50_ms - score_batch_p50)});
    layer.insert(layer.end(), replay.metrics.begin(), replay.metrics.end());
    layer.push_back({"input.repeat_other_position_share",
                     RepeatAtOtherPositionShare(in)});
    layer.push_back({"input.first_sight_share", first_sight_share});
    layer.push_back({"input.model_first_sight_share", model_first_sight_share});
    layer.push_back({"gen.lag_ms_p99", Quantile(traffic.lag_ms, 0.99)});
    layer.push_back({"score.p50_ms", Quantile(traffic.latency_ms, 0.5)});
    layer.push_back({"score.p99_ms", Median(traffic.round_p99_ms)});
    layer.push_back({"score.p99_samples",
                     static_cast<double>(traffic.latency_ms.size())});
    layer.push_back({"ingest.rtt_ms_p50", Quantile(ingest_ms, 0.5)});
    layer.push_back({"trace.overhead_share",
                     Ratio(Tracer::CostPerSpan() * static_cast<double>(tracer.size()),
                           Now() - traced_start)});
    tracer.Report(WorkloadName(options.workload));
    tracer.Write(options.work_dir + "/" + tag + ".spans.tsv");
    result.metrics = std::move(layer);
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  if (result.failed > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
