// Acceptance criterion of the serving subsystem (DESIGN.md §9): the
// server's scores and ranks are bit-identical to offline Evaluate at any
// thread count and any micro-batch size. Covered at three levels — engine
// vs offline predictor, micro-batch composition invariance, and the full
// in-process TCP stack (server + client) — plus the
// EvalConfig::subgraph_cache read-only handle the serve layer shares with
// the offline evaluator.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "datagen/synthetic_kg.h"
#include "eval/evaluator.h"
#include "graph/subgraph.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"

namespace dekg::serve {
namespace {

DekgDataset SyntheticDataset() {
  datagen::SchemaConfig schema;
  schema.num_types = 5;
  schema.num_relations = 14;
  schema.num_entities = 160;
  datagen::SplitConfig split;
  split.max_test_links = 40;
  return datagen::MakeDekgDataset("serve", schema, split, /*seed=*/21);
}

core::DekgIlpConfig SmallModelConfig(int32_t num_relations) {
  core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 8;
  return config;
}

std::vector<Triple> TestTriples(const DekgDataset& dataset, size_t limit) {
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    triples.push_back(link.triple);
    if (triples.size() >= limit) break;
  }
  return triples;
}

// A one-shard router: the single-engine server.
RouterConfig OneShard(const EngineConfig& engine) {
  RouterConfig config;
  config.engine = engine;
  return config;
}

std::vector<ScoreItem> ItemsFor(const std::vector<Triple>& triples,
                                uint64_t request_seed = 123) {
  std::vector<ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(request_seed, i)});
  }
  return items;
}

TEST(ServeDeterminismTest, EngineMatchesOfflinePredictorAtAnyThreadCount) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 8u);

  // Offline reference: the evaluator's predictor on the static graph.
  core::DekgIlpPredictor predictor(&model);
  std::vector<double> offline =
      predictor.ScoreTriples(dataset.inference_graph(), triples);

  for (int threads : {1, 8}) {
    SetDefaultThreadCount(threads);
    // Memo off: this test pins the subgraph-cache warm path (the memo
    // would replay the second pass without touching the cache).
    EngineConfig config;
    config.score_memo_capacity = 0;
    Router engine(&model, dataset.inference_graph(), OneShard(config));
    std::vector<double> online = engine.ScoreBatch(ItemsFor(triples));
    // Second pass is served from the subgraph cache — still identical.
    std::vector<double> cached = engine.ScoreBatch(ItemsFor(triples));
    SetDefaultThreadCount(0);

    ASSERT_EQ(online.size(), offline.size());
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(online[i], offline[i]) << "threads " << threads << " triple "
                                       << i;
      EXPECT_EQ(cached[i], offline[i]) << "threads " << threads
                                       << " cached triple " << i;
    }
    EXPECT_EQ(engine.Stats().cache_hits, triples.size());
  }
}

TEST(ServeDeterminismTest, ScoreMemoReplaysBitwiseAndFlushesOnEpochAdvance) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 8u);

  Router engine(&model, dataset.original_graph(), RouterConfig{});
  const std::vector<double> first = engine.ScoreBatch(ItemsFor(triples));
  const std::vector<double> replay = engine.ScoreBatch(ItemsFor(triples));
  ASSERT_EQ(replay.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(replay[i], first[i]) << "triple " << i;
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.memo_misses, triples.size());
  EXPECT_EQ(stats.memo_hits, triples.size());
  EXPECT_EQ(stats.memo_entries, triples.size());
  // The replay short-circuited the pipeline: the subgraph cache was
  // never read again.
  EXPECT_EQ(stats.cache_hits, 0u);

  // A different request seed derives different item streams — memo
  // misses that fall through to the (now warm) subgraph cache.
  (void)engine.ScoreBatch(ItemsFor(triples, /*request_seed=*/321));
  stats = engine.Stats();
  EXPECT_EQ(stats.memo_misses, 2 * triples.size());
  EXPECT_EQ(stats.cache_hits, triples.size());

  // An epoch advance flushes the memo: post-ingest scores must be the
  // fresh-graph bits, not stale replays.
  IngestResponse response;
  engine.Ingest(dataset.emerging_triples(), &response);
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  EXPECT_EQ(engine.Stats().memo_entries, 0u);
  const std::vector<double> after = engine.ScoreBatch(ItemsFor(triples));
  Router fresh(&model, dataset.inference_graph(), RouterConfig{});
  const std::vector<double> reference = fresh.ScoreBatch(ItemsFor(triples));
  ASSERT_EQ(after.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(after[i], reference[i]) << "post-ingest triple " << i;
  }

  // Bounded: at capacity nothing further is memoized (and nothing is
  // evicted), so exactly the first `capacity` stream items replay.
  EngineConfig small;
  small.score_memo_capacity = 4;
  Router bounded(&model, dataset.inference_graph(), OneShard(small));
  (void)bounded.ScoreBatch(ItemsFor(triples));
  (void)bounded.ScoreBatch(ItemsFor(triples));
  stats = bounded.Stats();
  EXPECT_EQ(stats.memo_entries, 4u);
  EXPECT_EQ(stats.memo_hits, 4u);
}

TEST(ServeDeterminismTest, ScoresAreInvariantToMicroBatchComposition) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  Router engine(&model, dataset.inference_graph(), RouterConfig{});
  std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 8u);

  // Whole request in one engine batch.
  std::vector<double> whole = engine.ScoreBatch(ItemsFor(triples));

  // Same request packed into uneven micro-batches (1, 3, 5, rest) — the
  // seeds are per request index, so the split must not matter, even
  // though the cache is now warm in between.
  std::vector<ScoreItem> items = ItemsFor(triples);
  std::vector<double> split;
  size_t offset = 0;
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{5},
                       triples.size() - 9}) {
    std::vector<ScoreItem> part(items.begin() + static_cast<int64_t>(offset),
                                items.begin() +
                                    static_cast<int64_t>(offset + chunk));
    std::vector<double> scores = engine.ScoreBatch(part);
    split.insert(split.end(), scores.begin(), scores.end());
    offset += chunk;
  }
  ASSERT_EQ(offset, triples.size());
  ASSERT_EQ(split.size(), whole.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i], whole[i]) << "triple " << i;
  }
}

TEST(ServeDeterminismTest, BatcherPacksAndAnswersEveryRequest) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  Router router(&model, dataset.inference_graph(), RouterConfig{});
  std::vector<Triple> triples = TestTriples(dataset, 8);
  ASSERT_GE(triples.size(), 4u);

  BatcherConfig config;
  config.max_batch_triples = 4;  // forces multiple micro-batches
  MicroBatcher batcher(&router, config);

  // One single-triple request per triple, all queued before the first
  // response is consumed, so the scheduler actually packs them.
  std::vector<std::future<ScoreResponse>> futures;
  for (size_t i = 0; i < triples.size(); ++i) {
    ScoreRequest request;
    request.seed = MixSeed(123, i);
    request.triples = {triples[i]};
    futures.push_back(batcher.SubmitScore(std::move(request)));
  }
  // Collect everything before touching the engine from this thread: the
  // scheduler owns the engine while work is in flight.
  std::vector<ScoreResponse> responses;
  for (std::future<ScoreResponse>& future : futures) {
    responses.push_back(future.get());
  }
  // Stats flow through the queue and see a consistent snapshot (and the
  // barrier guarantees the scheduler is past all scoring work).
  StatsResponse stats = batcher.SubmitStats().get();
  EXPECT_EQ(stats.requests_admitted, triples.size());
  EXPECT_GT(stats.batches_scored, 0u);
  EXPECT_EQ(stats.triples_scored, triples.size());
  EXPECT_EQ(stats.latency_samples, triples.size());  // one per answered
                                                     // score request
  for (size_t i = 0; i < responses.size(); ++i) {
    const ScoreResponse& response = responses[i];
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    ASSERT_EQ(response.scores.size(), 1u);
    // The batcher derives the item stream as MixSeed(request.seed, 0),
    // not request.seed itself — compare against a direct engine run.
    std::vector<double> direct =
        router.ScoreBatch({{triples[i], MixSeed(MixSeed(123, i), 0)}});
    EXPECT_EQ(response.scores[0], direct[0]) << "request " << i;
  }

  batcher.Drain();
  // Post-drain admission is rejected with kShuttingDown, not queued.
  ScoreRequest late;
  late.triples = {triples[0]};
  EXPECT_EQ(batcher.SubmitScore(std::move(late)).get().status,
            Status::kShuttingDown);
  EXPECT_EQ(batcher.SubmitIngest(IngestRequest{}).get().status,
            Status::kShuttingDown);
}

TEST(ServeDeterminismTest, ServerScoresBitIdenticalToOfflineOverTcp) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 12);
  ASSERT_GE(triples.size(), 4u);

  core::DekgIlpPredictor predictor(&model);
  std::vector<double> offline =
      predictor.ScoreTriples(dataset.inference_graph(), triples);

  Router router(&model, dataset.inference_graph(), RouterConfig{});
  MicroBatcher batcher(&router, BatcherConfig{});
  ScoringServer server(&batcher, ServerConfig{});  // ephemeral port
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

    // One request carrying all triples: item i's seed is
    // MixSeed(123, i).
    ScoreRequest request;
    request.with_rank = true;
    request.triples = triples;
    ScoreResponse response;
    ASSERT_TRUE(client.Score(request, &response, &error)) << error;
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    ASSERT_EQ(response.scores.size(), offline.size());
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(response.scores[i], offline[i]) << "triple " << i;
    }
    // The served rank is RankOf over the same scores — so it must equal
    // RankOf computed from the offline reference.
    ASSERT_TRUE(response.has_rank);
    std::vector<double> negatives(offline.begin() + 1, offline.end());
    EXPECT_EQ(response.rank, RankOf(offline[0], negatives));

    // Application-level rejections come back as kOk transport + status.
    ScoreRequest bad;
    bad.triples = {{0, dataset.num_relations() + 5, 1}};
    ASSERT_TRUE(client.Score(bad, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kUnknownRelation);
    ASSERT_TRUE(client.Score(ScoreRequest{}, &response, &error)) << error;
    EXPECT_EQ(response.status, Status::kBadRequest);

    StatsResponse stats;
    ASSERT_TRUE(client.Stats(&stats, &error)) << error;
    EXPECT_EQ(stats.graph_triples,
              static_cast<uint64_t>(dataset.inference_graph().num_triples()));
    EXPECT_GT(stats.batches_scored, 0u);
  }

  server.RequestStop();
  server.Wait();
}

TEST(ServeDeterminismTest, LiveIngestionConvergesToOfflineOverTcp) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 8);
  ASSERT_GE(triples.size(), 4u);

  core::DekgIlpPredictor predictor(&model);
  std::vector<double> offline =
      predictor.ScoreTriples(dataset.inference_graph(), triples);

  // Server starts WITHOUT the emerging structure (train graph only).
  Router router(&model, dataset.original_graph(), RouterConfig{});
  MicroBatcher batcher(&router, BatcherConfig{});
  ScoringServer server(&batcher, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

    ScoreRequest request;
    request.triples = triples;
    ScoreResponse before;
    ASSERT_TRUE(client.Score(request, &before, &error)) << error;
    ASSERT_EQ(before.status, Status::kOk) << before.error;

    // Stream the emerging triples in file order, in two chunks.
    const std::vector<Triple>& emerging = dataset.emerging_triples();
    const size_t half = emerging.size() / 2;
    const std::vector<std::pair<size_t, size_t>> chunks = {
        {0, half}, {half, emerging.size()}};
    for (const auto& [begin, end] : chunks) {
      IngestRequest ingest;
      ingest.triples.assign(emerging.begin() + static_cast<int64_t>(begin),
                            emerging.begin() + static_cast<int64_t>(end));
      IngestResponse ingested;
      ASSERT_TRUE(client.Ingest(ingest, &ingested, &error)) << error;
      ASSERT_EQ(ingested.status, Status::kOk) << ingested.error;
      EXPECT_EQ(ingested.accepted, end - begin);
    }

    // Post-ingest the live graph equals the offline inference graph, so
    // the same request now scores bit-identically to offline — including
    // entries the pre-ingest pass left in the cache (they were either
    // invalidated or provably unaffected).
    ScoreResponse after;
    ASSERT_TRUE(client.Score(request, &after, &error)) << error;
    ASSERT_EQ(after.status, Status::kOk) << after.error;
    ASSERT_EQ(after.scores.size(), offline.size());
    bool any_changed = false;
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(after.scores[i], offline[i]) << "triple " << i;
      any_changed = any_changed || (before.scores[i] != after.scores[i]);
    }
    // Sanity: the ingest actually mattered for at least one test link.
    EXPECT_TRUE(any_changed);

    ASSERT_TRUE(client.Shutdown(&error)) << error;
  }
  server.Wait();
}

TEST(ServeDeterminismTest, InterleavedIngestScoringMatchesStaticOracle) {
  // Scoring interleaves *between* ingest batches over TCP, so the cache
  // is warm at every ingest and ingest invalidation actually runs.
  // After each chunk the live graph must equal a statically built graph
  // over the same triple multiset (the dynamic-append ordering
  // invariant), so every interleaved score must be bit-identical to the
  // offline predictor on that static oracle.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 4u);

  Router router(&model, dataset.original_graph(), RouterConfig{});
  MicroBatcher batcher(&router, BatcherConfig{});
  ScoringServer server(&batcher, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

    core::DekgIlpPredictor predictor(&model);
    ScoreRequest request;
    request.triples = triples;

    // Warm the cache before the first ingest.
    ScoreResponse warm;
    ASSERT_TRUE(client.Score(request, &warm, &error)) << error;
    ASSERT_EQ(warm.status, Status::kOk) << warm.error;

    const std::vector<Triple>& emerging = dataset.emerging_triples();
    std::vector<Triple> prefix = dataset.original_graph().Triples();
    // Small chunks: each ingest touches few entities, so warm entries
    // are dropped a few at a time and the rest keep serving hits.
    const size_t num_chunks = 24;
    const size_t chunk = (emerging.size() + num_chunks - 1) / num_chunks;
    uint64_t invalidated = 0;
    for (size_t begin = 0; begin < emerging.size(); begin += chunk) {
      const size_t end = std::min(emerging.size(), begin + chunk);
      IngestRequest ingest;
      ingest.triples.assign(emerging.begin() + static_cast<int64_t>(begin),
                            emerging.begin() + static_cast<int64_t>(end));
      IngestResponse ingested;
      ASSERT_TRUE(client.Ingest(ingest, &ingested, &error)) << error;
      ASSERT_EQ(ingested.status, Status::kOk) << ingested.error;
      invalidated += ingested.invalidated;

      prefix.insert(prefix.end(), ingest.triples.begin(),
                    ingest.triples.end());
      const KnowledgeGraph oracle =
          BuildGraph(dataset.inference_graph().num_entities(),
                     dataset.num_relations(), prefix);
      const std::vector<double> offline =
          predictor.ScoreTriples(oracle, triples);

      ScoreResponse response;
      ASSERT_TRUE(client.Score(request, &response, &error)) << error;
      ASSERT_EQ(response.status, Status::kOk) << response.error;
      ASSERT_EQ(response.scores.size(), offline.size());
      for (size_t i = 0; i < offline.size(); ++i) {
        EXPECT_EQ(response.scores[i], offline[i])
            << "chunk [" << begin << ", " << end << ") triple " << i;
      }
    }
    // Ingest must have actually dropped warm entries, so the scores
    // above were checked across invalidations.
    EXPECT_GT(invalidated, 0u);

    StatsResponse stats;
    ASSERT_TRUE(client.Stats(&stats, &error)) << error;
    EXPECT_EQ(stats.cache_invalidated, invalidated);
    EXPECT_EQ(stats.graph_triples,
              static_cast<uint64_t>(dataset.inference_graph().num_triples()));

    ASSERT_TRUE(client.Shutdown(&error)) << error;
  }
  server.Wait();
}

TEST(ServeDeterminismTest, PipelinedScoresMatchSingleRequestBitwise) {
  // Protocol v3 pipelining: the same logical request split into chunks
  // with index_offset, sent with several responses outstanding, must
  // come back bit-identical to the one-frame form — the index_offset
  // keeps every triple's Rng stream at its logical position no matter
  // how the client slices the batch.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 16);
  ASSERT_GE(triples.size(), 8u);

  Router router(&model, dataset.inference_graph(), RouterConfig{});
  MicroBatcher batcher(&router, BatcherConfig{});
  ScoringServer server(&batcher, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

    ScoreRequest whole;
    whole.seed = 123;
    whole.triples = triples;
    ScoreResponse reference;
    ASSERT_TRUE(client.Score(whole, &reference, &error)) << error;
    ASSERT_EQ(reference.status, Status::kOk) << reference.error;
    ASSERT_EQ(reference.scores.size(), triples.size());

    for (size_t depth : {size_t{1}, size_t{4}, size_t{16}}) {
      // Uneven chunking on purpose: 3-triple chunks over 16 triples.
      std::vector<ScoreRequest> requests;
      for (size_t begin = 0; begin < triples.size(); begin += 3) {
        const size_t end = std::min(triples.size(), begin + 3);
        ScoreRequest request;
        request.request_id = requests.size() + 1;
        request.seed = 123;
        request.index_offset = begin;
        request.triples.assign(
            triples.begin() + static_cast<int64_t>(begin),
            triples.begin() + static_cast<int64_t>(end));
        requests.push_back(std::move(request));
      }
      std::vector<ScoreResponse> responses;
      ASSERT_TRUE(client.ScorePipelined(requests, depth, &responses, &error))
          << "depth " << depth << ": " << error;
      std::vector<double> merged;
      for (size_t r = 0; r < responses.size(); ++r) {
        ASSERT_EQ(responses[r].status, Status::kOk) << responses[r].error;
        EXPECT_EQ(responses[r].request_id, requests[r].request_id);
        merged.insert(merged.end(), responses[r].scores.begin(),
                      responses[r].scores.end());
      }
      ASSERT_EQ(merged.size(), reference.scores.size());
      for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i], reference.scores[i])
            << "depth " << depth << " triple " << i;
      }
    }
    ASSERT_TRUE(client.Shutdown(&error)) << error;
  }
  server.Wait();
}

namespace {

int CountOpenFds() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count - 1;  // exclude the directory's own fd (".", ".." cancel
                     // against the opendir handle miscount harmlessly —
                     // only deltas matter below)
}

}  // namespace

TEST(ServeDeterminismTest, KillMidPipelineLeavesServerServingAndLeaksNoFds) {
  // A client that vanishes with a full pipeline in flight must take down
  // only its own connection: pending futures drain, both connection
  // threads exit, the fd is closed (no leak), and a second connection is
  // served bit-identically.
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  std::vector<Triple> triples = TestTriples(dataset, 8);
  ASSERT_GE(triples.size(), 4u);

  Router router(&model, dataset.inference_graph(), RouterConfig{});
  MicroBatcher batcher(&router, BatcherConfig{});
  ScoringServer server(&batcher, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int baseline_fds = CountOpenFds();
  ASSERT_GT(baseline_fds, 0);

  {
    // Victim: submit a deep pipeline, read nothing, vanish.
    Client victim;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server.port(), &error)) << error;
    for (size_t i = 0; i < 32; ++i) {
      ScoreRequest request;
      request.request_id = i + 1;
      request.seed = 123;
      request.index_offset = i % triples.size();
      request.triples = {triples[i % triples.size()]};
      ASSERT_TRUE(victim.SendScore(request, &error)) << error;
    }
    victim.Close();  // mid-pipeline: all 32 responses still owed
  }

  // A fresh connection is served normally while (and after) the
  // victim's connection winds down.
  {
    Client survivor;
    ASSERT_TRUE(survivor.Connect("127.0.0.1", server.port(), &error)) << error;
    ScoreRequest request;
    request.seed = 123;
    request.triples = triples;
    ScoreResponse response;
    ASSERT_TRUE(survivor.Score(request, &response, &error)) << error;
    ASSERT_EQ(response.status, Status::kOk) << response.error;
    // Compare against the offline predictor, not the router directly:
    // the scheduler may still be draining the victim's pipeline and owns
    // the engines until then.
    core::DekgIlpPredictor predictor(&model);
    const std::vector<double> offline =
        predictor.ScoreTriples(dataset.inference_graph(), triples);
    ASSERT_EQ(response.scores.size(), offline.size());
    for (size_t i = 0; i < offline.size(); ++i) {
      EXPECT_EQ(response.scores[i], offline[i]) << "triple " << i;
    }
  }

  // Both doomed fds (victim's client side closed above; the server side
  // closes once its writer hits EPIPE/ECONNRESET and the handler joins)
  // and the survivor's pair must be gone: fd count back at baseline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int fds = -1;
  for (;;) {
    fds = CountOpenFds();
    if (fds <= baseline_fds) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(fds, baseline_fds) << "leaked fds after mid-pipeline kill";

  server.RequestStop();
  server.Wait();
}

TEST(ServeDeterminismTest, EvalSubgraphCacheHandleIsTransparent) {
  DekgDataset dataset = SyntheticDataset();
  core::DekgIlpModel model(SmallModelConfig(dataset.num_relations()),
                           /*seed=*/3);
  core::DekgIlpPredictor predictor(&model);

  EvalConfig config;
  config.num_entity_negatives = 6;
  config.max_links = 8;
  config.collect_ranks = true;

  EvalResult plain = Evaluate(&predictor, dataset, config);

  // Prefill a cache with the test links' enclosing subgraphs and hand it
  // to Evaluate read-only: metrics and ranks must not move a bit.
  SubgraphCache cache(0);
  SubgraphConfig subgraph_config;
  subgraph_config.num_hops = model.config().num_hops;
  subgraph_config.labeling = model.config().labeling;
  for (const LabeledLink& link : dataset.test_links()) {
    const Triple& t = link.triple;
    cache.Insert(t, ExtractSubgraph(dataset.inference_graph(), t.head, t.tail,
                                    t.rel, subgraph_config));
  }
  const SubgraphCache::Stats before = cache.stats();
  config.subgraph_cache = &cache;
  EvalResult with_cache = Evaluate(&predictor, dataset, config);

  ASSERT_EQ(plain.ranks.size(), with_cache.ranks.size());
  ASSERT_GT(plain.ranks.size(), 0u);
  for (size_t i = 0; i < plain.ranks.size(); ++i) {
    EXPECT_EQ(plain.ranks[i], with_cache.ranks[i]) << "rank " << i;
  }
  EXPECT_EQ(plain.overall.mrr, with_cache.overall.mrr);
  EXPECT_EQ(plain.overall.hits_at_10, with_cache.overall.hits_at_10);
  // Read-only: Evaluate used Find(), never Lookup()/Insert().
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().entries, before.entries);
}

}  // namespace
}  // namespace dekg::serve
