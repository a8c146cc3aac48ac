// Client CLI for the online scoring server (DESIGN.md §9).
//
// Usage:
//   dekg_serve_client <port> score <dir> [--links N] [--seed S]
//                     [--pipeline D] [--host H]
//       Send the first N test links of the dataset as one scoring request
//       and print the returned scores one per line at full %.17g
//       precision — the format of `dekg_serve --print-golden`, so the CI
//       smoke can diff them bit for bit. --pipeline D > 1 splits the
//       links into D chunks sent down one connection with up to D
//       requests in flight (protocol v3 index_offset keeps every
//       triple's item seed, and a score depends only on the triple and
//       the graph, so the concatenated output is still bit-identical to
//       the golden print).
//
//   dekg_serve_client <port> ingest-emerging <dir> [--chunk N] [--host H]
//       Stream the dataset's emerging triples to the server in file
//       order, N per ingest request. A server started with --no-emerging
//       converges to the exact offline inference graph.
//
//   dekg_serve_client <port> stats [--host H]
//       Print the server's STATS surface.
//
//   dekg_serve_client <port> shutdown [--host H]
//       Ask the server to drain and exit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "kg/dataset_io.h"
#include "serve/client.h"

using namespace dekg;

namespace {

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int32_t Int32Flag(int argc, char** argv, const char* name, int32_t fallback) {
  const char* raw = FlagValue(argc, argv, name, nullptr);
  if (raw == nullptr) return fallback;
  int32_t value = 0;
  if (!ParseInt32(raw, &value)) {
    std::fprintf(stderr, "bad integer for %s: %s\n", name, raw);
    std::exit(2);
  }
  return value;
}

int Fail(const std::string& error) {
  std::fprintf(stderr, "%s\n", error.c_str());
  return 1;
}

int Score(serve::Client* client, int argc, char** argv) {
  DekgDataset dataset = LoadDekgDatasetDir(argv[3], "client");
  const int32_t links = Int32Flag(argc, argv, "--links", 50);
  const int32_t pipeline = Int32Flag(argc, argv, "--pipeline", 1);
  const uint64_t seed =
      static_cast<uint64_t>(Int32Flag(argc, argv, "--seed", 123));
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    if (static_cast<int32_t>(triples.size()) >= links) break;
    triples.push_back(link.triple);
  }
  std::string error;
  if (pipeline <= 1) {
    serve::ScoreRequest request;
    request.seed = seed;
    request.triples = triples;
    serve::ScoreResponse response;
    if (!client->Score(request, &response, &error)) return Fail(error);
    if (response.status != serve::Status::kOk) {
      return Fail(std::string("score rejected: ") +
                  serve::StatusName(response.status) + ": " + response.error);
    }
    for (double s : response.scores) std::printf("%.17g\n", s);
    return 0;
  }
  // Pipelined: split the logical request into `pipeline` chunks, each
  // carrying its logical index offset, with the whole window in flight.
  const size_t chunk =
      (triples.size() + static_cast<size_t>(pipeline) - 1) /
      static_cast<size_t>(pipeline);
  std::vector<serve::ScoreRequest> requests;
  for (size_t begin = 0; begin < triples.size(); begin += chunk) {
    const size_t end = std::min(triples.size(), begin + chunk);
    serve::ScoreRequest request;
    request.request_id = requests.size() + 1;
    request.seed = seed;
    request.index_offset = begin;
    request.triples.assign(triples.begin() + static_cast<int64_t>(begin),
                           triples.begin() + static_cast<int64_t>(end));
    requests.push_back(std::move(request));
  }
  std::vector<serve::ScoreResponse> responses;
  if (!client->ScorePipelined(requests, static_cast<size_t>(pipeline),
                              &responses, &error)) {
    return Fail(error);
  }
  for (const serve::ScoreResponse& response : responses) {
    if (response.status != serve::Status::kOk) {
      return Fail(std::string("score rejected: ") +
                  serve::StatusName(response.status) + ": " + response.error);
    }
    for (double s : response.scores) std::printf("%.17g\n", s);
  }
  return 0;
}

int IngestEmerging(serve::Client* client, int argc, char** argv) {
  DekgDataset dataset = LoadDekgDatasetDir(argv[3], "client");
  const int32_t chunk = Int32Flag(argc, argv, "--chunk", 64);
  const std::vector<Triple>& emerging = dataset.emerging_triples();
  uint64_t accepted = 0;
  uint64_t invalidated = 0;
  for (size_t begin = 0; begin < emerging.size();
       begin += static_cast<size_t>(chunk)) {
    const size_t end =
        std::min(emerging.size(), begin + static_cast<size_t>(chunk));
    serve::IngestRequest request;
    request.triples.assign(emerging.begin() + static_cast<int64_t>(begin),
                           emerging.begin() + static_cast<int64_t>(end));
    serve::IngestResponse response;
    std::string error;
    if (!client->Ingest(request, &response, &error)) return Fail(error);
    if (response.status != serve::Status::kOk) {
      return Fail(std::string("ingest rejected: ") +
                  serve::StatusName(response.status) + ": " + response.error);
    }
    accepted += response.accepted;
    invalidated += response.invalidated;
  }
  std::printf("ingested %llu emerging triples (%llu cache invalidations)\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(invalidated));
  return 0;
}

int Stats(serve::Client* client) {
  serve::StatsResponse s;
  std::string error;
  if (!client->Stats(&s, &error)) return Fail(error);
  std::printf("queue_depth\t%llu\n",
              static_cast<unsigned long long>(s.queue_depth));
  std::printf("requests_admitted\t%llu\n",
              static_cast<unsigned long long>(s.requests_admitted));
  std::printf("batches_scored\t%llu\n",
              static_cast<unsigned long long>(s.batches_scored));
  std::printf("triples_scored\t%llu\n",
              static_cast<unsigned long long>(s.triples_scored));
  for (size_t b = 0; b < 16; ++b) {
    if (s.batch_hist[b] == 0) continue;
    std::printf("batch_hist[%zu-%zu]\t%llu\n", size_t{1} << b,
                (size_t{2} << b) - 1,
                static_cast<unsigned long long>(s.batch_hist[b]));
  }
  std::printf("latency_p50_ms\t%.3f\n", s.latency_p50_ms);
  std::printf("latency_p99_ms\t%.3f\n", s.latency_p99_ms);
  std::printf("latency_samples\t%llu\n",
              static_cast<unsigned long long>(s.latency_samples));
  std::printf("cache_hits\t%llu\n",
              static_cast<unsigned long long>(s.cache_hits));
  std::printf("cache_misses\t%llu\n",
              static_cast<unsigned long long>(s.cache_misses));
  std::printf("cache_entries\t%llu\n",
              static_cast<unsigned long long>(s.cache_entries));
  std::printf("cache_evictions\t%llu\n",
              static_cast<unsigned long long>(s.cache_evictions));
  std::printf("cache_invalidated\t%llu\n",
              static_cast<unsigned long long>(s.cache_invalidated));
  std::printf("cache_bytes\t%llu\n",
              static_cast<unsigned long long>(s.cache_bytes));
  std::printf("graph_triples\t%llu\n",
              static_cast<unsigned long long>(s.graph_triples));
  std::printf("graph_entities\t%llu\n",
              static_cast<unsigned long long>(s.graph_entities));
  std::printf("ingested_triples\t%llu\n",
              static_cast<unsigned long long>(s.ingested_triples));
  std::printf("embedding_refreshes\t%llu\n",
              static_cast<unsigned long long>(s.embedding_refreshes));
  std::printf("epoch\t%llu\n", static_cast<unsigned long long>(s.epoch));
  std::printf("uptime_s\t%.3f\n", s.uptime_s);
  std::printf("frozen_row_bytes\t%llu\n",
              static_cast<unsigned long long>(s.frozen_row_bytes));
  std::printf("frozen_weight_bytes\t%llu\n",
              static_cast<unsigned long long>(s.frozen_weight_bytes));
  for (const serve::ShardStatsBlock& b : s.shards) {
    std::printf("shard[%u]\thits %llu\tmisses %llu\tentries %llu\n", b.shard,
                static_cast<unsigned long long>(b.cache_hits),
                static_cast<unsigned long long>(b.cache_misses),
                static_cast<unsigned long long>(b.cache_entries));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(
        stderr,
        "usage:\n"
        "  dekg_serve_client <port> score <dir> [--links N] [--seed S]"
        " [--pipeline D] [--host H]\n"
        "  dekg_serve_client <port> ingest-emerging <dir> [--chunk N]"
        " [--host H]\n"
        "  dekg_serve_client <port> stats [--host H]\n"
        "  dekg_serve_client <port> shutdown [--host H]\n");
    return 2;
  }
  int32_t port = 0;
  if (!dekg::ParseInt32(argv[1], &port) || port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port: %s\n", argv[1]);
    return 2;
  }
  const std::string command = argv[2];
  const std::string host = FlagValue(argc, argv, "--host", "127.0.0.1");

  serve::Client client;
  std::string error;
  if (!client.Connect(host, static_cast<uint16_t>(port), &error)) {
    return Fail(error);
  }
  if (command == "score" && argc >= 4) return Score(&client, argc, argv);
  if (command == "ingest-emerging" && argc >= 4) {
    return IngestEmerging(&client, argc, argv);
  }
  if (command == "stats") return Stats(&client);
  if (command == "shutdown") {
    if (!client.Shutdown(&error)) return Fail(error);
    std::printf("server draining\n");
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
