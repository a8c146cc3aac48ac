// Online scoring server entrypoint (DESIGN.md §9).
//
// Loads a checkpointed DEKG-ILP model, builds the live graph from a
// dataset directory, and serves the binary protocol on a TCP port.
//
// Usage:
//   dekg_serve <dir> <checkpoint> [--dim D] [--host H] [--port P]
//              [--port-file PATH] [--threads T] [--shards N] [--batch N]
//              [--cache N] [--max-entities N] [--no-emerging]
//       Serve. --port 0 (default) binds an ephemeral port; the bound port
//       is printed and, with --port-file, written there for scripts.
//       --shards N partitions the entity space over N shard engines
//       (consistent-hash routing, DESIGN.md §14; scores are bit-identical
//       at any shard count). --no-emerging starts from the train graph
//       only (emerging triples arrive via the client's ingest-emerging
//       mode).
//
//   dekg_serve <dir> <checkpoint> --print-golden N [--dim D]
//       No server: print the offline scores of the first N test links
//       (DekgIlpPredictor over the static inference graph) one per line
//       at full %.17g precision. The CI smoke diffs the served scores
//       against this output bit for bit.
//
// SIGTERM / SIGINT trigger a graceful drain: stop accepting, answer
// everything admitted, then exit (the self-pipe pattern — the handler
// only writes one byte; a watcher thread does the actual stop).
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "kg/dataset_io.h"
#include "nn/train_checkpoint.h"
#include "serve/batcher.h"
#include "serve/router.h"
#include "serve/server.h"

using namespace dekg;

namespace {

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
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

int self_pipe_write_fd = -1;

void HandleStopSignal(int /*signo*/) {
  const char byte = 1;
  // write() is async-signal-safe; the watcher thread does the real work.
  [[maybe_unused]] ssize_t n = ::write(self_pipe_write_fd, &byte, 1);
}

int PrintGolden(const DekgDataset& dataset, core::DekgIlpModel* model,
                int32_t count) {
  core::DekgIlpPredictor predictor(model);
  std::vector<Triple> triples;
  for (const LabeledLink& link : dataset.test_links()) {
    if (static_cast<int32_t>(triples.size()) >= count) break;
    triples.push_back(link.triple);
  }
  const std::vector<double> scores =
      predictor.ScoreTriples(dataset.inference_graph(), triples);
  for (double s : scores) std::printf("%.17g\n", s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(
        stderr,
        "usage: dekg_serve <dir> <checkpoint> [--dim D] [--host H] [--port P]"
        " [--port-file PATH]\n"
        "                  [--threads T] [--shards N] [--batch N] [--cache N]"
        " [--max-entities N]\n"
        "                  [--no-emerging] [--print-golden N]\n"
        "                  [--precision fp32|fp16|int8]\n");
    return 2;
  }
  const std::string dir = argv[1];
  const std::string checkpoint = argv[2];

  const int32_t threads = Int32Flag(argc, argv, "--threads", 0);
  if (threads > 0) SetDefaultThreadCount(threads);

  DekgDataset dataset = LoadDekgDatasetDir(dir, "serve");
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = Int32Flag(argc, argv, "--dim", 32);
  core::DekgIlpModel model(config, /*seed=*/1);
  std::string error;
  if (!nn::LoadParamsOnly(checkpoint, &model, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const int32_t golden = Int32Flag(argc, argv, "--print-golden", 0);
  if (golden > 0) return PrintGolden(dataset, &model, golden);

  // Base graph: the full offline inference graph, or — with --no-emerging
  // — the train graph only, converging to the same graph (bit-identically)
  // once the emerging triples are ingested in file order.
  const bool no_emerging = HasFlag(argc, argv, "--no-emerging");
  const KnowledgeGraph& base =
      no_emerging ? dataset.original_graph() : dataset.inference_graph();

  serve::RouterConfig router_config;
  router_config.num_shards = Int32Flag(argc, argv, "--shards", 1);
  if (router_config.num_shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  serve::EngineConfig& engine_config = router_config.engine;
  engine_config.cache_capacity = Int32Flag(argc, argv, "--cache", 4096);
  engine_config.live_graph.max_entities =
      Int32Flag(argc, argv, "--max-entities", 1 << 20);
  // --precision fp16/int8 serves the frozen model quantized (DESIGN.md
  // §15): smaller footprint, epsilon-accurate scores. fp32 (default)
  // keeps the bit-exact determinism contract.
  const char* precision_flag = FlagValue(argc, argv, "--precision", "fp32");
  if (!quant::ParsePrecision(precision_flag, &engine_config.precision)) {
    std::fprintf(stderr, "--precision must be fp32, fp16, or int8 (got %s)\n",
                 precision_flag);
    return 2;
  }
  serve::Router router(&model, base, router_config);

  serve::BatcherConfig batcher_config;
  batcher_config.max_batch_triples = Int32Flag(argc, argv, "--batch", 256);
  serve::MicroBatcher batcher(&router, batcher_config);

  serve::ServerConfig server_config;
  server_config.host = FlagValue(argc, argv, "--host", "127.0.0.1");
  server_config.port =
      static_cast<uint16_t>(Int32Flag(argc, argv, "--port", 0));
  serve::ScoringServer server(&batcher, server_config);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  // Graceful SIGTERM/SIGINT via self-pipe + watcher thread.
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  self_pipe_write_fd = pipe_fds[1];
  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  std::thread watcher([&server, read_fd = pipe_fds[0]] {
    char byte;
    while (::read(read_fd, &byte, 1) < 0 && errno == EINTR) {
    }
    server.RequestStop();
  });

  std::printf(
      "serving %s on %s:%u (%d shard%s, batch %lld, cache %lld, %s)\n",
      dir.c_str(), server_config.host.c_str(), server.port(),
      router_config.num_shards, router_config.num_shards == 1 ? "" : "s",
      static_cast<long long>(batcher_config.max_batch_triples),
      static_cast<long long>(engine_config.cache_capacity),
      quant::PrecisionName(engine_config.precision));
  std::fflush(stdout);
  const char* port_file = FlagValue(argc, argv, "--port-file", nullptr);
  if (port_file != nullptr) {
    std::FILE* f = std::fopen(port_file, "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }

  server.Wait();
  // Unblock the watcher if shutdown came from the protocol, not a signal.
  { [[maybe_unused]] ssize_t n = ::write(self_pipe_write_fd, "", 1); }
  watcher.join();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  const serve::EngineStats stats = router.Stats();
  std::printf("drained: %llu ingested (epoch %llu), cache %llu hits / "
              "%llu misses, %llu invalidated, touched index %.2f MB "
              "(%llu sweeps)\n",
              static_cast<unsigned long long>(stats.ingested_triples),
              static_cast<unsigned long long>(router.epoch()),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_invalidated),
              static_cast<double>(stats.index_bytes) / 1e6,
              static_cast<unsigned long long>(stats.index_sweeps));
  for (int32_t s = 0; s < router.num_shards(); ++s) {
    const serve::EngineStats one = router.ShardStats(s);
    std::printf("  shard %d: %llu hits / %llu misses, %llu invalidated\n",
                s, static_cast<unsigned long long>(one.cache_hits),
                static_cast<unsigned long long>(one.cache_misses),
                static_cast<unsigned long long>(one.cache_invalidated));
  }
  return 0;
}
