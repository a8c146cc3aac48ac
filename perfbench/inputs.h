// Seeded benchmark inputs (perfbench/WORKLOADS.md): every world,
// checkpoint, query pool and request schedule is a pure function of
// (workload, seed), generated once into a cache directory and reused by
// later runs.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dekg_ilp.h"
#include "kg/knowledge_graph.h"

namespace perfbench {

enum class Workload { kServeHubs, kServeIngest, kTrainEval };

bool ParseWorkload(const std::string& name, Workload* workload);
const char* WorkloadName(Workload workload);
bool IsServeWorkload(Workload workload);

// What a serving workload's world and traffic look like.
struct ServeSpec {
  int32_t entities = 0;
  double skew = 0.0;         // datagen popularity skew
  bool no_emerging = false;  // server starts from G; G' arrives by ingest
  // The query pool: warmup_queries test links, each sent once, cold, by
  // the warm-up, which the timed phases then draw Zipf-skewed; then
  // cold_queries further links for the closed phase and as many for the
  // open phase, each sent at most once; then window_queries links for the
  // cold window of each of the kServeRounds rounds.
  int32_t warmup_queries = 0;
  int32_t cold_queries = 0;
  int32_t window_queries = 0;
  // Request mix by schedule position i within a phase: an ingest when
  // i % ingest_every == ingest_every - 1 (0: no ingest), else a first
  // sight of the next cold link when i % cold_every == cold_every / 2
  // (closed phase; open_cold_every in the open phase; 0: none), else a
  // fact check when i % kFactEvery == kFactEvery - 1, else a ranking
  // request for a warm-up link.
  int32_t ingest_every = 0;
  int32_t cold_every = 0;
  // Shares of each timed round's seconds given to the closed and the
  // open loop; the cold window runs on top, for as long as it takes. So
  // every round holds the same open-loop requests and the same closed-
  // loop time however fast the host is.
  double closed_share = 0.25;
  double open_share = 0.5;
  // Open-loop Poisson arrivals, requests/s, enough that the open phase of
  // a 24 s run holds about 1,000 requests or more; the open phase takes a
  // cold link every open_cold_every requests.
  double open_rate = 100.0;
  int32_t open_cold_every = 0;
  int32_t cache_entries = 4096;  // dekg_serve --cache (its default: 4096)
};
ServeSpec ServeSpecFor(Workload workload);

// Timed rounds of a serving run, each a cold window, a closed-loop window
// and an open-loop window.
inline constexpr int kServeRounds = 5;
// Triples per ranking request: the pool link plus 31 candidate tails.
inline constexpr int kQueryTriples = 32;
// Emerging triples per ingest request.
inline constexpr int kIngestBatch = 64;
// One request in this many is a fact check. The traffic model fixes no
// share; at 1 in 4, fact checks are ~1% of scored triples, so they weigh
// on request latency while costing little server time.
inline constexpr int kFactEvery = 4;
// Test links datagen keeps in a serving world (enclosing and bridging).
inline constexpr int kPoolLinks = 2000;
// Longest timed phase any run may ask for; schedules are sized for it.
inline constexpr double kMaxPhaseSeconds = 40.0;
// Sizes the closed schedule; a closed loop that runs past its end wraps.
inline constexpr double kMaxClosedRate = 1500.0;

// kIngest carries the next G' batch and kCold the next cold link, both
// handed out when the request is sent, since how far a time-bounded run
// gets is not known in advance.
enum class RequestKind : int32_t {
  kRank = 0,
  kFact = 1,
  kIngest = 2,
  kCold = 3,
};

struct Request {
  RequestKind kind = RequestKind::kRank;
  int32_t query = 0;     // kRank / kFact: index into the warm-up links
  int32_t position = 0;  // kFact: which triple of the query is checked
  double at_s = 0.0;     // open loop: scheduled send time from phase start
};

struct ServeInputs {
  std::string data_dir;
  std::string checkpoint;
  // kQueryTriples each: the warm-up links, then the closed phase's and
  // the open phase's cold links, each in the order they are sent, then
  // the cold windows' links.
  std::vector<std::vector<dekg::Triple>> queries;
  size_t cold_per_phase = 0;  // cold links of each of the two phases
  std::vector<int32_t> warmup;  // query indices
  std::vector<std::vector<int32_t>> windows;  // per round, query indices
  std::vector<Request> closed;
  std::vector<Request> open;
  std::vector<int32_t> gate;  // query indices the correctness gate checks
};

struct TrainInputs {
  std::string data_dir;
  std::vector<int32_t> gate_links;            // test-link indices
  std::vector<int32_t> eval_links;            // test-link indices
  std::vector<dekg::Triple> latency_triples;  // offline scoring calls
};

// Every seed of a workload shares one world, generated from a fixed
// seed like a benchmark dataset: between independently generated worlds
// of these sizes per-triple costs differ by more than any bound the
// benchmark could keep. The seed draws everything sampled over the world:
// the query pool, candidate tails, request schedule, evaluation links
// and scoring calls.
struct InputDirs {
  std::string world;    // data/, links.tsv, and for serving model.ckpt
  std::string samples;  // the seed's files
};

// The input directories for (workload, seed) under `cache_root`,
// generated first when absent. A partial directory from a killed run is
// never mistaken for a complete one.
InputDirs EnsureInputs(Workload workload, uint64_t seed,
                       const std::string& cache_root);

ServeInputs LoadServeInputs(Workload workload, const InputDirs& dirs);
TrainInputs LoadTrainInputs(const InputDirs& dirs);

// The files EnsureInputs writes, relative to `cache_root`.
std::vector<std::string> InputFiles(Workload workload, uint64_t seed);

// The traffic model's first-sight share: of `requests` draws, Zipf
// (s = 1) over `links` ranked links, the expected share that asks for a
// link not asked for before, the `warmed` hottest links counting as asked
// for already (the warm-up sends them). serve_ingest sends first sights
// (cold links) at this share; serve_hubs, where one costs ~100 ms, at a
// far lower one (see ServeSpecFor).
double ZipfFirstSightShare(int64_t links, int64_t warmed, int64_t requests);

// Model shape shared by the checkpoint writer, the server (its default
// --dim) and the in-process oracles.
dekg::core::DekgIlpConfig ModelConfig(int32_t num_relations);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
