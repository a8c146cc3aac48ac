#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "datagen/synthetic_kg.h"
#include "kg/dataset_io.h"

namespace perfbench {

namespace fs = std::filesystem;
using dekg::DekgDataset;
using dekg::EntityId;
using dekg::Rng;
using dekg::Triple;

namespace {

// Bumped whenever the generator's output changes, so a stale cache from
// an older benchmark is regenerated rather than reused.
constexpr const char* kInputsVersion = "perfbench-inputs-9";

// train_eval: the FB15k-237 stand-in at ~2k entities and ~100 relations.
constexpr double kTrainEvalScale = 4.8;
constexpr int kGateLinks = 4;
constexpr int kEvalLinks = 16;
// Candidates of 16 rounds of train_eval's offline scoring calls; a run
// making more rounds wraps around.
constexpr int kLatencyTriples = 20480;
// Pool links whose 32 served triples each the serving gates compare
// against the offline oracle.
constexpr int kGateQueries = 4;

constexpr double kZipfExponent = 1.0;

void WritePhase(std::ofstream& out, const char* phase,
                const std::vector<Request>& requests) {
  char line[128];
  for (const Request& r : requests) {
    std::snprintf(line, sizeof(line), "%s\t%d\t%d\t%d\t%.9f\n", phase,
                  static_cast<int>(r.kind), r.query, r.position, r.at_s);
    out << line;
  }
}

// Zipf rank in [0, n): rank k has weight 1 / (k + 1)^s, from the prefix
// sums of those weights.
int32_t DrawRank(Rng* rng, const std::vector<double>& prefix, size_t n) {
  const double u = rng->UniformDouble() * prefix[n - 1];
  const auto it = std::upper_bound(prefix.begin(),
                                   prefix.begin() + static_cast<int64_t>(n), u);
  return static_cast<int32_t>(
      std::min<int64_t>(it - prefix.begin(), static_cast<int64_t>(n) - 1));
}

// Draws one phase's request mix. Ranking requests and fact checks are
// Zipf over the query pool, query k being the k-th hottest; `times`
// (may be empty) gives open-loop send times.
std::vector<Request> DrawPhase(const ServeSpec& spec, Rng* rng,
                               const std::vector<double>& prefix,
                               int64_t count, const std::vector<double>& times) {
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Request r;
    if (!times.empty()) r.at_s = times[static_cast<size_t>(i)];
    const auto slot = [i](int32_t every) {
      return every > 0 && i % every == every - 1;
    };
    if (slot(spec.ingest_every)) {
      r.kind = RequestKind::kIngest;
      out.push_back(r);
      continue;
    }
    r.query = DrawRank(rng, prefix, prefix.size());
    if (spec.cold_every > 0 && i % spec.cold_every == spec.cold_every / 2) {
      r.kind = RequestKind::kCold;  // r.query stands in once the pool is used up
    } else if (slot(kFactEvery)) {
      r.kind = RequestKind::kFact;
      r.position = static_cast<int32_t>(
          1 + rng->UniformUint64(static_cast<uint64_t>(kQueryTriples - 1)));
    }
    out.push_back(r);
  }
  return out;
}

// The world a workload's every seed shares (see GenerateWorld).
constexpr uint64_t kWorldSeed = 1;

const dekg::KnowledgeGraph& ServedGraph(Workload workload,
                                        const DekgDataset& dataset) {
  return IsServeWorkload(workload) && ServeSpecFor(workload).no_emerging
             ? dataset.original_graph()
             : dataset.inference_graph();
}

DekgDataset MakeWorld(Workload workload) {
  if (!IsServeWorkload(workload)) {
    return dekg::datagen::MakeBenchmarkDataset(
        dekg::datagen::KgFamily::kFbLike, dekg::datagen::EvalSplit::kEq,
        kTrainEvalScale, kWorldSeed);
  }
  const ServeSpec spec = ServeSpecFor(workload);
  dekg::datagen::SchemaConfig schema;
  schema.num_types = 12;
  schema.num_relations = 48;
  schema.num_entities = spec.entities;
  schema.avg_degree = 6.0;
  schema.popularity_skew = spec.skew;
  dekg::datagen::SplitConfig split;
  split.max_test_links = kPoolLinks;
  return dekg::datagen::MakeDekgDataset(WorkloadName(workload), schema, split,
                                        kWorldSeed);
}

// What the query pool and samples need of the world, read without
// building its graphs.
struct World {
  int32_t entities = 0;
  int32_t relations = 0;
  std::vector<Triple> links;   // test links
  std::vector<size_t> by_cost; // test-link indices, by touched-set size
};

World ReadWorld(const std::string& dir) {
  World w;
  std::ifstream meta(dir + "/data/meta.tsv");
  int32_t original = 0, emerging = 0;
  meta >> original >> emerging >> w.relations;
  w.entities = original + emerging;
  std::ifstream test(dir + "/data/test.tsv");
  Triple t;
  std::string kind;
  while (test >> t.head >> t.rel >> t.tail >> kind) w.links.push_back(t);
  std::ifstream sizes(dir + "/links.tsv");
  std::vector<std::pair<size_t, size_t>> by_size;
  size_t touched = 0;
  while (sizes >> touched) by_size.emplace_back(touched, by_size.size());
  DEKG_CHECK(meta && w.entities > 0 && !w.links.empty() &&
             by_size.size() == w.links.size())
      << "corrupt world in " << dir;
  std::sort(by_size.begin(), by_size.end());
  for (const auto& [size, index] : by_size) w.by_cost.push_back(index);
  return w;
}

// The middle element of each of n equal strata of `sorted`.
std::vector<size_t> PerStratum(const std::vector<size_t>& sorted, size_t n) {
  std::vector<size_t> out;
  for (size_t j = 0; j < n; ++j) {
    out.push_back(sorted[(2 * j + 1) * sorted.size() / (2 * n)]);
  }
  return out;
}

// The first `count` elements of `items` in bit-reversed index order:
// every prefix is spread evenly over `items`.
std::vector<size_t> SpreadOrder(const std::vector<size_t>& items,
                                size_t count) {
  int bits = 0;
  while ((size_t{1} << bits) < items.size()) ++bits;
  std::vector<size_t> out;
  for (size_t k = 0; k < (size_t{1} << bits) && out.size() < count; ++k) {
    size_t reversed = 0;
    for (int b = 0; b < bits; ++b) reversed |= ((k >> b) & 1) << (bits - 1 - b);
    if (reversed < items.size()) out.push_back(items[reversed]);
  }
  return out;
}

// The serving query pool, fixed by the world. On a hub-skewed world a
// link's serving cost follows its touched-set size, which is heavy-
// tailed: a random handful of links would make every seed a different
// workload, and measured, it moved closed-loop throughput by half between
// seeds. So the warm-up links are the middle link of each of n equal
// strata of the links sorted by that size, Zipf rank k maps to stratum
// (k * stride) mod n, a fixed spread, and the other links are split
// alternately between the closed and the open phase, each half in
// SpreadOrder, so every prefix of a phase's cold links — a run uses as
// many as it has time for — is spread over the cost range. Each link's
// 31 candidate tails are drawn from the world seed too: a candidate tail
// that is a hub makes its triple's subgraph huge, so seed-drawn tails
// made a cold request's cost a draw of the seed. queries.tsv lists the
// warm-up links, then the closed and the open phase's cold links, each
// in the order they are sent, then the links of each round's cold window.
void WriteQueries(Workload workload, const std::string& dir) {
  const ServeSpec spec = ServeSpecFor(workload);
  const World world = ReadWorld(dir);
  const size_t n = static_cast<size_t>(spec.warmup_queries);
  const size_t cold = static_cast<size_t>(spec.cold_queries);
  const std::vector<size_t> strata = PerStratum(world.by_cost, n);
  size_t stride = (n * 618 / 1000) | 1;
  while (std::gcd(stride, n) != 1) stride += 2;
  std::vector<size_t> chosen;  // test-link indices, in query order
  for (size_t k = 0; k < n; ++k) chosen.push_back(strata[(k * stride) % n]);
  const std::unordered_set<size_t> warm(chosen.begin(), chosen.end());
  std::vector<size_t> halves[2];
  for (size_t index : world.by_cost) {
    if (warm.count(index) == 0) {
      halves[halves[0].size() > halves[1].size()].push_back(index);
    }
  }
  // Each phase takes its cold links from the middle two fifths of its
  // half's cost range. Over the whole range a few hub links, one job of
  // up to ~600 ms each, set the open phase's p99 and a fifth of the
  // closed phase's time, and both moved with the host's speed during
  // those few jobs. Within the band the costly jobs are many and alike.
  // The band's median cost is that of all test links.
  for (std::vector<size_t>& half : halves) {
    const std::vector<size_t> band(
        half.begin() + static_cast<int64_t>(half.size() * 3 / 10),
        half.begin() + static_cast<int64_t>(half.size() * 7 / 10));
    DEKG_CHECK_GE(band.size(), cold) << "world has too few test links for the cold links";
    for (size_t index : SpreadOrder(band, cold)) chosen.push_back(index);
  }
  // The cold windows' links: the middle link of each of R * K equal
  // strata of the middle two fifths of the links left, the cold links'
  // cost band (on the whole range, a few hub links set a window's time
  // alone); round r takes strata r, r + R, r + 2R, ..., so every round's
  // window holds the same spread of costs.
  const std::unordered_set<size_t> taken(chosen.begin(), chosen.end());
  std::vector<size_t> rest;
  for (size_t index : world.by_cost) {
    if (taken.count(index) == 0) rest.push_back(index);
  }
  const std::vector<size_t> rest_band(
      rest.begin() + static_cast<int64_t>(rest.size() * 3 / 10),
      rest.begin() + static_cast<int64_t>(rest.size() * 7 / 10));
  const size_t per_window = static_cast<size_t>(spec.window_queries);
  const size_t windows = per_window * kServeRounds;
  DEKG_CHECK_GE(rest_band.size(), windows)
      << "world has too few test links for the cold windows";
  const std::vector<size_t> window_strata = PerStratum(rest_band, windows);
  for (size_t r = 0; r < kServeRounds; ++r) {
    for (size_t k = 0; k < per_window; ++k) {
      chosen.push_back(window_strata[k * kServeRounds + r]);
    }
  }
  std::ofstream out(dir + "/queries.tsv");
  for (size_t index : chosen) {
    const Triple link = world.links[index];
    out << link.head << '\t' << link.rel << '\t' << link.tail;
    Rng tails(dekg::MixSeed(kWorldSeed, 3 + index));
    for (int c = 1; c < kQueryTriples;) {
      const EntityId tail = static_cast<EntityId>(
          tails.UniformUint64(static_cast<uint64_t>(world.entities)));
      if (tail == link.head || tail == link.tail) continue;
      out << '\t' << tail;
      ++c;
    }
    out << '\n';
  }
}

// The world: the dataset; for serving a checkpoint from a short fixed-
// seed training run on G, and the query pool (WriteQueries); and the
// touched-set size of every test link's enclosing subgraph on the graph
// it is scored against (links.tsv, in test-link order): what a link
// costs to score, which the query pool and train_eval's links stratify
// on.
void GenerateWorld(Workload workload, const std::string& dir) {
  const DekgDataset dataset = MakeWorld(workload);
  dekg::SaveDekgDatasetDir(dataset, dir + "/data");
  Log("generated %s world: %d entities, %d relations, %zu train + %zu "
      "emerging triples, %zu test links",
      WorkloadName(workload), dataset.num_total_entities(),
      dataset.num_relations(), dataset.train_triples().size(),
      dataset.emerging_triples().size(), dataset.test_links().size());
  dekg::core::DekgIlpModel model(ModelConfig(dataset.num_relations()),
                                 /*seed=*/1);
  if (IsServeWorkload(workload)) {
    dekg::core::TrainConfig train;
    train.epochs = 1;
    train.max_triples_per_epoch = 64;
    train.num_threads = 2;
    train.seed = kWorldSeed;
    dekg::core::DekgIlpTrainer trainer(&model, &dataset, train);
    trainer.TrainEpoch();
    DEKG_CHECK(trainer.SaveCheckpoint(dir + "/model.ckpt"))
        << "cannot write checkpoint";
  }
  {
    std::ofstream out(dir + "/links.tsv");
    dekg::SubgraphWorkspace workspace;
    for (const dekg::LabeledLink& link : dataset.test_links()) {
      model.gsm()->Extract(ServedGraph(workload, dataset), link.triple, &workspace);
      out << dekg::TouchedEntities(workspace).size() << '\n';
    }
  }
  if (IsServeWorkload(workload)) WriteQueries(workload, dir);
}

// The seed's request schedule over the world's query pool: the request
// mix, the open loop's arrival times, and the gate.
void GenerateServeSamples(Workload workload, uint64_t seed,
                          const std::string& dir) {
  const ServeSpec spec = ServeSpecFor(workload);
  const size_t n = static_cast<size_t>(spec.warmup_queries);
  Rng rng(dekg::MixSeed(seed, 2));
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    prefix[k] = acc;
  }
  const std::vector<Request> closed = DrawPhase(
      spec, &rng, prefix,
      static_cast<int64_t>(kMaxClosedRate * kMaxPhaseSeconds), {});
  std::vector<double> times;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / spec.open_rate;
    if (t >= kMaxPhaseSeconds) break;
    times.push_back(t);
  }
  ServeSpec open_spec = spec;
  open_spec.cold_every = spec.open_cold_every;
  const std::vector<Request> open = DrawPhase(
      open_spec, &rng, prefix, static_cast<int64_t>(times.size()), times);
  std::ofstream out(dir + "/schedule.tsv");
  for (size_t q = 0; q < n; ++q) out << "warmup\t0\t" << q << "\t0\t0\n";
  // Gate: a seeded choice of warm-up links, which every run sends.
  for (size_t q : rng.SampleWithoutReplacement(n, kGateQueries)) {
    out << "gate\t0\t" << q << "\t0\t0\n";
  }
  WritePhase(out, "closed", closed);
  WritePhase(out, "open", open);
}

void GenerateTrainSamples(uint64_t seed, const std::string& world_dir,
                          const std::string& dir) {
  const World world = ReadWorld(world_dir);
  Rng rng(dekg::MixSeed(seed, 2));
  std::ofstream out(dir + "/samples.tsv");
  for (size_t i : rng.SampleWithoutReplacement(world.links.size(), kGateLinks)) {
    out << "gate\t" << i << '\n';
  }
  // Evaluate's links: the middle link of each equal stratum of the links
  // sorted by touched-set size, which sets their cost; fixed by the world.
  for (size_t i : PerStratum(world.by_cost, kEvalLinks)) {
    out << "eval\t" << i << '\n';
  }
  // Candidates for the offline scoring calls: a test link with its head,
  // tail or relation replaced, so they cost what Evaluate's do.
  for (int i = 0; i < kLatencyTriples; ++i) {
    Triple t = world.links[rng.UniformUint64(world.links.size())];
    switch (rng.UniformUint64(3)) {
      case 0:
        t.head = static_cast<EntityId>(
            rng.UniformUint64(static_cast<uint64_t>(world.entities)));
        break;
      case 1:
        t.tail = static_cast<EntityId>(
            rng.UniformUint64(static_cast<uint64_t>(world.entities)));
        break;
      default:
        t.rel = static_cast<dekg::RelationId>(
            rng.UniformUint64(static_cast<uint64_t>(world.relations)));
    }
    out << "score\t" << t.head << '\t' << t.rel << '\t' << t.tail << '\n';
  }
}

// Generates `dir` with `generate` unless a complete one exists: written
// under a temporary name and renamed when done, so a killed run never
// leaves a directory that looks complete.
void EnsureDir(const std::string& dir,
               const std::function<void(const std::string&)>& generate) {
  {
    std::ifstream in(dir + "/inputs.done");
    std::string version;
    if (in && std::getline(in, version) && version == kInputsVersion) return;
  }
  const double start = Now();
  const std::string tmp = dir + ".tmp" + std::to_string(::getpid());
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  generate(tmp);
  {
    std::ofstream out(tmp + "/inputs.done");
    out << kInputsVersion << '\n';
  }
  fs::remove_all(dir);
  fs::rename(tmp, dir);
  Log("generated %s in %.1f s", dir.c_str(), Now() - start);
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w :
       {Workload::kServeHubs, Workload::kServeIngest, Workload::kTrainEval}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kServeHubs:
      return "serve_hubs";
    case Workload::kServeIngest:
      return "serve_ingest";
    case Workload::kTrainEval:
      return "train_eval";
  }
  return "?";
}

bool IsServeWorkload(Workload workload) {
  return workload != Workload::kTrainEval;
}

ServeSpec ServeSpecFor(Workload workload) {
  ServeSpec spec;
  if (workload == Workload::kServeHubs) {
    spec.entities = 100000;
    spec.skew = 0.7;
    spec.warmup_queries = 64;
    spec.cold_queries = 200;
    // ~1.5 s of cold hub scoring per round.
    spec.window_queries = 16;
    // Far below the traffic model's first-sight share (0.20 of ~4,700
    // timed requests): a cold hub link costs ~100 ms of the server.
    // Measured at a 0.2 share, capacity fell to ~37 requests/s, and an
    // open loop at 20 requests/s gathered 247 samples in 11 s, a quarter
    // of what p99 needs.
    spec.cold_every = 40;
    // A cold hub link holds the server for ~100-250 ms, and the requests
    // arriving meanwhile queue behind it. At a cold link every 80th
    // request the server was a third busy with them, and p99 moved twice
    // as far as the host's speed; every 160th halves that load.
    spec.open_rate = 200.0;
    spec.open_cold_every = 160;
    spec.closed_share = 0.25;
    spec.open_share = 0.5;
    // Room for the triples of the pool, the run's cold links and the cold
    // windows, so fact checks hit the cache. With the default 4096 the
    // cold links evicted pool triples within the run, and fact checks
    // became hub extractions.
    spec.cache_entries = 12288;
  } else {
    // At 3e5 entities an ingest's whole-graph copy took ~130 ms and its
    // time drifted with the host's memory bandwidth; at 1e5 it is ~40 ms.
    spec.entities = 100000;
    spec.skew = 0.2;
    spec.no_emerging = true;
    spec.warmup_queries = 512;
    spec.cold_queries = 280;
    // ~0.3 s of cold scoring per round: links here are cheap.
    spec.window_queries = 64;
    // The traffic model's first-sight share, 0.145 of ~2,200 timed
    // requests: cold links are cheap on this world.
    spec.cold_every = 7;
    spec.open_cold_every = 7;
    // p99 rests on the ~35 ingests of the open phase; an ingest every
    // 128th request left ~9 there, and p99 moved by half between seeds.
    spec.ingest_every = 32;
    // Requests queued behind an ingest each take ~4 ms of forward passes
    // after its memo flush, so the more arrive during an ingest, the more
    // p99 moves with the host's speed: over 10 seeds its spread was 0.27
    // at 100 requests/s, 0.29 at 70 and 0.08 at 50. At this rate the open
    // loop needs nine tenths of the run to hold ~1,000 requests.
    spec.open_rate = 50.0;
    spec.closed_share = 0.1;
    spec.open_share = 0.9;
    // Room for every pool triple, so requests queued behind an ingest
    // drain in forward passes rather than re-extractions and the tail
    // follows the ingest itself.
    spec.cache_entries = 49152;
  }
  return spec;
}

double ZipfFirstSightShare(int64_t links, int64_t warmed, int64_t requests) {
  if (requests <= 0) return 0.0;
  double norm = 0.0;
  for (int64_t k = 0; k < links; ++k) {
    norm += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
  }
  double distinct = 0.0;  // expected links first asked for by the draws
  for (int64_t k = warmed; k < links; ++k) {
    const double p = 1.0 / (std::pow(static_cast<double>(k + 1), kZipfExponent) * norm);
    distinct += 1.0 - std::pow(1.0 - p, static_cast<double>(requests));
  }
  return distinct / static_cast<double>(requests);
}

dekg::core::DekgIlpConfig ModelConfig(int32_t num_relations) {
  dekg::core::DekgIlpConfig config;
  config.num_relations = num_relations;
  config.dim = 32;
  return config;
}

std::vector<std::string> InputFiles(Workload workload, uint64_t seed) {
  const std::string world = std::string(WorkloadName(workload)) + "-world/";
  const std::string samples =
      std::string(WorkloadName(workload)) + "-" + std::to_string(seed) + "/";
  std::vector<std::string> files;
  for (const char* f : {"data/meta.tsv", "data/train.tsv", "data/emerging.tsv",
                        "data/valid.tsv", "data/test.tsv", "links.tsv"}) {
    files.push_back(world + f);
  }
  if (IsServeWorkload(workload)) {
    files.insert(files.end(), {world + "model.ckpt", world + "queries.tsv",
                               samples + "schedule.tsv"});
  } else {
    files.push_back(samples + "samples.tsv");
  }
  return files;
}

InputDirs EnsureInputs(Workload workload, uint64_t seed,
                       const std::string& cache_root) {
  InputDirs dirs;
  dirs.world = cache_root + "/" + WorkloadName(workload) + "-world";
  dirs.samples =
      cache_root + "/" + WorkloadName(workload) + "-" + std::to_string(seed);
  EnsureDir(dirs.world,
            [&](const std::string& dir) { GenerateWorld(workload, dir); });
  EnsureDir(dirs.samples, [&](const std::string& dir) {
    if (IsServeWorkload(workload)) {
      GenerateServeSamples(workload, seed, dir);
    } else {
      GenerateTrainSamples(seed, dirs.world, dir);
    }
  });
  return dirs;
}

ServeInputs LoadServeInputs(Workload workload, const InputDirs& dirs) {
  const std::string& dir = dirs.samples;
  const ServeSpec spec = ServeSpecFor(workload);
  ServeInputs in;
  in.data_dir = dirs.world + "/data";
  in.checkpoint = dirs.world + "/model.ckpt";
  std::ifstream queries(dirs.world + "/queries.tsv");
  std::string line;
  while (std::getline(queries, line)) {
    std::istringstream fields(line);
    Triple base;
    fields >> base.head >> base.rel;
    std::vector<Triple> q;
    EntityId tail = 0;
    while (fields >> tail) q.push_back(Triple{base.head, base.rel, tail});
    DEKG_CHECK_EQ(static_cast<int>(q.size()), kQueryTriples)
        << "corrupt queries.tsv";
    in.queries.push_back(std::move(q));
  }
  std::ifstream schedule(dir + "/schedule.tsv");
  while (std::getline(schedule, line)) {
    std::istringstream fields(line);
    std::string phase;
    int kind = 0;
    Request r;
    fields >> phase >> kind >> r.query >> r.position >> r.at_s;
    DEKG_CHECK(fields && kind >= 0 && kind <= 3 && r.query >= 0 &&
               r.query < static_cast<int32_t>(in.queries.size()) &&
               r.position >= 0 && r.position < kQueryTriples)
        << "corrupt schedule.tsv";
    r.kind = static_cast<RequestKind>(kind);
    if (phase == "warmup") {
      in.warmup.push_back(r.query);
    } else if (phase == "gate") {
      in.gate.push_back(r.query);
    } else if (phase == "closed") {
      in.closed.push_back(r);
    } else {
      in.open.push_back(r);
    }
  }
  DEKG_CHECK(!in.warmup.empty() && !in.gate.empty() && !in.closed.empty() &&
             !in.open.empty())
      << "incomplete inputs in " << dir;
  const size_t per_window = static_cast<size_t>(spec.window_queries);
  in.cold_per_phase = static_cast<size_t>(spec.cold_queries);
  size_t q = in.warmup.size() + 2 * in.cold_per_phase;
  DEKG_CHECK_EQ(q + kServeRounds * per_window, in.queries.size())
      << "queries.tsv does not match the workload in " << dirs.world;
  in.windows.resize(kServeRounds);
  for (std::vector<int32_t>& window : in.windows) {
    for (size_t k = 0; k < per_window; ++k) window.push_back(static_cast<int32_t>(q++));
  }
  return in;
}

TrainInputs LoadTrainInputs(const InputDirs& dirs) {
  const std::string& dir = dirs.samples;
  TrainInputs in;
  in.data_dir = dirs.world + "/data";
  std::ifstream samples(dir + "/samples.tsv");
  std::string line;
  while (std::getline(samples, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "gate" || kind == "eval") {
      int32_t index = 0;
      fields >> index;
      (kind == "gate" ? in.gate_links : in.eval_links).push_back(index);
    } else {
      Triple t;
      fields >> t.head >> t.rel >> t.tail;
      in.latency_triples.push_back(t);
    }
    DEKG_CHECK(static_cast<bool>(fields)) << "corrupt samples.tsv";
  }
  DEKG_CHECK(!in.gate_links.empty() && !in.eval_links.empty() &&
             !in.latency_triples.empty())
      << "incomplete inputs in " << dir;
  return in;
}

}  // namespace perfbench
