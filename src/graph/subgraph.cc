#include "graph/subgraph.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

namespace dekg {

namespace {

// Process-wide extraction accounting. Relaxed ordering is enough: the
// counters are monotone sums with no ordering relationship to any other
// data, and each extraction's contribution is deterministic, so the
// totals are too.
std::atomic<uint64_t> g_extractions{0};
std::atomic<uint64_t> g_bfs_popped{0};
std::atomic<uint64_t> g_candidates_kept{0};

}  // namespace

ExtractionCounters GetExtractionCounters() {
  ExtractionCounters c;
  c.extractions = g_extractions.load(std::memory_order_relaxed);
  c.bfs_popped = g_bfs_popped.load(std::memory_order_relaxed);
  c.candidates_kept = g_candidates_kept.load(std::memory_order_relaxed);
  return c;
}

void ResetExtractionCounters() {
  g_extractions.store(0, std::memory_order_relaxed);
  g_bfs_popped.store(0, std::memory_order_relaxed);
  g_candidates_kept.store(0, std::memory_order_relaxed);
}

void SubgraphWorkspace::EnsureNodeCapacity(int64_t num_entities) {
  const size_t n = static_cast<size_t>(num_entities);
  if (dist_head.size() >= n) return;
  dist_head.resize(n);
  dist_tail.resize(n);
  head_stamp.resize(n, 0);
  tail_stamp.resize(n, 0);
  local_index.resize(n);
  local_stamp.resize(n, 0);
}

void SubgraphWorkspace::EnsureEdgeCapacity(int64_t num_edges) {
  const size_t m = static_cast<size_t>(num_edges);
  if (edge_stamp.size() < m) edge_stamp.resize(m, 0);
}

void SubgraphWorkspace::ReserveStamps(uint32_t count) {
  if (UINT32_MAX - stamp >= count) return;
  // Out of headroom: the one O(num_entities + num_edges) reset per
  // counter cycle. Every previously issued stamp is forgotten, so all
  // prior fields become invalid at once.
  std::fill(head_stamp.begin(), head_stamp.end(), 0u);
  std::fill(tail_stamp.begin(), tail_stamp.end(), 0u);
  std::fill(local_stamp.begin(), local_stamp.end(), 0u);
  std::fill(edge_stamp.begin(), edge_stamp.end(), 0u);
  head_mark = 0;
  tail_mark = 0;
  stamp = 0;
  ++wrap_resets;
}

SubgraphWorkspace* GetThreadLocalSubgraphWorkspace() {
  thread_local SubgraphWorkspace workspace;
  return &workspace;
}

void BfsDistances(const KnowledgeGraph& g, EntityId source, EntityId blocked,
                  int32_t max_depth, std::vector<int32_t>* dist,
                  std::vector<EntityId>* frontier) {
  dist->assign(static_cast<size_t>(g.num_entities()), -1);
  DEKG_CHECK(source >= 0 && source < g.num_entities());
  (*dist)[static_cast<size_t>(source)] = 0;
  frontier->clear();
  frontier->push_back(source);
  // The frontier vector doubles as the BFS queue: qi is the pop cursor.
  // Visit order matches the classic FIFO traversal exactly.
  for (size_t qi = 0; qi < frontier->size(); ++qi) {
    const EntityId u = (*frontier)[qi];
    const int32_t du = (*dist)[static_cast<size_t>(u)];
    if (du >= max_depth) continue;
    for (int32_t eid : g.IncidentEdges(u)) {
      const Edge& e = g.edge(eid);
      const EntityId v = e.src == u ? e.dst : e.src;
      if (v == blocked) continue;
      if ((*dist)[static_cast<size_t>(v)] != -1) continue;
      (*dist)[static_cast<size_t>(v)] = du + 1;
      frontier->push_back(v);
    }
  }
  // The blocked node must read as unreachable even if it is the source's
  // neighbor (paths through it are forbidden, so a path *to* it is allowed
  // in principle, but GraIL's labeling excludes it; head/tail get their
  // fixed labels anyway).
  if (blocked >= 0 && blocked < g.num_entities() && blocked != source) {
    (*dist)[static_cast<size_t>(blocked)] = -1;
  }
}

std::vector<int32_t> BfsDistances(const KnowledgeGraph& g, EntityId source,
                                  EntityId blocked, int32_t max_depth) {
  std::vector<int32_t> dist;
  std::vector<EntityId> frontier;
  BfsDistances(g, source, blocked, max_depth, &dist, &frontier);
  return dist;
}

namespace {

using internal::ExtractCandidate;

// Stamped sparse BFS: the traversal twin of the dense BfsDistances above
// — same adjacency iteration, same FIFO queue, same depth cutoff — with
// the "unvisited" test switched from a dense -1 read to a stamp mismatch.
// Touches only reached slots; *order records the visit order (source
// first). The blocked node is never stamped (the dense form's final
// blocked fixup is a no-op for the same reason: `v == blocked` edges are
// skipped), so the two forms agree on every entity.
void BfsDistancesSparse(const KnowledgeGraph& g, EntityId source,
                        EntityId blocked, int32_t max_depth,
                        std::vector<int32_t>* dist,
                        std::vector<uint32_t>* stamp_of, uint32_t mark,
                        std::vector<EntityId>* order) {
  DEKG_CHECK(source >= 0 && source < g.num_entities());
  (*dist)[static_cast<size_t>(source)] = 0;
  (*stamp_of)[static_cast<size_t>(source)] = mark;
  order->clear();
  order->push_back(source);
  for (size_t qi = 0; qi < order->size(); ++qi) {
    const EntityId u = (*order)[qi];
    const int32_t du = (*dist)[static_cast<size_t>(u)];
    if (du >= max_depth) continue;
    for (int32_t eid : g.IncidentEdges(u)) {
      const Edge& e = g.edge(eid);
      const EntityId v = e.src == u ? e.dst : e.src;
      if (v == blocked) continue;
      if ((*stamp_of)[static_cast<size_t>(v)] == mark) continue;
      (*stamp_of)[static_cast<size_t>(v)] = mark;
      (*dist)[static_cast<size_t>(v)] = du + 1;
      order->push_back(v);
    }
  }
}

// Appends u as a candidate node when the labeling policy keeps it. Shared
// by both candidate sources — the sparse touched-union walk and the dense
// reference scan — so the paths cannot drift.
void AppendCandidate(EntityId u, int32_t dh, int32_t dt,
                     const SubgraphConfig& config,
                     std::vector<ExtractCandidate>* candidates) {
  const bool in_head_hood = dh >= 0;
  const bool in_tail_hood = dt >= 0;
  if (!in_head_hood && !in_tail_hood) return;
  if (config.labeling == NodeLabeling::kGrail &&
      (!in_head_hood || !in_tail_hood)) {
    // GraIL prunes nodes outside the intersection of the two
    // neighborhoods.
    return;
  }
  // Sort key: nodes closest to either endpoint are kept preferentially
  // under the max_nodes cap.
  int32_t near = INT32_MAX;
  if (in_head_hood) near = std::min(near, dh);
  if (in_tail_hood) near = std::min(near, dt);
  candidates->push_back(ExtractCandidate{u, dh, dt, near});
}

// How many sorted candidates survive the max_nodes cap. Caps of 1 and 2
// leave room for nothing beyond the always-kept head/tail pair (a cap of
// 1 previously underflowed `max_nodes - 2` to SIZE_MAX).
size_t KeepCount(const SubgraphConfig& config, size_t num_candidates) {
  if (config.max_nodes > 0 &&
      num_candidates + 2 > static_cast<size_t>(config.max_nodes)) {
    return config.max_nodes > 2 ? static_cast<size_t>(config.max_nodes) - 2
                                : 0;
  }
  return num_candidates;
}

// Node ordering, the max_nodes cap, and induced-edge enumeration, given
// candidates (in the workspace buffer) in ascending-entity order with
// exact blocked-BFS labels: the sparse half of ExtractSubgraph.
// Membership state lives in stamped flat workspace arrays (one fresh
// stamp per call) instead of per-call hash containers; the containers
// were membership-only, so the swap cannot change any output bit.
Subgraph AssembleSubgraph(const KnowledgeGraph& g, EntityId head,
                          EntityId tail, RelationId target_rel,
                          const SubgraphConfig& config,
                          SubgraphWorkspace* ws) {
  std::vector<ExtractCandidate>& candidates = ws->candidates;
  const uint32_t mark = ws->NextStamp();

  Subgraph sub;
  // Node 0 = head with label (0, 1); node 1 = tail with label (1, 0).
  sub.nodes.push_back(SubgraphNode{head, 0, 1});
  sub.nodes.push_back(SubgraphNode{tail, 1, 0});

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ExtractCandidate& a, const ExtractCandidate& b) {
                     return a.order_key < b.order_key;
                   });
  const size_t keep = KeepCount(config, candidates.size());
  for (size_t i = 0; i < keep; ++i) {
    const ExtractCandidate& c = candidates[i];
    sub.nodes.push_back(SubgraphNode{c.entity, c.dh, c.dt});
  }

  // Local index of each kept entity. First writer wins (matters only for
  // head == tail self-loop targets), matching the map emplace the dense
  // reference still uses.
  for (size_t i = 0; i < sub.nodes.size(); ++i) {
    const size_t u = static_cast<size_t>(sub.nodes[i].entity);
    if (ws->local_stamp[u] == mark) continue;
    ws->local_stamp[u] = mark;
    ws->local_index[u] = static_cast<int32_t>(i);
  }

  // Induced edges, visiting each global edge once.
  for (const SubgraphNode& node : sub.nodes) {
    for (int32_t eid : g.IncidentEdges(node.entity)) {
      if (ws->edge_stamp[static_cast<size_t>(eid)] == mark) continue;
      ws->edge_stamp[static_cast<size_t>(eid)] = mark;
      const Edge& e = g.edge(eid);
      if (ws->local_stamp[static_cast<size_t>(e.src)] != mark ||
          ws->local_stamp[static_cast<size_t>(e.dst)] != mark) {
        continue;
      }
      // Exclude the target link itself (and its exact inverse) so a
      // positive example cannot leak its own label.
      if (e.rel == target_rel &&
          ((e.src == head && e.dst == tail) ||
           (e.src == tail && e.dst == head))) {
        continue;
      }
      sub.edges.push_back(
          SubgraphEdge{ws->local_index[static_cast<size_t>(e.src)], e.rel,
                       ws->local_index[static_cast<size_t>(e.dst)]});
    }
  }
  return sub;
}

// The pre-stamping assembly, verbatim: per-call hash containers for
// membership. Only ExtractSubgraphDense uses it, so the sparse-vs-dense
// differential tests cover the assembly swap too, not just the BFS and
// candidate generation.
Subgraph AssembleSubgraphDense(const KnowledgeGraph& g, EntityId head,
                               EntityId tail, RelationId target_rel,
                               const SubgraphConfig& config,
                               std::vector<ExtractCandidate> candidates) {
  Subgraph sub;
  sub.nodes.push_back(SubgraphNode{head, 0, 1});
  sub.nodes.push_back(SubgraphNode{tail, 1, 0});

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const ExtractCandidate& a, const ExtractCandidate& b) {
                     return a.order_key < b.order_key;
                   });
  const size_t keep = KeepCount(config, candidates.size());
  for (size_t i = 0; i < keep; ++i) {
    const ExtractCandidate& c = candidates[i];
    sub.nodes.push_back(SubgraphNode{c.entity, c.dh, c.dt});
  }

  std::unordered_map<EntityId, int32_t> local;
  local.reserve(sub.nodes.size() * 2);
  for (size_t i = 0; i < sub.nodes.size(); ++i) {
    local.emplace(sub.nodes[i].entity, static_cast<int32_t>(i));
  }

  std::unordered_set<int32_t> seen_edges;
  for (const SubgraphNode& node : sub.nodes) {
    for (int32_t eid : g.IncidentEdges(node.entity)) {
      if (!seen_edges.insert(eid).second) continue;
      const Edge& e = g.edge(eid);
      auto src_it = local.find(e.src);
      auto dst_it = local.find(e.dst);
      if (src_it == local.end() || dst_it == local.end()) continue;
      if (e.rel == target_rel &&
          ((e.src == head && e.dst == tail) ||
           (e.src == tail && e.dst == head))) {
        continue;
      }
      sub.edges.push_back(SubgraphEdge{src_it->second, e.rel, dst_it->second});
    }
  }
  return sub;
}

}  // namespace

Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config,
                         SubgraphWorkspace* ws) {
  DEKG_CHECK(g.built());
  DEKG_CHECK_GE(config.num_hops, 1);
  // The touched set's labels (TouchedEntityLabels) store distances in
  // one signed byte.
  DEKG_CHECK_LE(config.num_hops, TouchedLabels::kMaxLabelHops);
  DEKG_CHECK_GE(config.max_nodes, 0);
  ws->EnsureNodeCapacity(g.num_entities());
  ws->EnsureEdgeCapacity(g.num_triples());
  // Three stamps per extraction (head field, tail field, assembly); the
  // block reservation keeps a wrap reset from landing between the passes
  // and invalidating a field mid-extraction.
  ws->ReserveStamps(3);

  ws->head_mark = ws->NextStamp();
  BfsDistancesSparse(g, head, tail, config.num_hops, &ws->dist_head,
                     &ws->head_stamp, ws->head_mark, &ws->reached_head);
  ws->tail_mark = ws->NextStamp();
  BfsDistancesSparse(g, tail, head, config.num_hops, &ws->dist_tail,
                     &ws->tail_stamp, ws->tail_mark, &ws->reached_tail);

  // Touched set: ascending union of the two reached sets. Sorting makes
  // candidate generation visit entities in exactly the order the dense
  // reference's 0..num_entities scan does — the bit-identity argument —
  // at O(touched log touched) instead of O(num_entities).
  ws->touched.clear();
  ws->touched.insert(ws->touched.end(), ws->reached_head.begin(),
                     ws->reached_head.end());
  ws->touched.insert(ws->touched.end(), ws->reached_tail.begin(),
                     ws->reached_tail.end());
  std::sort(ws->touched.begin(), ws->touched.end());
  ws->touched.erase(std::unique(ws->touched.begin(), ws->touched.end()),
                    ws->touched.end());

  ws->candidates.clear();
  for (const EntityId u : ws->touched) {
    if (u == head || u == tail) continue;
    AppendCandidate(u, ws->HeadDistance(u), ws->TailDistance(u), config,
                    &ws->candidates);
  }

  Subgraph sub = AssembleSubgraph(g, head, tail, target_rel, config, ws);

  g_extractions.fetch_add(1, std::memory_order_relaxed);
  g_bfs_popped.fetch_add(
      static_cast<uint64_t>(ws->reached_head.size() + ws->reached_tail.size()),
      std::memory_order_relaxed);
  g_candidates_kept.fetch_add(static_cast<uint64_t>(sub.nodes.size() - 2),
                              std::memory_order_relaxed);
  return sub;
}

Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config) {
  return ExtractSubgraph(g, head, tail, target_rel, config,
                         GetThreadLocalSubgraphWorkspace());
}

Subgraph ExtractSubgraphDense(const KnowledgeGraph& g, EntityId head,
                              EntityId tail, RelationId target_rel,
                              const SubgraphConfig& config) {
  DEKG_CHECK(g.built());
  DEKG_CHECK_GE(config.num_hops, 1);
  DEKG_CHECK_GE(config.max_nodes, 0);
  std::vector<int32_t> dist_head;
  std::vector<int32_t> dist_tail;
  std::vector<EntityId> frontier;
  BfsDistances(g, head, tail, config.num_hops, &dist_head, &frontier);
  BfsDistances(g, tail, head, config.num_hops, &dist_tail, &frontier);

  std::vector<ExtractCandidate> candidates;
  for (EntityId u = 0; u < g.num_entities(); ++u) {
    if (u == head || u == tail) continue;
    AppendCandidate(u, dist_head[static_cast<size_t>(u)],
                    dist_tail[static_cast<size_t>(u)], config, &candidates);
  }
  return AssembleSubgraphDense(g, head, tail, target_rel, config,
                               std::move(candidates));
}

std::vector<EntityId> TouchedEntities(const SubgraphWorkspace& workspace) {
  return workspace.touched;
}

TouchedLabels TouchedEntityLabels(const SubgraphWorkspace& workspace) {
  TouchedLabels out;
  out.entities.reserve(workspace.touched.size());
  out.dist_head.reserve(workspace.touched.size());
  out.dist_tail.reserve(workspace.touched.size());
  for (const EntityId u : workspace.touched) {
    out.entities.push_back(u);
    out.dist_head.push_back(static_cast<int8_t>(workspace.HeadDistance(u)));
    out.dist_tail.push_back(static_cast<int8_t>(workspace.TailDistance(u)));
  }
  return out;
}

int64_t SubgraphPayloadBytes(const Subgraph& s) {
  return static_cast<int64_t>(s.nodes.size() * sizeof(SubgraphNode) +
                              s.edges.size() * sizeof(SubgraphEdge));
}

}  // namespace dekg
