// Enclosing-subgraph extraction and node labeling for GSM (Sec. IV-C).
//
// For a target link (e_i, r_k, e_j) the subgraph over the t-hop
// neighborhoods of e_i and e_j is extracted and every node u is labeled
// with the double-radius pair (d(i,u), d(j,u)), where d(i,u) is the
// shortest-path distance from e_i avoiding e_j (and vice versa). The head
// and tail are labeled (0,1) and (1,0).
//
// Two labeling policies are provided:
//  * kGrail  — prunes nodes with d(i,u) > t or d(j,u) > t (the original
//    GraIL enclosing subgraph). For a bridging link this leaves only the
//    two endpoint nodes: the topological limitation in action.
//  * kImproved — DEKG-ILP's labeling: such nodes are kept, and the
//    out-of-range distance is set to -1, whose one-hot encoding is the
//    all-zero vector. These nodes "simulate disconnected nodes" during
//    training, so the GNN learns to embed disconnected subgraph pairs.
//
// Extraction is output-sensitive (DESIGN.md §16): per-call cost is
// O(|touched| log |touched| + induced edges), independent of the number
// of entities in the graph. The distance fields live in a stamp-versioned
// SubgraphWorkspace — allocated once, never cleared — so the two blocked
// BFS passes and candidate generation touch only reached nodes, yet the
// result is bit-identical to the retained dense reference
// (ExtractSubgraphDense), which fills and scans O(num_entities) state.
#ifndef DEKG_GRAPH_SUBGRAPH_H_
#define DEKG_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <vector>

#include "kg/knowledge_graph.h"

namespace dekg {

enum class NodeLabeling {
  kGrail,
  kImproved,
};

// A node of the extracted subgraph. Distances use -1 for "unreachable
// within t hops (or at all)".
struct SubgraphNode {
  EntityId entity;
  int32_t dist_head;
  int32_t dist_tail;
};

// An edge between local node indices.
struct SubgraphEdge {
  int32_t src;  // local node index
  RelationId rel;
  int32_t dst;  // local node index
};

// Extracted subgraph around one target link. Node 0 is always the head,
// node 1 the tail (even when they have no neighborhood).
struct Subgraph {
  std::vector<SubgraphNode> nodes;
  std::vector<SubgraphEdge> edges;

  int32_t head_local() const { return 0; }
  int32_t tail_local() const { return 1; }
};

struct SubgraphConfig {
  // Neighborhood radius t.
  int32_t num_hops = 2;
  NodeLabeling labeling = NodeLabeling::kImproved;
  // Safety cap on node count (0 = unlimited). When exceeded, the farthest
  // nodes are dropped first (head/tail always kept; caps of 1 and 2 keep
  // exactly the two endpoints).
  int32_t max_nodes = 256;
};

namespace internal {

// A labeled candidate node awaiting the max_nodes cap. Implementation
// detail of AssembleSubgraph, exposed only so SubgraphWorkspace can own a
// reusable buffer of them.
struct ExtractCandidate {
  EntityId entity;
  int32_t dh;
  int32_t dt;
  int32_t order_key;
};

}  // namespace internal

// Reusable scratch state for repeated extractions. Extraction reads only
// a const KnowledgeGraph and writes only into the workspace, so concurrent
// extractions are safe as long as each thread owns its own workspace.
//
// The per-entity and per-edge arrays are stamp-versioned: a slot is valid
// only when its stamp matches the mark of the pass that wrote it, so
// "clearing" a field costs one counter increment instead of an
// O(num_entities) fill. The arrays are sized on demand (EnsureCapacity
// only grows them) and never zeroed between calls — reusing one workspace
// across graphs of different sizes is safe, because every extraction
// takes fresh stamps that no stale slot can match. When the 32-bit stamp
// counter runs out of headroom the arrays are zero-filled once and the
// counter restarts (wrap_resets counts these; one reset per ~1.4 billion
// extractions).
struct SubgraphWorkspace {
  // Blocked-BFS distance fields of the last ExtractSubgraph call:
  // dist_head[u] is valid iff head_stamp[u] == head_mark (&& head_mark
  // != 0), likewise for the tail field. HeadDistance/TailDistance wrap
  // the test and return -1 for "unreached".
  std::vector<int32_t> dist_head;
  std::vector<int32_t> dist_tail;
  std::vector<uint32_t> head_stamp;
  std::vector<uint32_t> tail_stamp;
  uint32_t head_mark = 0;
  uint32_t tail_mark = 0;

  // BFS visit order of the two passes (source first); doubles as the BFS
  // queue. |reached_head| + |reached_tail| is the per-extraction BFS cost.
  std::vector<EntityId> reached_head;
  std::vector<EntityId> reached_tail;

  // Ascending union of the two reached sets after ExtractSubgraph — the
  // touched set. Everything the extraction read besides the graph.
  std::vector<EntityId> touched;

  // Assembly scratch: local node index + membership stamp per entity, a
  // visited stamp per global edge id, and the candidate buffer.
  std::vector<int32_t> local_index;
  std::vector<uint32_t> local_stamp;
  std::vector<uint32_t> edge_stamp;
  std::vector<internal::ExtractCandidate> candidates;

  // Stamp counter state. `stamp` is the last issued stamp; 0 is never
  // issued, so zero-filled (fresh or reset) stamp slots are always
  // invalid. Public so tests can force the wrap path.
  uint32_t stamp = 0;
  uint64_t wrap_resets = 0;

  // Grows the per-entity / per-edge arrays to the given sizes (never
  // shrinks). New slots are zero-stamped, i.e. invalid.
  void EnsureNodeCapacity(int64_t num_entities);
  void EnsureEdgeCapacity(int64_t num_edges);

  // Guarantees `count` more stamps can be issued without wrapping past
  // UINT32_MAX; zero-fills every stamp array and restarts the counter
  // when they cannot (invalidating all previously written fields).
  void ReserveStamps(uint32_t count);
  // Issues the next stamp. Call ReserveStamps first; never returns 0.
  uint32_t NextStamp() { return ++stamp; }

  // Sparse reads of the last extraction's distance fields (-1 when the
  // entity was not reached by that pass).
  int32_t HeadDistance(EntityId u) const {
    const size_t i = static_cast<size_t>(u);
    return head_stamp[i] == head_mark && head_mark != 0 ? dist_head[i] : -1;
  }
  int32_t TailDistance(EntityId u) const {
    const size_t i = static_cast<size_t>(u);
    return tail_stamp[i] == tail_mark && tail_mark != 0 ? dist_tail[i] : -1;
  }
};

// A lazily constructed workspace owned by the calling thread, reused for
// its lifetime. The hot extraction paths (training cache misses, evaluation,
// serving cache misses) route through this so repeated extractions touch
// only O(touched) state — a fresh workspace would pay an O(num_entities)
// allocation + zero-fill per call, which is exactly what the stamps
// exist to avoid.
SubgraphWorkspace* GetThreadLocalSubgraphWorkspace();

// Process-wide extraction accounting (relaxed atomics; totals are
// deterministic because each extraction's contribution is). Surfaced in
// the bench JSON trails (bench_extract, bench_train) so extraction-cost
// regressions are visible.
struct ExtractionCounters {
  uint64_t extractions = 0;     // sparse extractions performed
  uint64_t bfs_popped = 0;      // nodes popped across both BFS passes
  uint64_t candidates_kept = 0; // candidate nodes surviving the cap
};
ExtractionCounters GetExtractionCounters();
void ResetExtractionCounters();

// BFS distances from `source` to every node, avoiding `blocked` (distance
// computed as if `blocked` were deleted). Unreached nodes get -1. Distances
// greater than `max_depth` are not explored. O(num_entities): this is the
// dense reference form, used by tests and benches.
std::vector<int32_t> BfsDistances(const KnowledgeGraph& g, EntityId source,
                                  EntityId blocked, int32_t max_depth);

// Allocation-reusing dense form: distances land in *dist (resized to
// g.num_entities()); *frontier is scratch. Re-entrant over a const graph.
void BfsDistances(const KnowledgeGraph& g, EntityId source, EntityId blocked,
                  int32_t max_depth, std::vector<int32_t>* dist,
                  std::vector<EntityId>* frontier);

// Extracts the labeled subgraph around (head, ?, tail) from `g`. Any edge
// identical to the target triple (head, target_rel, tail) — or its exact
// inverse — is excluded, so a positive training link never sees itself.
// Uses the calling thread's reusable workspace.
Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config);

// Same, reusing the caller's workspace across calls (hot loops: training
// epochs, batched inference). Results are identical to the form above.
// On return the workspace holds the extraction's sparse state — the two
// stamped blocked-BFS distance fields and the ascending touched set —
// which TouchedEntities / TouchedEntityLabels below consume in
// O(touched). That state stays valid until the workspace's next
// extraction.
Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config,
                         SubgraphWorkspace* workspace);

// Dense reference implementation: two O(num_entities) distance fills plus
// a full entity scan, assembled through its own map-based twin of the
// assembly step — the pre-stamping extraction path, kept verbatim so the
// sparse path can be differentially tested (and benched) against it.
// Bit-identical to ExtractSubgraph on every input by the candidate-order
// argument of DESIGN.md §16.
Subgraph ExtractSubgraphDense(const KnowledgeGraph& g, EntityId head,
                              EntityId tail, RelationId target_rel,
                              const SubgraphConfig& config);

// Entities the last extraction's result depends on: every u with
// HeadDistance(u) >= 0 or TailDistance(u) >= 0 (the union of the two
// blocked t-hop neighborhoods, endpoints included), ascending. A new edge
// can only change an extraction when at least one of its endpoints lies
// in this set — to alter either BFS field it must be reached through a
// node at blocked distance <= t-1, which is itself in the set, and an
// edge newly induced between kept nodes has both endpoints in it. So
// dropping every cached extraction whose touched set holds a new edge's
// endpoint is exact: nothing stale survives, and an extraction left
// resident is bit-identical to a fresh one on the grown graph. Each serve
// shard's SubgraphCache (graph/subgraph_cache.h) indexes its resident
// subgraphs by this set and invalidates on ingest by that rule.
// O(touched): reads the workspace's stored union, no entity scan.
std::vector<EntityId> TouchedEntities(const SubgraphWorkspace& workspace);

// Sparse restriction of the two blocked-BFS distance fields to the touched
// set: entities[i] ascending, dist_head[i]/dist_tail[i] its labels (-1 =
// outside that field's t-hop ball). Nothing in src/ reads the distances
// any more; the struct is kept only because the benchmark program still
// counts touched entities through TouchedEntityLabels, and can go when it
// calls TouchedEntities instead. A distance lies in -1..num_hops and is
// stored in one signed byte, so ExtractSubgraph checks num_hops <=
// kMaxLabelHops and no label is ever narrowed.
struct TouchedLabels {
  static constexpr int32_t kMaxLabelHops = 127;
  std::vector<EntityId> entities;
  std::vector<int8_t> dist_head;
  std::vector<int8_t> dist_tail;
};

// TouchedEntities plus the distance labels, read from the same sparse
// workspace state in O(touched).
TouchedLabels TouchedEntityLabels(const SubgraphWorkspace& workspace);

// Bytes of a subgraph's node and edge arrays (sizes, not capacities): the
// payload SubgraphCache (graph/subgraph_cache.h) accounts.
int64_t SubgraphPayloadBytes(const Subgraph& s);

}  // namespace dekg

#endif  // DEKG_GRAPH_SUBGRAPH_H_
