// Wire protocol of the online scoring server (DESIGN.md §9).
//
// Every message travels in one length-prefixed binary frame over a POSIX
// TCP stream — no external serialization dependency, consistent with the
// repo's no-dependency rule. Frame layout (little-endian, packed by the
// byte helpers of common/checkpoint.h):
//
//   u32  magic            0x444B4753 ("DKGS")
//   u8   protocol version (currently 4, kProtocolVersion: v4 added the
//        frozen-model accounting fields to StatsResponse; v3 added
//        per-request ids + index offsets for connection pipelining, and
//        per-shard cache blocks + the snapshot epoch in StatsResponse; v2
//        added the ingest patch / repair counters)
//   u8   message type     (MessageType)
//   u16  reserved         (0)
//   u64  payload length   (bounded by kMaxPayloadBytes)
//   payload bytes
//
// Payload layouts are defined by the typed Encode*/Decode* pairs below;
// both sides of the socket use the same functions, so the layout lives in
// exactly one place. Decoders are total: any malformed payload yields
// `false`, never undefined behavior — this is the boundary where
// untrusted bytes enter the process.
#ifndef DEKG_SERVE_PROTOCOL_H_
#define DEKG_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"

namespace dekg::serve {

inline constexpr uint32_t kFrameMagic = 0x444B4753;  // "DKGS"
// v4 added the frozen-model accounting fields (precision,
// frozen_row_bytes, frozen_weight_bytes) to StatsResponse.
inline constexpr uint8_t kProtocolVersion = 4;
// Upper bound on a single frame payload; a stream claiming more is
// treated as corrupt rather than allocated.
inline constexpr uint64_t kMaxPayloadBytes = 64ull << 20;

enum class MessageType : uint8_t {
  kScoreRequest = 1,
  kScoreResponse = 2,
  kIngestRequest = 3,
  kIngestResponse = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kShutdownRequest = 7,
  kShutdownResponse = 8,
  kErrorResponse = 9,
};

enum class Status : uint8_t {
  kOk = 0,
  kBadRequest = 1,       // malformed frame or empty triple list
  kUnknownRelation = 2,  // relation id not in the checkpointed vocabulary
  kBadEntity = 3,        // negative / out-of-capacity entity id
  kShuttingDown = 4,     // server is draining; request was not admitted
  kInternal = 5,
};

const char* StatusName(Status status);

// ----- Typed messages -----

// Scores `triples` against the live graph. A score depends only on
// (triple, graph), so server scores are independent of micro-batch
// composition and bit-identical to offline Evaluate. Triple i's item
// seed MixSeed(seed, index_offset + i) only keys the server's score
// memo. `index_offset` (v3) lets a pipelined client split one logical
// request into several frames without changing any triple's item seed:
// the chunk starting at logical position o sends index_offset = o, and
// the concatenated responses are bitwise the unsplit request's. When
// `with_rank` is set the first
// triple is treated as the positive and the response carries its
// filtered rank among the rest (eval/evaluator.h RankOf semantics).
//
// `request_id` (v3) is an opaque client token echoed in the response.
// The server answers each connection's frames in arrival order even
// when shards complete out of order, so ids exist for client-side
// verification and tracing, not reordering.
struct ScoreRequest {
  uint64_t request_id = 0;
  uint64_t seed = 123;  // memo key component only; never changes a score
  uint64_t index_offset = 0;
  bool with_rank = false;
  std::vector<Triple> triples;
};

struct ScoreResponse {
  uint64_t request_id = 0;  // echoed from the request
  Status status = Status::kOk;
  std::string error;
  bool has_rank = false;
  double rank = 0.0;
  std::vector<double> scores;
};

// Appends emerging-KG triples to the live graph. Admission is atomic: the
// whole batch is validated first and a rejected batch changes nothing.
struct IngestRequest {
  uint64_t request_id = 0;
  std::vector<Triple> triples;
};

struct IngestResponse {
  uint64_t request_id = 0;  // echoed from the request
  Status status = Status::kOk;
  std::string error;
  uint32_t accepted = 0;
  uint32_t duplicates = 0;     // accepted triples already present (kept;
                               // multiplicity feeds the CLRM tables)
  uint64_t invalidated = 0;    // subgraph-cache entries invalidated
  uint64_t patched = 0;        // always 0; removed in v5
  uint64_t repaired = 0;       // always 0; removed in v5
  uint32_t new_entities = 0;   // entity-id space growth
};

// Per-shard subgraph-cache counters (v3): one block per shard engine,
// in shard order, so operators can see routing skew and which shards
// absorb ingest churn.
struct ShardStatsBlock {
  uint32_t shard = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_patched = 0;   // always 0; removed in v5
  uint64_t cache_repaired = 0;  // always 0; removed in v5
  uint64_t cache_fallback = 0;  // always 0; removed in v5
};

// Operational counters for the STATS surface. Latencies are measured with
// common/timer.h from admission to response readiness.
struct StatsResponse {
  Status status = Status::kOk;
  uint64_t queue_depth = 0;
  uint64_t requests_admitted = 0;
  uint64_t batches_scored = 0;
  uint64_t triples_scored = 0;
  // batch_hist[b] counts scored micro-batches with triple count in
  // [2^b, 2^(b+1)) (b = 0..15; the last bucket absorbs the tail).
  uint64_t batch_hist[16] = {0};
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  uint64_t latency_samples = 0;
  // Subgraph cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidated = 0;
  uint64_t cache_patched = 0;   // always 0; removed in v5
  uint64_t cache_repaired = 0;  // always 0; removed in v5
  uint64_t cache_fallback = 0;  // always 0; removed in v5
  uint64_t cache_bytes = 0;
  // Live graph.
  uint64_t graph_triples = 0;
  uint64_t graph_entities = 0;
  uint64_t ingested_triples = 0;
  uint64_t embedding_refreshes = 0;
  uint64_t epoch = 0;  // current snapshot epoch (v3)
  double uptime_s = 0.0;
  // Frozen-model accounting (v4): fp32 bytes of the materialized CLRM
  // fusion rows and of the R-GCN dense transforms. Writer-global
  // (identical across shards), like the graph counters.
  uint8_t precision = 0;  // always 0; removed in v5
  uint64_t frozen_row_bytes = 0;
  uint64_t frozen_weight_bytes = 0;
  std::vector<ShardStatsBlock> shards;  // one per shard engine (v3)
};

// ----- Frame encode/decode (pure; unit-testable without sockets) -----

struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::vector<uint8_t> payload;
};

// Serializes a full frame (header + payload).
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload);

// Parses `header` (kFrameHeaderBytes bytes). Returns false on bad magic /
// version / oversized payload.
inline constexpr size_t kFrameHeaderBytes = 16;
bool DecodeFrameHeader(const uint8_t* header, MessageType* type,
                       uint64_t* payload_size, std::string* error);

std::vector<uint8_t> EncodeScoreRequest(const ScoreRequest& request);
bool DecodeScoreRequest(const std::vector<uint8_t>& payload,
                        ScoreRequest* request);

std::vector<uint8_t> EncodeScoreResponse(const ScoreResponse& response);
bool DecodeScoreResponse(const std::vector<uint8_t>& payload,
                         ScoreResponse* response);

std::vector<uint8_t> EncodeIngestRequest(const IngestRequest& request);
bool DecodeIngestRequest(const std::vector<uint8_t>& payload,
                         IngestRequest* request);

std::vector<uint8_t> EncodeIngestResponse(const IngestResponse& response);
bool DecodeIngestResponse(const std::vector<uint8_t>& payload,
                          IngestResponse* response);

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response);
bool DecodeStatsResponse(const std::vector<uint8_t>& payload,
                         StatsResponse* response);

// ----- Blocking socket I/O (EINTR-safe, handles short reads/writes) -----

// Writes one frame to `fd`. Returns false on I/O error.
bool WriteFrame(int fd, MessageType type, const std::vector<uint8_t>& payload,
                std::string* error);

// Appends one encoded frame to a wire buffer; WriteWire flushes the
// whole buffer with one syscall. A pipelining peer coalesces a burst of
// small frames this way instead of paying per-frame writes.
void AppendFrame(std::vector<uint8_t>* wire, MessageType type,
                 const std::vector<uint8_t>& payload);
bool WriteWire(int fd, const std::vector<uint8_t>& wire, std::string* error);

// Buffered frame reads: large read() calls into an internal buffer, so
// one syscall can deliver many pipelined frames. ReadFrame returns true
// with one whole frame. It returns false with an empty error string on
// clean EOF at a frame boundary; with "truncated frame header" or
// "truncated frame payload" on EOF or an I/O error inside a frame; and
// with the DecodeFrameHeader error on a bad header.
class FrameReader {
 public:
  explicit FrameReader(int fd = -1) : fd_(fd) {}

  // Attaches to a (new) fd and discards any buffered bytes.
  void Reset(int fd);

  bool ReadFrame(Frame* frame, std::string* error);

 private:
  // Ensures >= `need` unconsumed bytes are buffered. On failure,
  // `clean_eof` distinguishes EOF at a frame boundary from truncation.
  bool Fill(size_t need, bool* clean_eof);

  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;  // consumed prefix of buffer_
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_PROTOCOL_H_
