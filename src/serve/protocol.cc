#include "serve/protocol.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/checkpoint.h"

namespace dekg::serve {

namespace {

void AppendTriples(std::vector<uint8_t>* out,
                   const std::vector<Triple>& triples) {
  ckpt::AppendPod(out, static_cast<uint32_t>(triples.size()));
  for (const Triple& t : triples) {
    ckpt::AppendPod(out, t.head);
    ckpt::AppendPod(out, t.rel);
    ckpt::AppendPod(out, t.tail);
  }
}

bool ReadTriples(ckpt::ByteReader* reader, std::vector<Triple>* triples) {
  uint32_t count = 0;
  if (!reader->ReadPod(&count)) return false;
  // Each triple costs 12 payload bytes; a count outrunning the payload is
  // rejected up front instead of attempting a giant allocation.
  if (static_cast<uint64_t>(count) * 12 > reader->remaining()) return false;
  triples->assign(count, Triple{});
  for (Triple& t : *triples) {
    if (!reader->ReadPod(&t.head) || !reader->ReadPod(&t.rel) ||
        !reader->ReadPod(&t.tail)) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kBadRequest:
      return "bad request";
    case Status::kUnknownRelation:
      return "unknown relation";
    case Status::kBadEntity:
      return "bad entity";
    case Status::kShuttingDown:
      return "shutting down";
    case Status::kInternal:
      return "internal error";
  }
  return "?";
}

std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  ckpt::AppendPod(&out, kFrameMagic);
  ckpt::AppendPod(&out, kProtocolVersion);
  ckpt::AppendPod(&out, static_cast<uint8_t>(type));
  ckpt::AppendPod(&out, static_cast<uint16_t>(0));
  ckpt::AppendPod(&out, static_cast<uint64_t>(payload.size()));
  ckpt::AppendRaw(&out, payload.data(), payload.size());
  return out;
}

bool DecodeFrameHeader(const uint8_t* header, MessageType* type,
                       uint64_t* payload_size, std::string* error) {
  ckpt::ByteReader reader(header, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t raw_type = 0;
  uint16_t reserved = 0;
  if (!reader.ReadPod(&magic) || !reader.ReadPod(&version) ||
      !reader.ReadPod(&raw_type) || !reader.ReadPod(&reserved) ||
      !reader.ReadPod(payload_size)) {
    if (error != nullptr) *error = "short frame header";
    return false;
  }
  if (magic != kFrameMagic) {
    if (error != nullptr) *error = "bad frame magic";
    return false;
  }
  if (version != kProtocolVersion) {
    if (error != nullptr) {
      *error = "unsupported protocol version " + std::to_string(version);
    }
    return false;
  }
  if (*payload_size > kMaxPayloadBytes) {
    if (error != nullptr) *error = "oversized frame payload";
    return false;
  }
  *type = static_cast<MessageType>(raw_type);
  return true;
}

std::vector<uint8_t> EncodeScoreRequest(const ScoreRequest& request) {
  std::vector<uint8_t> out;
  ckpt::AppendPod(&out, request.request_id);
  ckpt::AppendPod(&out, request.seed);
  ckpt::AppendPod(&out, request.index_offset);
  ckpt::AppendPod(&out, static_cast<uint8_t>(request.with_rank ? 1 : 0));
  AppendTriples(&out, request.triples);
  return out;
}

bool DecodeScoreRequest(const std::vector<uint8_t>& payload,
                        ScoreRequest* request) {
  ckpt::ByteReader reader(payload);
  uint8_t with_rank = 0;
  if (!reader.ReadPod(&request->request_id) ||
      !reader.ReadPod(&request->seed) ||
      !reader.ReadPod(&request->index_offset) ||
      !reader.ReadPod(&with_rank) ||
      !ReadTriples(&reader, &request->triples)) {
    return false;
  }
  request->with_rank = with_rank != 0;
  return reader.AtEnd();
}

std::vector<uint8_t> EncodeScoreResponse(const ScoreResponse& response) {
  std::vector<uint8_t> out;
  ckpt::AppendPod(&out, response.request_id);
  ckpt::AppendPod(&out, static_cast<uint8_t>(response.status));
  ckpt::AppendString(&out, response.error);
  ckpt::AppendPod(&out, static_cast<uint8_t>(response.has_rank ? 1 : 0));
  ckpt::AppendPod(&out, response.rank);
  ckpt::AppendPod(&out, static_cast<uint32_t>(response.scores.size()));
  for (double s : response.scores) ckpt::AppendPod(&out, s);
  return out;
}

bool DecodeScoreResponse(const std::vector<uint8_t>& payload,
                         ScoreResponse* response) {
  ckpt::ByteReader reader(payload);
  uint8_t status = 0;
  uint8_t has_rank = 0;
  uint32_t count = 0;
  if (!reader.ReadPod(&response->request_id) || !reader.ReadPod(&status) ||
      !reader.ReadString(&response->error) || !reader.ReadPod(&has_rank) ||
      !reader.ReadPod(&response->rank) || !reader.ReadPod(&count)) {
    return false;
  }
  if (static_cast<uint64_t>(count) * sizeof(double) > reader.remaining()) {
    return false;
  }
  response->status = static_cast<Status>(status);
  response->has_rank = has_rank != 0;
  response->scores.assign(count, 0.0);
  for (double& s : response->scores) {
    if (!reader.ReadPod(&s)) return false;
  }
  return reader.AtEnd();
}

std::vector<uint8_t> EncodeIngestRequest(const IngestRequest& request) {
  std::vector<uint8_t> out;
  ckpt::AppendPod(&out, request.request_id);
  AppendTriples(&out, request.triples);
  return out;
}

bool DecodeIngestRequest(const std::vector<uint8_t>& payload,
                         IngestRequest* request) {
  ckpt::ByteReader reader(payload);
  return reader.ReadPod(&request->request_id) &&
         ReadTriples(&reader, &request->triples) && reader.AtEnd();
}

std::vector<uint8_t> EncodeIngestResponse(const IngestResponse& response) {
  std::vector<uint8_t> out;
  ckpt::AppendPod(&out, response.request_id);
  ckpt::AppendPod(&out, static_cast<uint8_t>(response.status));
  ckpt::AppendString(&out, response.error);
  ckpt::AppendPod(&out, response.accepted);
  ckpt::AppendPod(&out, response.duplicates);
  ckpt::AppendPod(&out, response.invalidated);
  ckpt::AppendPod(&out, response.patched);
  ckpt::AppendPod(&out, response.repaired);
  ckpt::AppendPod(&out, response.new_entities);
  return out;
}

bool DecodeIngestResponse(const std::vector<uint8_t>& payload,
                          IngestResponse* response) {
  ckpt::ByteReader reader(payload);
  uint8_t status = 0;
  if (!reader.ReadPod(&response->request_id) || !reader.ReadPod(&status) ||
      !reader.ReadString(&response->error) ||
      !reader.ReadPod(&response->accepted) ||
      !reader.ReadPod(&response->duplicates) ||
      !reader.ReadPod(&response->invalidated) ||
      !reader.ReadPod(&response->patched) ||
      !reader.ReadPod(&response->repaired) ||
      !reader.ReadPod(&response->new_entities)) {
    return false;
  }
  response->status = static_cast<Status>(status);
  return reader.AtEnd();
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& response) {
  std::vector<uint8_t> out;
  ckpt::AppendPod(&out, static_cast<uint8_t>(response.status));
  ckpt::AppendPod(&out, response.queue_depth);
  ckpt::AppendPod(&out, response.requests_admitted);
  ckpt::AppendPod(&out, response.batches_scored);
  ckpt::AppendPod(&out, response.triples_scored);
  for (uint64_t bucket : response.batch_hist) ckpt::AppendPod(&out, bucket);
  ckpt::AppendPod(&out, response.latency_p50_ms);
  ckpt::AppendPod(&out, response.latency_p99_ms);
  ckpt::AppendPod(&out, response.latency_samples);
  ckpt::AppendPod(&out, response.cache_hits);
  ckpt::AppendPod(&out, response.cache_misses);
  ckpt::AppendPod(&out, response.cache_entries);
  ckpt::AppendPod(&out, response.cache_evictions);
  ckpt::AppendPod(&out, response.cache_invalidated);
  ckpt::AppendPod(&out, response.cache_patched);
  ckpt::AppendPod(&out, response.cache_repaired);
  ckpt::AppendPod(&out, response.cache_fallback);
  ckpt::AppendPod(&out, response.cache_bytes);
  ckpt::AppendPod(&out, response.graph_triples);
  ckpt::AppendPod(&out, response.graph_entities);
  ckpt::AppendPod(&out, response.ingested_triples);
  ckpt::AppendPod(&out, response.embedding_refreshes);
  ckpt::AppendPod(&out, response.epoch);
  ckpt::AppendPod(&out, response.uptime_s);
  ckpt::AppendPod(&out, response.precision);
  ckpt::AppendPod(&out, response.frozen_row_bytes);
  ckpt::AppendPod(&out, response.frozen_weight_bytes);
  ckpt::AppendPod(&out, static_cast<uint32_t>(response.shards.size()));
  for (const ShardStatsBlock& b : response.shards) {
    ckpt::AppendPod(&out, b.shard);
    ckpt::AppendPod(&out, b.cache_hits);
    ckpt::AppendPod(&out, b.cache_misses);
    ckpt::AppendPod(&out, b.cache_entries);
    ckpt::AppendPod(&out, b.cache_patched);
    ckpt::AppendPod(&out, b.cache_repaired);
    ckpt::AppendPod(&out, b.cache_fallback);
  }
  return out;
}

bool DecodeStatsResponse(const std::vector<uint8_t>& payload,
                         StatsResponse* response) {
  ckpt::ByteReader reader(payload);
  uint8_t status = 0;
  if (!reader.ReadPod(&status)) return false;
  response->status = static_cast<Status>(status);
  bool ok = reader.ReadPod(&response->queue_depth) &&
            reader.ReadPod(&response->requests_admitted) &&
            reader.ReadPod(&response->batches_scored) &&
            reader.ReadPod(&response->triples_scored);
  for (uint64_t& bucket : response->batch_hist) {
    ok = ok && reader.ReadPod(&bucket);
  }
  ok = ok && reader.ReadPod(&response->latency_p50_ms) &&
       reader.ReadPod(&response->latency_p99_ms) &&
       reader.ReadPod(&response->latency_samples) &&
       reader.ReadPod(&response->cache_hits) &&
       reader.ReadPod(&response->cache_misses) &&
       reader.ReadPod(&response->cache_entries) &&
       reader.ReadPod(&response->cache_evictions) &&
       reader.ReadPod(&response->cache_invalidated) &&
       reader.ReadPod(&response->cache_patched) &&
       reader.ReadPod(&response->cache_repaired) &&
       reader.ReadPod(&response->cache_fallback) &&
       reader.ReadPod(&response->cache_bytes) &&
       reader.ReadPod(&response->graph_triples) &&
       reader.ReadPod(&response->graph_entities) &&
       reader.ReadPod(&response->ingested_triples) &&
       reader.ReadPod(&response->embedding_refreshes) &&
       reader.ReadPod(&response->epoch) &&
       reader.ReadPod(&response->uptime_s) &&
       reader.ReadPod(&response->precision) &&
       reader.ReadPod(&response->frozen_row_bytes) &&
       reader.ReadPod(&response->frozen_weight_bytes);
  uint32_t shard_count = 0;
  ok = ok && reader.ReadPod(&shard_count);
  // Each block costs 52 payload bytes; reject a lying count before
  // allocating.
  if (!ok || static_cast<uint64_t>(shard_count) * 52 > reader.remaining()) {
    return false;
  }
  response->shards.assign(shard_count, ShardStatsBlock{});
  for (ShardStatsBlock& b : response->shards) {
    ok = ok && reader.ReadPod(&b.shard) && reader.ReadPod(&b.cache_hits) &&
         reader.ReadPod(&b.cache_misses) && reader.ReadPod(&b.cache_entries) &&
         reader.ReadPod(&b.cache_patched) &&
         reader.ReadPod(&b.cache_repaired) && reader.ReadPod(&b.cache_fallback);
  }
  return ok && reader.AtEnd();
}

// ----- Socket I/O -----

namespace {

bool WriteAll(int fd, const uint8_t* buf, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that disconnected mid-pipeline must surface
    // as EPIPE on this thread, not SIGPIPE to the process. Non-socket
    // fds (tests drive the framing over pipes) fall back to write().
    ssize_t n = ::send(fd, buf + done, size - done, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, buf + done, size - done);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool WriteFrame(int fd, MessageType type, const std::vector<uint8_t>& payload,
                std::string* error) {
  const std::vector<uint8_t> frame = EncodeFrame(type, payload);
  if (!WriteAll(fd, frame.data(), frame.size())) {
    if (error != nullptr) *error = "write failed";
    return false;
  }
  return true;
}

void AppendFrame(std::vector<uint8_t>* wire, MessageType type,
                 const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame = EncodeFrame(type, payload);
  wire->insert(wire->end(), frame.begin(), frame.end());
}

bool WriteWire(int fd, const std::vector<uint8_t>& wire, std::string* error) {
  if (wire.empty()) return true;
  if (!WriteAll(fd, wire.data(), wire.size())) {
    if (error != nullptr) *error = "write failed";
    return false;
  }
  return true;
}

void FrameReader::Reset(int fd) {
  fd_ = fd;
  buffer_.clear();
  pos_ = 0;
}

bool FrameReader::Fill(size_t need, bool* clean_eof) {
  *clean_eof = false;
  while (buffer_.size() - pos_ < need) {
    if (pos_ > 0) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<int64_t>(pos_));
      pos_ = 0;
    }
    const size_t have = buffer_.size();
    // Ask for a big block: a blocking read returns whatever is already
    // queued (at least one byte), so a pipelined burst arrives in one
    // syscall without waiting for the full block.
    const size_t want = std::max(need - have, size_t{16384});
    buffer_.resize(have + want);
    const ssize_t n = ::read(fd_, buffer_.data() + have, want);
    if (n <= 0) {
      buffer_.resize(have);
      if (n < 0 && errno == EINTR) continue;
      *clean_eof = n == 0 && have == 0;
      return false;
    }
    buffer_.resize(have + static_cast<size_t>(n));
  }
  return true;
}

bool FrameReader::ReadFrame(Frame* frame, std::string* error) {
  bool clean_eof = false;
  if (!Fill(kFrameHeaderBytes, &clean_eof)) {
    if (error != nullptr) {
      if (clean_eof) {
        error->clear();
      } else {
        *error = "truncated frame header";
      }
    }
    return false;
  }
  uint64_t payload_size = 0;
  if (!DecodeFrameHeader(buffer_.data() + pos_, &frame->type, &payload_size,
                         error)) {
    return false;
  }
  pos_ += kFrameHeaderBytes;
  if (!Fill(static_cast<size_t>(payload_size), &clean_eof)) {
    if (error != nullptr) *error = "truncated frame payload";
    return false;
  }
  frame->payload.assign(
      buffer_.begin() + static_cast<int64_t>(pos_),
      buffer_.begin() + static_cast<int64_t>(pos_ + payload_size));
  pos_ += static_cast<size_t>(payload_size);
  return true;
}

}  // namespace dekg::serve
