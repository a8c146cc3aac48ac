#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <utility>

#include "common/logging.h"

namespace dekg::serve {

ScoringServer::ScoringServer(MicroBatcher* batcher, const ServerConfig& config)
    : batcher_(batcher), config_(config) {}

ScoringServer::~ScoringServer() {
  RequestStop();
  Wait();
}

bool ScoringServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host address: " + config_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ScoringServer::RequestStop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  stopping_ = true;
  // Unblocks the accept thread; accept() fails with EINVAL once the
  // listener is shut down.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void ScoringServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    // Half-close every live connection for reading: its handler finishes
    // the request in flight, flushes the response, then sees EOF.
    for (const std::unique_ptr<Connection>& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RD);
    }
  }
  for (const std::unique_ptr<Connection>& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  batcher_->Drain();
}

void ScoringServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal accept error): stop
    }
    // Responses to a pipelining client are many small frames in a row;
    // without this, Nagle holds each behind the previous frame's ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::unique_ptr<Connection>> closed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      std::vector<std::unique_ptr<Connection>> live;
      for (std::unique_ptr<Connection>& connection : connections_) {
        (connection->done ? closed : live).push_back(std::move(connection));
      }
      connections_ = std::move(live);
      connections_.push_back(std::make_unique<Connection>());
      Connection* connection = connections_.back().get();
      connection->fd = fd;
      connection->thread =
          std::thread([this, connection] { HandleConnection(connection); });
    }
    // Outside the lock: a handler takes mutex_ on its way out.
    for (const std::unique_ptr<Connection>& connection : closed) {
      connection->thread.join();
    }
  }
}

size_t ScoringServer::tracked_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connections_.size();
}

namespace {

// One response owed to the peer, in submission order. Futures are
// resolved by the writer thread; immediate entries (decode failures,
// shutdown acks) carry their payload directly.
struct Pending {
  enum class Kind { kScore, kIngest, kStats, kImmediate };
  Kind kind = Kind::kImmediate;
  MessageType type = MessageType::kErrorResponse;
  std::future<ScoreResponse> score;
  std::future<IngestResponse> ingest;
  std::future<StatsResponse> stats;
  std::vector<uint8_t> immediate;
};

Pending ImmediateEntry(MessageType type, std::vector<uint8_t> payload) {
  Pending entry;
  entry.kind = Pending::Kind::kImmediate;
  entry.type = type;
  entry.immediate = std::move(payload);
  return entry;
}

}  // namespace

void ScoringServer::HandleConnection(Connection* connection) {
  const int fd = connection->fd;

  // Per-connection pipeline state, shared between this (reader) thread
  // and the writer thread below.
  std::mutex pipeline_mutex;
  std::condition_variable pipeline_cv;
  std::deque<Pending> pending;
  bool reader_done = false;

  std::thread writer([&] {
    // In-order delivery means the head of the queue must resolve before
    // anything behind it ships; coalescing therefore only ever adds
    // entries that are ALREADY resolved behind a head this thread has
    // finished, so a burst of scheduler-completed responses leaves in
    // one write without the head ever waiting on a straggler.
    const auto resolved = [](const Pending& p) {
      const auto now = std::chrono::seconds(0);
      switch (p.kind) {
        case Pending::Kind::kScore:
          return p.score.wait_for(now) == std::future_status::ready;
        case Pending::Kind::kIngest:
          return p.ingest.wait_for(now) == std::future_status::ready;
        case Pending::Kind::kStats:
          return p.stats.wait_for(now) == std::future_status::ready;
        case Pending::Kind::kImmediate:
          return true;
      }
      return true;
    };
    bool failed = false;  // peer unreachable: drain without writing
    std::vector<uint8_t> wire;  // encoded-but-unflushed responses
    std::string write_error;
    const auto flush = [&] {
      if (!failed && !wire.empty() && !WriteWire(fd, wire, &write_error)) {
        // EPIPE/ECONNRESET land here (MSG_NOSIGNAL, so no signal). Only
        // this connection winds down: kick the reader out of its
        // blocking read and keep draining the queue silently.
        failed = true;
        ::shutdown(fd, SHUT_RD);
      }
      wire.clear();
    };
    for (;;) {
      Pending entry;
      bool have = false;
      {
        std::unique_lock<std::mutex> lock(pipeline_mutex);
        if (wire.empty()) {
          pipeline_cv.wait(lock,
                           [&] { return !pending.empty() || reader_done; });
          if (pending.empty()) return;  // reader finished, queue drained
          have = true;  // may block resolving — nothing is buffered yet
        } else if (!pending.empty() && resolved(pending.front())) {
          have = true;  // extend the burst without blocking
        }
        if (have) {
          entry = std::move(pending.front());
          pending.pop_front();
        }
      }
      if (!have) {
        // Nothing further is ready: put the burst on the wire now.
        flush();
        continue;
      }
      pipeline_cv.notify_all();  // a depth slot freed
      if (failed) continue;  // still pop (unblocks the reader), never write
      // Resolve outside the lock: blocking on the scheduler here is the
      // whole point — the reader keeps admitting frames meanwhile.
      MessageType type = entry.type;
      std::vector<uint8_t> payload;
      switch (entry.kind) {
        case Pending::Kind::kScore:
          type = MessageType::kScoreResponse;
          payload = EncodeScoreResponse(entry.score.get());
          break;
        case Pending::Kind::kIngest:
          type = MessageType::kIngestResponse;
          payload = EncodeIngestResponse(entry.ingest.get());
          break;
        case Pending::Kind::kStats:
          type = MessageType::kStatsResponse;
          payload = EncodeStatsResponse(entry.stats.get());
          break;
        case Pending::Kind::kImmediate:
          payload = std::move(entry.immediate);
          break;
      }
      AppendFrame(&wire, type, payload);
      // Bound the burst: a deep pipeline must not buffer unbounded bytes.
      if (wire.size() >= size_t{256} << 10) flush();
    }
  });

  std::string error;
  Frame frame;
  bool stop_after_close = false;
  FrameReader frame_reader(fd);  // one read() drains a pipelined burst
  while (frame_reader.ReadFrame(&frame, &error)) {
    Pending entry;
    switch (frame.type) {
      case MessageType::kScoreRequest: {
        ScoreRequest request;
        if (!DecodeScoreRequest(frame.payload, &request)) {
          ScoreResponse response;
          response.status = Status::kBadRequest;
          response.error = "malformed score request";
          entry = ImmediateEntry(MessageType::kScoreResponse,
                                 EncodeScoreResponse(response));
        } else {
          entry.kind = Pending::Kind::kScore;
          entry.score = batcher_->SubmitScore(std::move(request));
        }
        break;
      }
      case MessageType::kIngestRequest: {
        IngestRequest request;
        if (!DecodeIngestRequest(frame.payload, &request)) {
          IngestResponse response;
          response.status = Status::kBadRequest;
          response.error = "malformed ingest request";
          entry = ImmediateEntry(MessageType::kIngestResponse,
                                 EncodeIngestResponse(response));
        } else {
          entry.kind = Pending::Kind::kIngest;
          entry.ingest = batcher_->SubmitIngest(std::move(request));
        }
        break;
      }
      case MessageType::kStatsRequest: {
        entry.kind = Pending::Kind::kStats;
        entry.stats = batcher_->SubmitStats();
        break;
      }
      case MessageType::kShutdownRequest: {
        entry = ImmediateEntry(MessageType::kShutdownResponse, {});
        stop_after_close = true;
        break;
      }
      default: {
        // Unknown request type: an error frame whose payload reuses the
        // ScoreResponse layout (status + error text).
        ScoreResponse response;
        response.status = Status::kBadRequest;
        response.error = "unexpected message type";
        entry = ImmediateEntry(MessageType::kErrorResponse,
                               EncodeScoreResponse(response));
        break;
      }
    }
    {
      std::unique_lock<std::mutex> lock(pipeline_mutex);
      pipeline_cv.wait(lock,
                       [&] { return pending.size() < kMaxPipelineDepth; });
      pending.push_back(std::move(entry));
    }
    pipeline_cv.notify_all();
    // The shutdown ack flushes behind every pipelined response already
    // owed; reading stops now so nothing is admitted after the ack.
    if (stop_after_close) break;
  }
  {
    std::lock_guard<std::mutex> lock(pipeline_mutex);
    reader_done = true;
  }
  pipeline_cv.notify_all();
  writer.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Close under the server mutex so Wait() never shuts down a reused fd.
    ::close(connection->fd);
    connection->fd = -1;
  }
  // A shutdown request stops the whole server once its response is on
  // the wire.
  if (stop_after_close) RequestStop();
  // Last step: from here the accept thread may join this thread and free
  // the record.
  std::lock_guard<std::mutex> lock(mutex_);
  connection->done = true;
}

}  // namespace dekg::serve
