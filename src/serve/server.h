// TCP front end of the online scoring server (DESIGN.md §9, §14).
//
// A plain POSIX socket server: one accept thread, two threads per
// connection. The reader thread decodes frames and submits work to the
// MicroBatcher without waiting for results, so a client may pipeline
// many requests down one connection; the per-connection writer thread
// resolves the pending futures in submission order and flushes each
// response — in-order delivery to the client even though shards (and
// requests) complete out of order internally. Pipeline depth is bounded
// (the reader blocks at kMaxPipelineDepth outstanding responses, which
// backpressures the peer through TCP). The engine itself runs
// exclusively on the scheduler thread, so the socket layer adds no
// shared mutable state beyond the admission queue and each connection's
// own pending queue.
//
// Teardown robustness: a peer that vanishes mid-pipeline surfaces as
// EPIPE/ECONNRESET on this connection's writer (writes use MSG_NOSIGNAL
// — no process-wide SIGPIPE) or as a read error on its reader. Either
// way only this connection winds down: the writer drains the remaining
// pending futures without writing, the reader is kicked out via
// SHUT_RD, both threads join, and the fd is closed exactly once. The
// scheduler and every other connection are unaffected.
//
// A closed connection's record and thread are freed at the next accept:
// its handler marks it done as its last step, and the accept thread
// joins the done ones outside the server mutex (a handler takes that
// mutex, so joining under it could deadlock).
//
// Shutdown is graceful: RequestStop() (idempotent, callable from any
// thread, including a connection thread handling kShutdownRequest or a
// signal-watcher thread) closes the listener; Wait() then stops accepting,
// half-closes every live connection for reading (in-flight responses
// still flush), joins the connection threads, and drains the batcher so
// every admitted request is answered before the process exits.
#ifndef DEKG_SERVE_SERVER_H_
#define DEKG_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.h"

namespace dekg::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (bind-assigned; see port())
};

class ScoringServer {
 public:
  ScoringServer(MicroBatcher* batcher, const ServerConfig& config);
  ~ScoringServer();

  ScoringServer(const ScoringServer&) = delete;
  ScoringServer& operator=(const ScoringServer&) = delete;

  // Binds, listens, and starts the accept thread. False + error on any
  // socket failure.
  bool Start(std::string* error);

  // The bound port (the assigned one when config.port was 0).
  uint16_t port() const { return port_; }

  // Triggers shutdown: no new connections are accepted. Safe from any
  // thread; never blocks.
  void RequestStop();

  // Blocks until shutdown was requested, then performs the graceful
  // drain (join connections, drain the batcher). Call from the owning
  // thread; returns once the server is fully stopped.
  void Wait();

  // Maximum responses outstanding per connection before the reader stops
  // pulling new frames off the socket.
  static constexpr size_t kMaxPipelineDepth = 256;

  // Connection records held: the live connections plus the closed ones
  // the accept thread has not reaped yet.
  size_t tracked_connections() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;  // reader; the writer thread is handler-local
    bool done = false;  // the handler has returned or is about to
  };

  void AcceptLoop();
  void HandleConnection(Connection* connection);

  MicroBatcher* batcher_;
  ServerConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool stopping_ = false;
  bool stopped_ = false;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_SERVER_H_
