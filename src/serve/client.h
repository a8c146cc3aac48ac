// Blocking client for the online scoring server's wire protocol.
//
// One connection. The Score/Ingest/Stats calls are synchronous
// request/response; SendScore/ReceiveScore expose the v3 pipelined
// form (several requests on the wire before the first response is
// read), and ScorePipelined drives a whole windowed exchange. Used by
// the dekg_serve_client CLI, the serve tests, and perfbench's load
// generator. Thread-safety: none — use one Client per thread.
#ifndef DEKG_SERVE_CLIENT_H_
#define DEKG_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace dekg::serve {

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to host:port. False + error on failure.
  bool Connect(const std::string& host, uint16_t port, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // Each call sends one request frame and blocks for the response.
  // Returns false (with error) on transport failure or a protocol
  // mismatch; an application-level rejection (response.status != kOk)
  // still returns true.
  bool Score(const ScoreRequest& request, ScoreResponse* response,
             std::string* error);
  bool Ingest(const IngestRequest& request, IngestResponse* response,
              std::string* error);
  bool Stats(StatsResponse* response, std::string* error);
  // Asks the server to drain and exit.
  bool Shutdown(std::string* error);

  // ----- Pipelining (protocol v3) -----

  // Sends a score request without waiting for its response. Pair each
  // send with one ReceiveScore; the server answers in submission order.
  bool SendScore(const ScoreRequest& request, std::string* error);
  // Blocks for the next pipelined score response. When `expect_id` is
  // non-null the echoed request_id must match (in-order delivery check).
  bool ReceiveScore(ScoreResponse* response, const uint64_t* expect_id,
                    std::string* error);

  // Scores `requests` with at most `depth` requests in flight, verifying
  // the echoed ids arrive in submission order. responses[i] answers
  // requests[i]. depth = 1 degenerates to ping-pong.
  bool ScorePipelined(const std::vector<ScoreRequest>& requests, size_t depth,
                      std::vector<ScoreResponse>* responses,
                      std::string* error);

 private:
  bool RoundTrip(MessageType request_type,
                 const std::vector<uint8_t>& payload, MessageType expected,
                 Frame* reply, std::string* error);

  int fd_ = -1;
  // All response reads go through one buffered reader, so a pipelined
  // burst of small frames costs one read() instead of two per frame.
  FrameReader reader_;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_CLIENT_H_
