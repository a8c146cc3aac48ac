// The shipped dekg_serve binary as a child process: spawn, wait for its
// port file, read its peak RSS, shut it down and reap it.
#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  // Kills and reaps a server that was never stopped.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary args... --port 0 --port-file <port_file>` on `cpus`
  // (all when empty) with stdout and stderr appended to `log_path`, and
  // blocks until the port file holds a complete port line. Returns the
  // seconds from spawn to that moment (the server's set-up time), or a
  // negative value with *error set when the server exits or `timeout_s`
  // passes first.
  double Start(const std::string& binary, const std::vector<std::string>& args,
               const std::vector<int>& cpus, const std::string& port_file,
               const std::string& log_path, double timeout_s,
               std::string* error);

  uint16_t port() const { return port_; }

  // Peak resident set (VmHWM) of the running server, in MB.
  double PeakRssMb() const;

  // Asks the server to drain and exit over the protocol, then reaps it;
  // kills it after `timeout_s`. True when it exited cleanly with code 0.
  bool Stop(double timeout_s);

  // Kills the server and reaps it, skipping its teardown: after a timed
  // run, dekg_serve spends ~6 s freeing its caches on exit. True when it
  // was still running, that is, had not died on its own.
  bool Kill();

 private:
  // Waits up to timeout_s for the child; true with *status once reaped.
  bool Reap(double timeout_s, int* status);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
