#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "serve/client.h"

namespace perfbench {

namespace {

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// The port once the file holds a whole line (the server writes it
// without a rename, so a reader can see it half written).
bool ReadPortFile(const std::string& path, uint16_t* port) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return false;
  const long value = std::strtol(text.c_str(), nullptr, 10);
  if (value <= 0 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

double ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::vector<int>& cpus,
                            const std::string& port_file,
                            const std::string& log_path, double timeout_s,
                            std::string* error) {
  ::unlink(port_file.c_str());
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.insert(argv_storage.end(),
                      {"--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& s : argv_storage) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path + ": " + std::strerror(errno);
    return -1.0;
  }
  const double start = Now();
  pid_ = ::fork();
  if (pid_ == 0) {
    PinTo(cpus);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return -1.0;
  }
  while (Now() - start < timeout_s) {
    if (ReadPortFile(port_file, &port_)) return Now() - start;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "dekg_serve exited during set-up (see " + log_path + ")";
      return -1.0;
    }
    SleepMs(1.0);
  }
  *error = "dekg_serve did not come up in time";
  return -1.0;
}

double ServerProcess::PeakRssMb() const { return perfbench::PeakRssMb(pid_); }

bool ServerProcess::Reap(double timeout_s, int* status) {
  const double start = Now();
  while (Now() - start < timeout_s) {
    if (::waitpid(pid_, status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    SleepMs(5.0);
  }
  return false;
}

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  dekg::serve::Client client;
  std::string error;
  const bool asked = client.Connect("127.0.0.1", port_, &error) &&
                     client.Shutdown(&error);
  client.Close();
  int status = 0;
  if (asked && Reap(timeout_s, &status)) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return false;
}

bool ServerProcess::Kill() {
  if (pid_ <= 0) return false;
  int status = 0;
  const bool running = ::waitpid(pid_, &status, WNOHANG) == 0;
  if (running) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return running;
}

}  // namespace perfbench
