//===- Daemon.cpp - An out-of-process mcsafe-serve for the benchmark ------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"

#include "serve/Client.h"
#include "support/Subprocess.h"

#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <sys/prctl.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace mcsafe;

namespace perfbench {

namespace {

/// Polls for the child's exit for up to \p Ms. True once reaped.
bool reapWithin(pid_t Pid, unsigned Ms, int &Status) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Ms);
  do {
    support::ReapStatus R = support::reapChild(Pid, Status);
    if (R != support::ReapStatus::Running)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < Deadline);
  return false;
}

} // namespace

bool Daemon::start(const std::string &Bin, const std::string &SocketPath,
                   unsigned Jobs, const std::string &CertDir,
                   const std::string &MetricsPath, std::string &Error) {
  stop();
  Socket = SocketPath;
  ::unlink(Socket.c_str());

  std::vector<std::string> Args = {Bin, "--socket", Socket, "--jobs",
                                   std::to_string(Jobs)};
  if (!CertDir.empty())
    Args.insert(Args.end(), {"--cert-store", CertDir});
  if (!MetricsPath.empty())
    Args.insert(Args.end(), {"--metrics-json", MetricsPath});
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  // A daemon must not outlive the benchmark, even when the runner is
  // killed: the child asks for SIGKILL on its parent's death. Between
  // fork and exec it only makes async-signal-safe calls. Its banner goes
  // to /dev/null: the benchmark's stdout must end with the result line.
  pid_t Child = ::fork();
  if (Child < 0) {
    Error = "cannot fork for " + Bin;
    return false;
  }
  if (Child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDOUT_FILENO);
    ::execv(Bin.c_str(), Argv.data());
    ::_exit(127);
  }
  Pid = Child;

  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    int Status = 0;
    if (support::reapChild(Pid, Status) != support::ReapStatus::Running) {
      Pid = -1;
      Error = "mcsafe-serve exited during start-up: " +
              support::describeWaitStatus(Status);
      return false;
    }
    serve::Client C;
    C.setTimeoutMs(1000);
    std::string Ignored;
    if (C.connect(Socket, Ignored) && C.ping(Ignored))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Error = "mcsafe-serve did not answer a ping within the deadline";
  stop();
  return false;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return true;
  int Status = 0;
  bool Exited = false;
  {
    serve::Client C;
    C.setTimeoutMs(2000);
    std::string Ignored;
    if (C.connect(Socket, Ignored) && C.shutdownServer(Ignored))
      Exited = reapWithin(Pid, 3000, Status);
  }
  if (!Exited)
    Status = support::terminateChild(Pid, 1000);
  Pid = -1;
  ::unlink(Socket.c_str());
  return Exited && support::exitedCleanly(Status);
}

} // namespace perfbench
