//===- Daemon.h - An out-of-process mcsafe-serve ----------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts mcsafe-serve as a child process and stops it again. Every wait
/// is bounded: a daemon that stops answering is SIGKILLed at teardown,
/// so a wedged daemon shows up as timeouts, never as a hung benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_PERFBENCH_DAEMON_H
#define MCSAFE_PERFBENCH_DAEMON_H

#include <string>
#include <sys/types.h>

namespace perfbench {

class Daemon {
public:
  /// Receive/connect bound on every connection the benchmark opens.
  static constexpr unsigned TimeoutMs = 5000;

  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns `Bin --socket Socket --jobs Jobs [--cert-store CertDir]
  /// [--metrics-json MetricsPath]` and waits (bounded) for its first
  /// ping.
  bool start(const std::string &Bin, const std::string &Socket,
             unsigned Jobs, const std::string &CertDir,
             const std::string &MetricsPath, std::string &Error);

  /// Asks for a clean shutdown; escalates to SIGTERM, then SIGKILL, when
  /// the daemon does not exit in time. True only for a clean exit.
  bool stop();

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  pid_t Pid = -1;
  std::string Socket;
};

} // namespace perfbench

#endif // MCSAFE_PERFBENCH_DAEMON_H
