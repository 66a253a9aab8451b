//===- Server.h - The mcsafe-serve resident verifier ------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-running verification daemon. Starting a fresh process per check
/// pays the whole warm-up every time — formula interning, type-factory
/// population, an empty prover cache, a cold certificate store. The
/// server keeps the rest resident: one process-wide shared prover cache
/// (it holds the revalidation results of loaded certificates, whose
/// formulas live in the interner's base generation), one open CertStore,
/// one work-stealing thread pool, reused across every request. What a
/// request interns itself is freed when it ends, so a daemon that only
/// ever sees new programs does not grow.
///
/// Concurrency model: one loop thread plus the checker thread pool. The
/// loop polls the listen socket, a self-pipe (so requestStop() is async-
/// signal-safe, and finished checks can wake it) and every connection.
/// A connection has an input buffer, parsed into whole frames, and an
/// output buffer, flushed by non-blocking sends. Admission, shedding and
/// dispatch run on the loop: it round-robins across connections (one
/// request per turn, so a client that pipelines 100 requests cannot
/// starve one that sends a single check) and keeps at most `Jobs` checks
/// on the pool. Pool tasks never touch a client socket; each hands its
/// response frame back through a completion list. A connection with
/// more unsent bytes than a fixed bound is not read until its client
/// drains them, so a client that never reads holds bounded memory.
///
/// Locks: DoneMu guards the completion list, FdMu the fd list a forked
/// worker must close. Both are leaves. WorkerPool takes FdMu under its
/// own Mu (spawnSlot calls CollectParentFds), so the order is
/// WorkerPool::Mu, then FdMu; the loop never calls into WorkerPool.
///
/// Admission control is fail-sound: when the queued-request total reaches
/// MaxQueue, new requests are shed immediately with an UNKNOWN verdict
/// and a ResourceExhausted failure — the server never stops reading on a
/// full queue and never fabricates a SAFE it did not earn. Per-request
/// governor budgets come from the request header, clamped to the server's
/// caps.
///
/// Determinism: each request runs inside its own VarNamespace (exactly
/// like checker/ParallelCheck), so its report is a pure function of its
/// inputs — byte-identical to a cold `mcsafe-check` run of the same
/// program, however warm the caches are.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SERVE_SERVER_H
#define MCSAFE_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/WorkerPool.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mcsafe {
namespace support {
class ThreadPool;
} // namespace support
namespace checker {
class CertStore;
} // namespace checker

namespace serve {

struct ServerOptions {
  /// Unix-domain socket path to listen on. Must fit sockaddr_un (~107
  /// bytes); a stale socket file from a dead server is replaced.
  std::string SocketPath;
  /// Checker worker threads; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Admitted-but-unstarted request bound. At or above it, new requests
  /// are shed with verdict UNKNOWN. 0 sheds everything (tests).
  size_t MaxQueue = 256;
  /// Persistent certificate store directory; empty = none.
  std::string CertDir;
  /// Caps on client-requested budgets. 0 = no cap; otherwise the
  /// effective budget is min(requested, cap), and an "unlimited" request
  /// (0) gets the cap itself.
  uint32_t DeadlineCapMs = 0;
  uint64_t ProverStepsCap = 0;
  /// Bound on the shared prover-cache entry count.
  size_t SharedCacheMaxEntries = size_t(1) << 20;
  /// Observability sink ("serve/*" counters; cert/store/* at every
  /// stats request and on stop).
  /// Non-owning; may be null.
  support::MetricsRegistry *Metrics = nullptr;
  /// Crash containment: run every check in one of `Jobs` supervised
  /// worker subprocesses (see WorkerPool.h) instead of in-process. A
  /// worker death or hang becomes a structured UNKNOWN for its request;
  /// the daemon itself never dies with a check. With no faults firing,
  /// reports are byte-identical to in-process mode.
  bool IsolateWorkers = false;
  /// Per-check memory budget (governor MemoryBytes) for both modes, and
  /// the basis for the isolated workers' RLIMIT_AS backstop. 0 = none.
  uint64_t MemoryCapBytes = 0;
  /// Isolation tuning (restart/backoff/quarantine/grace). NumWorkers,
  /// CertDir, the budget caps, Metrics, and the fork fd snapshot are
  /// overwritten from the fields above at start().
  WorkerPoolOptions Worker;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens, then spawns the loop thread.
  /// False (with \p Error set) when the socket cannot be created.
  bool start(std::string &Error);

  /// Initiates shutdown. Async-signal-safe: one atomic store plus one
  /// self-pipe write — callable straight from a SIGINT/SIGTERM handler.
  void requestStop();

  /// Blocks until the server has fully stopped: every admitted request
  /// answered, the loop joined, connections closed, socket unlinked.
  void wait();

  unsigned jobs() const { return NJobs; }

private:
  /// One client connection. Owned by the loop thread; no lock.
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    std::string In;  ///< Received bytes not yet parsed into frames.
    std::string Out; ///< Encoded frames not yet sent.
    std::deque<CheckRequestMsg> Queue; ///< Admitted, not yet started.
    unsigned InFlight = 0; ///< Started checks whose responses are owed.
    /// False after EOF or a Shutdown message; the connection closes once
    /// everything it is owed has been sent.
    bool Reading = true;
    /// A write error or protocol violation: close now, drop what is owed.
    bool Dead = false;
  };

  void loop();
  /// Stops accepting and shuts down every connection's read side.
  void beginDrain();
  void acceptConns();
  void readConn(Conn &C);
  /// False on a protocol violation.
  bool handleFrame(Conn &C, MsgType Type, std::string_view Payload);
  void takeCompletions();
  void dispatch();
  /// False (and C dead) when the "serve/write" fault site fires.
  bool queueFrame(Conn &C, std::string_view Frame);
  void queueShed(Conn &C, uint64_t ReqId, const char *Why);
  void flushConn(Conn &C);
  void closeConnFd(int Fd);
  /// Runs one check on a pool thread and returns its response frame.
  std::string runCheck(const CheckRequestMsg &Req);
  void wake();
  /// Every parent-only fd a forked worker must close: wake pipe, listen
  /// socket, client connections.
  std::vector<int> parentFdsSnapshot();
  void bumpCounter(const char *Name, uint64_t Delta = 1);
  /// Brings the registry up to the daemon's running totals: the cert
  /// store's and the shared prover cache's counters, and the live
  /// interner gauges. Runs on the loop thread, or after it has stopped.
  void publishLiveStats();

  ServerOptions Opts;
  unsigned NJobs = 1;

  int ListenFd = -1; ///< Closed by the loop under FdMu.
  int WakeRd = -1, WakeWr = -1; ///< Self-pipe, both ends non-blocking.
  std::atomic<bool> Running{false};
  bool Started = false;

  std::unique_ptr<support::ThreadPool> Pool;
  std::shared_ptr<ProverCache> SharedCache;
  std::unique_ptr<checker::CertStore> Certs;
  std::unique_ptr<WorkerPool> Workers; ///< Set iff IsolateWorkers.
  std::thread LoopThread;

  // Loop-thread state.
  std::map<uint64_t, Conn> Conns;
  std::deque<uint64_t> Ring; ///< Ids of conns with queued work.
  size_t TotalPending = 0;   ///< Queued requests over all conns.
  unsigned Active = 0;       ///< Checks running on the pool.
  bool Stopping = false;
  uint64_t NextConnId = 1;
  bool TrimPending = false; ///< Checks finished since the last trim.

  std::mutex DoneMu;
  /// Finished checks' (connection id, response frame), guarded by DoneMu.
  std::vector<std::pair<uint64_t, std::string>> Done;
  std::mutex FdMu;
  std::vector<int> ConnFds; ///< Guarded by FdMu.
};

} // namespace serve
} // namespace mcsafe

#endif // MCSAFE_SERVE_SERVER_H
