//===- Server.cpp - The mcsafe-serve resident verifier --------------------===//

#include "serve/Server.h"

#include "checker/CertStore.h"
#include "constraints/ProverCache.h"
#include "constraints/Var.h"
#include "support/FaultInjection.h"
#include "support/Io.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::serve;
using checker::CheckFailure;
using checker::CheckPhase;
using checker::CheckReport;
using checker::CheckVerdict;
using checker::FailureKind;

Server::Conn::~Conn() {
  if (Fd >= 0)
    support::closeFd(Fd);
}

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  NJobs = Opts.Jobs ? Opts.Jobs : support::ThreadPool::hardwareConcurrency();
  if (NJobs == 0)
    NJobs = 1;
}

Server::~Server() {
  requestStop();
  wait();
}

void Server::bumpCounter(const char *Name, uint64_t Delta) {
  if (Opts.Metrics)
    Opts.Metrics->counter(Name).inc(Delta);
}

bool Server::start(std::string &Error) {
  if (Started) {
    Error = "server already started";
    return false;
  }

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path '" + Opts.SocketPath + "' is empty or too long";
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  WakeRd = Pipe[0];
  WakeWr = Pipe[1];

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    support::closeFd(WakeRd);
    support::closeFd(WakeWr);
    WakeRd = WakeWr = -1;
    return false;
  }
  // A stale socket file from a previous (dead) server blocks bind();
  // replacing it is the standard Unix-daemon move. A *live* server on
  // the same path loses its socket — callers pick unique paths.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 64) != 0) {
    Error = "cannot listen on '" + Opts.SocketPath +
            "': " + std::strerror(errno);
    support::closeFd(ListenFd);
    support::closeFd(WakeRd);
    support::closeFd(WakeWr);
    ListenFd = WakeRd = WakeWr = -1;
    return false;
  }

  if (Opts.IsolateWorkers) {
    // Checks run in forked workers; the parent deliberately opens no
    // cert store and no shared cache, so no daemon thread ever touches
    // the interner/prover locks a forked child would inherit.
    WorkerPoolOptions W = Opts.Worker;
    W.NumWorkers = NJobs;
    W.CertDir = Opts.CertDir;
    W.DeadlineCapMs = Opts.DeadlineCapMs;
    W.ProverStepsCap = Opts.ProverStepsCap;
    W.MemoryCapBytes = Opts.MemoryCapBytes;
    W.SharedCacheMaxEntries = Opts.SharedCacheMaxEntries;
    W.Metrics = Opts.Metrics;
    W.CollectParentFds = [this] { return parentFdsSnapshot(); };
    Workers = std::make_unique<WorkerPool>(std::move(W));
    // Fork the initial workers before any other daemon thread exists.
    if (!Workers->start(Error)) {
      Error = "worker pool: " + Error;
      Workers.reset();
      support::closeFd(ListenFd);
      support::closeFd(WakeRd);
      support::closeFd(WakeWr);
      ListenFd = WakeRd = WakeWr = -1;
      ::unlink(Opts.SocketPath.c_str());
      return false;
    }
  } else {
    ProverCache::Config CacheCfg;
    CacheCfg.MaxEntries = Opts.SharedCacheMaxEntries;
    SharedCache = std::make_shared<ProverCache>(CacheCfg);
    if (!Opts.CertDir.empty())
      Certs = std::make_unique<checker::CertStore>(Opts.CertDir);
  }
  Pool = std::make_unique<support::ThreadPool>(NJobs);

  // Pre-register the slicing counters so a metrics dump always carries
  // the full set, even from a daemon that served no checks.
  forEachSliceCounter(Prover::Stats(), [this](const char *Name, uint64_t) {
    bumpCounter(Name, 0);
  });

  Running.store(true, std::memory_order_release);
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  DispatchThread = std::thread([this] { dispatchLoop(); });
  return true;
}

void Server::requestStop() {
  // Only async-signal-safe operations here: this runs straight from the
  // daemon's SIGINT/SIGTERM handler.
  Running.store(false, std::memory_order_release);
  if (WakeWr >= 0) {
    char B = 1;
    (void)support::retryEintr([&] { return ::write(WakeWr, &B, 1); });
  }
}

void Server::wait() {
  if (!Started)
    return;
  // Graceful drain ordering: the accept epilogue shuts down only the
  // *read* side of every connection, the dispatcher answers everything
  // still queued with a shed UNKNOWN, and the pool drain lets in-flight
  // checks finish and send their real responses — every admitted
  // request is answered before any write side closes.
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (DispatchThread.joinable())
    DispatchThread.join();
  Pool.reset();
  if (Workers) {
    Workers->stop();
    Workers.reset();
  }
  // The dispatcher and pool have answered everything they admitted, but
  // a reader may still be draining its receive buffer: requests that
  // were on the wire at shutdown get their shed responses from the
  // reader itself, and closing the write side now would race those
  // sends. Wait for every reader to finish — bounded, so one client
  // that pipelines requests and never reads its responses cannot wedge
  // shutdown (its connection is severed below; a visible reset, not a
  // silent drop).
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CvReaders.wait_for(Lock, std::chrono::seconds(5), [&] {
      for (const std::shared_ptr<Conn> &C : Conns)
        if (!C->ReaderDone.load(std::memory_order_acquire))
          return false;
      return true;
    });
  }
  // All responses are on the wire; now close the write sides so clients
  // see EOF, and join the readers without holding Mu (a reader between
  // its recv and its admission check briefly takes Mu itself).
  std::vector<std::shared_ptr<Conn>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Conns);
    Ring.clear();
    TotalPending = 0;
  }
  for (const std::shared_ptr<Conn> &C : Remaining) {
    C->Dead.store(true, std::memory_order_release);
    ::shutdown(C->Fd, SHUT_RDWR);
  }
  for (const std::shared_ptr<Conn> &C : Remaining)
    if (C->Reader.joinable())
      C->Reader.join();
  Remaining.clear();
  if (Certs && Opts.Metrics)
    Certs->publish(*Opts.Metrics);
  Certs.reset();
  if (WakeRd >= 0) {
    support::closeFd(WakeRd);
    support::closeFd(WakeWr);
    WakeRd = WakeWr = -1;
  }
  Started = false;
}

void Server::reapDoneConns() {
  // Reapable connections leave Conns under Mu, but their readers are
  // joined only after Mu is released: a reader that has set ReaderDone
  // still takes Mu once on its way out (see readerLoop), so joining it
  // under the lock would deadlock the accept thread.
  std::vector<std::shared_ptr<Conn>> Done;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (size_t I = 0; I < Conns.size();) {
      std::shared_ptr<Conn> &C = Conns[I];
      // A connection is reapable once its reader exited and the
      // dispatcher holds none of its requests. Pool tasks may still hold
      // the shared_ptr; the struct lives until they drop it.
      if (C->ReaderDone.load(std::memory_order_acquire) && !C->InRing &&
          C->Queue.empty()) {
        Done.push_back(std::move(C));
        Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
  }
  for (const std::shared_ptr<Conn> &C : Done)
    if (C->Reader.joinable())
      C->Reader.join();
}

void Server::acceptLoop() {
  while (Running.load(std::memory_order_acquire)) {
    pollfd Fds[2];
    Fds[0] = {ListenFd, POLLIN, 0};
    Fds[1] = {WakeRd, POLLIN, 0};
    int N = static_cast<int>(
        support::retryEintr([&] { return ::poll(Fds, 2, 500); }));
    if (N < 0)
      break;
    if (Fds[1].revents & POLLIN)
      break; // requestStop() wrote the wake byte.
    reapDoneConns();
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd = static_cast<int>(support::retryEintr(
        [&] { return ::accept(ListenFd, nullptr, nullptr); }));
    if (Fd < 0)
      continue;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    bumpCounter("serve/connections");
    {
      std::lock_guard<std::mutex> Lock(Mu);
      C->Id = NextConnId++;
      Conns.push_back(C);
    }
    C->Reader = std::thread([this, C] { readerLoop(C); });
  }

  support::closeFd(ListenFd);
  ListenFd = -1;
  ::unlink(Opts.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
    // Unblock every reader stuck in recv() — read side only. The write
    // side stays open for the drain: queued requests still get their
    // shed responses and in-flight checks their real ones.
    for (const std::shared_ptr<Conn> &C : Conns)
      ::shutdown(C->Fd, SHUT_RD);
  }
  CvDispatch.notify_all();
}

bool Server::sendFrame(Conn &C, MsgType Type, std::string_view Payload) {
  std::string Frame = encodeFrame(Type, Payload);
  std::lock_guard<std::mutex> Lock(C.WriteMu);
  if (C.Dead.load(std::memory_order_acquire))
    return false;
  // The chaos suite's mid-write disconnect: the peer vanished right
  // before this response hits the wire.
  bool Failed = support::faultPoint("serve/write") ||
                !support::sendAll(C.Fd, Frame);
  if (Failed) {
    // This client is gone (EPIPE thanks to MSG_NOSIGNAL, never a
    // process-killing SIGPIPE). Latch it dead and wake its reader; every
    // other connection's in-flight work is untouched.
    C.Dead.store(true, std::memory_order_release);
    ::shutdown(C.Fd, SHUT_RDWR);
    bumpCounter("serve/write_errors");
    return false;
  }
  return true;
}

void Server::sendShedResponse(const std::shared_ptr<Conn> &C, uint64_t ReqId,
                              const char *Why) {
  bumpCounter("serve/shed");
  CheckResponseMsg Resp;
  Resp.ReqId = ReqId;
  Resp.Shed = true;
  // Fail-sound: a shed request gets UNKNOWN with a structured failure —
  // the checker never ran, so nothing stronger was earned.
  Resp.Report.InputsOk = false;
  Resp.Report.Safe = false;
  Resp.Report.Verdict = CheckVerdict::Unknown;
  Resp.Report.Failures.push_back({CheckPhase::Driver,
                                  FailureKind::ResourceExhausted, std::nullopt,
                                  Why});
  sendFrame(*C, MsgType::CheckResponse, encodeCheckResponse(Resp));
}

void Server::readerLoop(std::shared_ptr<Conn> C) {
  while (!C->Dead.load(std::memory_order_acquire)) {
    char Header[FrameHeaderSize];
    long N = support::recvFull(C->Fd, Header, sizeof(Header));
    if (N <= 0)
      break; // Clean EOF or error/truncation.
    FrameHeader H;
    if (!decodeFrameHeader(std::string_view(Header, sizeof(Header)), H)) {
      bumpCounter("serve/protocol_errors");
      break;
    }
    std::string Payload(H.PayloadLen, '\0');
    if (H.PayloadLen != 0 &&
        support::recvFull(C->Fd, Payload.data(), Payload.size()) !=
            static_cast<long>(Payload.size()))
      break;
    if (!validateFramePayload(H, Payload)) {
      bumpCounter("serve/protocol_errors");
      break;
    }

    if (H.Type == MsgType::Ping) {
      if (!sendFrame(*C, MsgType::Pong, {}))
        break;
      continue;
    }
    if (H.Type == MsgType::StatsRequest) {
      std::ostringstream OS;
      if (Opts.Metrics)
        Opts.Metrics->writeJson(OS);
      else
        OS << "{}";
      if (!sendFrame(*C, MsgType::StatsResponse, OS.str()))
        break;
      continue;
    }
    if (H.Type == MsgType::Shutdown) {
      sendFrame(*C, MsgType::ShutdownAck, {});
      requestStop();
      break;
    }
    if (H.Type != MsgType::CheckRequest) {
      // Server-to-client message types arriving at the server are a
      // protocol violation.
      bumpCounter("serve/protocol_errors");
      break;
    }

    CheckRequestMsg Req;
    if (!decodeCheckRequest(Payload, Req)) {
      bumpCounter("serve/protocol_errors");
      break;
    }
    bumpCounter("serve/requests");

    bool Shed;
    bool Draining;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Draining = Stopping;
      Shed = Stopping || TotalPending >= Opts.MaxQueue;
      if (!Shed) {
        ++TotalPending;
        C->Queue.push_back(std::move(Req));
        if (!C->InRing) {
          C->InRing = true;
          Ring.push_back(C);
        }
      }
    }
    if (Shed) {
      sendShedResponse(C, Req.ReqId,
                       Draining ? "load shed: server shutting down"
                                : "load shed: admission queue full");
      continue;
    }
    CvDispatch.notify_one();
  }

  // A reader exiting because the server is draining must leave the
  // write side up — responses are still owed to this client. A client
  // that disconnected on its own is latched dead as before.
  if (Running.load(std::memory_order_acquire)) {
    C->Dead.store(true, std::memory_order_release);
    ::shutdown(C->Fd, SHUT_RDWR);
  }
  C->ReaderDone.store(true, std::memory_order_release);
  // Pair with the drain wait in wait(): the empty critical section
  // orders this store against the waiter's predicate check.
  { std::lock_guard<std::mutex> Lock(Mu); }
  CvReaders.notify_all();
}

void Server::dispatchLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    CvDispatch.wait(Lock, [&] {
      return Stopping || (!Ring.empty() && Active < NJobs);
    });
    if (Stopping)
      break;
    // Fair round-robin: one request per connection per turn. A
    // connection with more queued work goes to the back of the ring.
    std::shared_ptr<Conn> C = Ring.front();
    Ring.pop_front();
    CheckRequestMsg Req = std::move(C->Queue.front());
    C->Queue.pop_front();
    --TotalPending;
    if (!C->Queue.empty())
      Ring.push_back(C);
    else
      C->InRing = false;
    if (C->Dead.load(std::memory_order_acquire))
      continue; // The client is gone; its queued work is dropped.
    ++Active;
    Lock.unlock();
    Pool->submit([this, C, Req = std::move(Req)] {
      runCheckRequest(C, Req);
      {
        std::lock_guard<std::mutex> G(Mu);
        --Active;
      }
      CvDispatch.notify_all();
    });
    Lock.lock();
  }
  // Drain: every request still queued at shutdown is answered with a
  // shed UNKNOWN — never silently dropped. New arrivals past this point
  // are shed by the readers themselves (Stopping is set).
  std::vector<std::pair<std::shared_ptr<Conn>, uint64_t>> ToShed;
  Ring.clear();
  for (const std::shared_ptr<Conn> &C : Conns) {
    for (const CheckRequestMsg &R : C->Queue)
      ToShed.emplace_back(C, R.ReqId);
    C->Queue.clear();
    C->InRing = false;
  }
  TotalPending = 0;
  Lock.unlock();
  for (const auto &[C, ReqId] : ToShed)
    sendShedResponse(C, ReqId, "load shed: server shutting down");
}

void Server::runCheckRequest(const std::shared_ptr<Conn> &C,
                             const CheckRequestMsg &Req) {
  CheckResponseMsg Resp;
  if (Workers) {
    // Isolation: the check runs in a supervised worker subprocess. Any
    // worker death/hang comes back as a structured UNKNOWN — this
    // thread, the daemon, and every other connection are unaffected.
    Resp = Workers->runRequest(Req);
    Resp.ReqId = Req.ReqId;
  } else {
    Resp.ReqId = Req.ReqId;
    // Same option construction as the worker child (WorkerPool.cpp) —
    // the single helper is what keeps reports byte-identical with
    // isolation on or off.
    checker::SafetyChecker::Options O = requestCheckerOptions(
        Req, Opts.DeadlineCapMs, Opts.ProverStepsCap, Opts.MemoryCapBytes);
    O.SharedProverCache = SharedCache;
    O.Global.Pool = NJobs > 1 ? Pool.get() : nullptr;
    O.Certs = Certs.get();
    Resp.Report = runRequestCheck(Req, O);
  }
  // Slicing counters ride in the report's prover stats, so this works
  // identically with isolation on (decoded from the worker's response
  // bytes) or off (computed in-process).
  forEachSliceCounter(Resp.Report.ProverStats,
                      [this](const char *Name, uint64_t V) {
                        bumpCounter(Name, V);
                      });
  if (sendFrame(*C, MsgType::CheckResponse, encodeCheckResponse(Resp)))
    bumpCounter("serve/responses");
}

std::vector<int> Server::parentFdsSnapshot() {
  std::vector<int> Fds;
  if (ListenFd >= 0)
    Fds.push_back(ListenFd);
  if (WakeRd >= 0) {
    Fds.push_back(WakeRd);
    Fds.push_back(WakeWr);
  }
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::shared_ptr<Conn> &C : Conns)
    if (C->Fd >= 0)
      Fds.push_back(C->Fd);
  return Fds;
}
