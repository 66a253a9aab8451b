//===- Server.cpp - The mcsafe-serve resident verifier --------------------===//

#include "serve/Server.h"

#include "checker/CertStore.h"
#include "constraints/ProverCache.h"
#include "constraints/Var.h"
#include "support/FaultInjection.h"
#include "support/Io.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>

#include <fcntl.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::serve;
using checker::CheckPhase;
using checker::CheckVerdict;
using checker::FailureKind;

namespace {

/// A connection with more unsent bytes than this is not read again until
/// its client drains them. Bounds what a client that never reads can
/// make the server hold: this, plus the responses to its admitted
/// requests.
constexpr size_t MaxUnsentBytes = size_t(1) << 20;

/// How long clients get to read their last responses once every admitted
/// check has finished during shutdown.
constexpr std::chrono::seconds DrainGrace(5);

/// The least time between two releaseFreedMemory() calls, so a client
/// sending one request after another does not pay for one each time.
constexpr std::chrono::milliseconds TrimInterval(50);

/// Returns memory the finished checks freed to the system. Each pool
/// thread allocates from its own malloc arena, which otherwise keeps its
/// high-water mark for the life of the daemon.
void releaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

} // namespace

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
  // Every failure below closes whatever was opened before it.
  auto Fail = [&](std::string Why) {
    Error = std::move(Why);
    for (int *Fd : {&ListenFd, &WakeRd, &WakeWr})
      if (*Fd >= 0) {
        support::closeFd(*Fd);
        *Fd = -1;
      }
    return false;
  };

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Fail("socket path '" + Opts.SocketPath + "' is empty or too long");
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  // Non-blocking both ends: a wake-up never blocks a pool thread or a
  // signal handler, and the loop drains the pipe without blocking.
  int Pipe[2];
  if (::pipe2(Pipe, O_NONBLOCK | O_CLOEXEC) != 0)
    return Fail(std::string("pipe: ") + std::strerror(errno));
  WakeRd = Pipe[0];
  WakeWr = Pipe[1];

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Fail(std::string("socket: ") + std::strerror(errno));
  // A stale socket file from a previous (dead) server blocks bind();
  // replacing it is the standard Unix-daemon move. A *live* server on
  // the same path loses its socket — callers pick unique paths.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 64) != 0)
    return Fail("cannot listen on '" + Opts.SocketPath +
                "': " + std::strerror(errno));

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
      Workers.reset();
      ::unlink(Opts.SocketPath.c_str());
      return Fail("worker pool: " + Error);
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
  LoopThread = std::thread([this] { loop(); });
  return true;
}

void Server::wake() {
  // A full pipe already holds a wake-up, so EAGAIN loses nothing.
  char B = 1;
  if (WakeWr >= 0)
    (void)support::retryEintr([&] { return ::write(WakeWr, &B, 1); });
}

void Server::requestStop() {
  // Only async-signal-safe operations here: this runs straight from the
  // daemon's SIGINT/SIGTERM handler.
  Running.store(false, std::memory_order_release);
  wake();
}

void Server::wait() {
  if (!Started)
    return;
  // The loop returns only after every admitted request is answered, so
  // the pool is idle by then.
  LoopThread.join();
  Pool.reset();
  if (Workers) {
    Workers->stop();
    Workers.reset();
  }
  publishLiveStats();
  Certs.reset();
  support::closeFd(WakeRd);
  support::closeFd(WakeWr);
  WakeRd = WakeWr = -1;
  Started = false;
}

void Server::loop() {
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> DrainDeadline;
  Clock::time_point NextTrim = Clock::now();
  std::vector<pollfd> Fds;
  while (true) {
    if (!Stopping && !Running.load(std::memory_order_acquire))
      beginDrain();
    if (Stopping && Active == 0) {
      // Every admitted check is answered. Clients get a bounded time to
      // read what is still buffered for them, so one that never reads
      // cannot wedge shutdown (its connection is then closed: a visible
      // reset, not a silent drop).
      if (Conns.empty())
        break;
      if (!DrainDeadline)
        DrainDeadline = Clock::now() + DrainGrace;
      else if (Clock::now() >= *DrainDeadline)
        break;
    }

    Fds.assign(1, {WakeRd, POLLIN, 0});
    if (ListenFd >= 0)
      Fds.push_back({ListenFd, POLLIN, 0});
    for (auto &[Id, C] : Conns) {
      short Events = C.Out.empty() ? 0 : POLLOUT;
      if (C.Reading && C.Out.size() <= MaxUnsentBytes)
        Events |= POLLIN;
      Fds.push_back({C.Fd, Events, 0});
    }
    // While draining, wake up now and then to check the deadline; with a
    // trim owed, wake up when it is due.
    int Timeout = DrainDeadline ? 100 : -1;
    if (TrimPending && Active == 0)
      Timeout = static_cast<int>(std::max<Clock::rep>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(
                 NextTrim - Clock::now())
                 .count()));
    if (support::retryEintr([&] {
          return ::poll(Fds.data(), Fds.size(), Timeout);
        }) < 0)
      break;

    char Drain[256];
    if (Fds[0].revents & POLLIN)
      while (::read(WakeRd, Drain, sizeof(Drain)) > 0) {
      }
    takeCompletions();
    // Conns still matches the tail of Fds: nothing is added or removed
    // until the accept and the close sweep below.
    size_t I = Fds.size() - Conns.size();
    for (auto &[Id, C] : Conns) {
      short Re = Fds[I++].revents;
      if (Re & POLLIN)
        readConn(C);
      else if (Re & (POLLERR | POLLHUP | POLLNVAL))
        C.Dead = true; // Not reading, and the peer is gone.
    }
    if (ListenFd >= 0 && (Fds[1].revents & POLLIN))
      acceptConns();
    for (auto It = Conns.begin(); It != Conns.end();) {
      Conn &C = It->second;
      flushConn(C);
      // Dead, or EOF with nothing more owed: close.
      if (C.Dead || (!C.Reading && C.Queue.empty() && C.InFlight == 0 &&
                     C.Out.empty())) {
        TotalPending -= C.Queue.size();
        closeConnFd(C.Fd);
        It = Conns.erase(It);
      } else {
        ++It;
      }
    }
    dispatch();
    // Once idle, with every response already flushed, hand back what the
    // checks freed.
    if (TrimPending && Active == 0 && Clock::now() >= NextTrim) {
      TrimPending = false;
      releaseFreedMemory();
      NextTrim = Clock::now() + TrimInterval;
    }
  }

  if (!Stopping)
    beginDrain(); // poll() failed; stop listening all the same.
  for (auto &[Id, C] : Conns)
    closeConnFd(C.Fd);
  Conns.clear();
}

void Server::beginDrain() {
  Stopping = true;
  {
    std::lock_guard<std::mutex> Lock(FdMu);
    support::closeFd(ListenFd);
    ListenFd = -1;
  }
  ::unlink(Opts.SocketPath.c_str());
  // Read side only: what is already on the wire is still read (and
  // shed), and the write side stays up for the responses. dispatch()
  // sheds everything still queued.
  for (auto &[Id, C] : Conns)
    if (C.Reading)
      ::shutdown(C.Fd, SHUT_RD);
}

void Server::acceptConns() {
  while (true) {
    int Fd;
    {
      // Accepted and listed under FdMu, so a worker forked meanwhile
      // always knows to close the new fd.
      std::lock_guard<std::mutex> Lock(FdMu);
      Fd = static_cast<int>(support::retryEintr([&] {
        return ::accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      }));
      if (Fd >= 0)
        ConnFds.push_back(Fd);
    }
    if (Fd < 0)
      return;
    uint64_t Id = NextConnId++;
    Conns[Id].Fd = Fd;
    Conns[Id].Id = Id;
    bumpCounter("serve/connections");
  }
}

void Server::closeConnFd(int Fd) {
  std::lock_guard<std::mutex> Lock(FdMu);
  ConnFds.erase(std::remove(ConnFds.begin(), ConnFds.end(), Fd),
                ConnFds.end());
  support::closeFd(Fd);
}

void Server::readConn(Conn &C) {
  char Buf[64 * 1024];
  long N = support::retryEintr(
      [&] { return ::recv(C.Fd, Buf, sizeof(Buf), 0); });
  if (N <= 0) {
    // EOF: answer what was admitted, then close. An error: close now.
    if (N == 0)
      C.Reading = false;
    else if (errno != EAGAIN && errno != EWOULDBLOCK)
      C.Dead = true;
    return;
  }
  C.In.append(Buf, static_cast<size_t>(N));
  size_t Pos = 0;
  while (C.Reading && !C.Dead && C.In.size() - Pos >= FrameHeaderSize) {
    std::string_view Rest = std::string_view(C.In).substr(Pos);
    FrameHeader H;
    bool HeaderOk = decodeFrameHeader(Rest.substr(0, FrameHeaderSize), H);
    if (HeaderOk && Rest.size() - FrameHeaderSize < H.PayloadLen)
      break; // The rest of this frame is still on the wire.
    std::string_view Payload = Rest.substr(FrameHeaderSize, H.PayloadLen);
    Pos += FrameHeaderSize + H.PayloadLen;
    if (!HeaderOk || !validateFramePayload(H, Payload) ||
        !handleFrame(C, H.Type, Payload)) {
      bumpCounter("serve/protocol_errors");
      C.Dead = true;
    }
  }
  C.In.erase(0, Pos);
}

bool Server::handleFrame(Conn &C, MsgType Type, std::string_view Payload) {
  CheckRequestMsg Req;
  switch (Type) {
  case MsgType::Ping:
    queueFrame(C, encodeFrame(MsgType::Pong, {}));
    return true;
  case MsgType::StatsRequest: {
    std::ostringstream OS;
    if (Opts.Metrics) {
      publishLiveStats();
      Opts.Metrics->writeJson(OS);
    } else
      OS << "{}";
    queueFrame(C, encodeFrame(MsgType::StatsResponse, OS.str()));
    return true;
  }
  case MsgType::Shutdown:
    queueFrame(C, encodeFrame(MsgType::ShutdownAck, {}));
    C.Reading = false;
    requestStop();
    return true;
  case MsgType::CheckRequest:
    if (!decodeCheckRequest(Payload, Req))
      return false;
    bumpCounter("serve/requests");
    if (Stopping || TotalPending >= Opts.MaxQueue) {
      queueShed(C, Req.ReqId,
                Stopping ? "load shed: server shutting down"
                         : "load shed: admission queue full");
      return true;
    }
    ++TotalPending;
    C.Queue.push_back(std::move(Req));
    if (C.Queue.size() == 1)
      Ring.push_back(C.Id); // A conn is in the ring iff it has queued work.
    return true;
  default:
    return false; // A server-to-client message type.
  }
}

void Server::takeCompletions() {
  std::vector<std::pair<uint64_t, std::string>> Batch;
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Batch.swap(Done);
  }
  // In-process checks free what they allocated (the formula generation
  // of their namespace included); isolated ones ran in a worker.
  TrimPending = TrimPending || (!Batch.empty() && !Workers);
  for (const auto &[Id, Frame] : Batch) {
    --Active;
    auto It = Conns.find(Id);
    if (It == Conns.end())
      continue; // The client is gone; so is its response.
    --It->second.InFlight;
    if (queueFrame(It->second, Frame))
      bumpCounter("serve/responses");
  }
}

void Server::dispatch() {
  // Fair round-robin: one request per connection per turn. A connection
  // with more queued work goes to the back of the ring. Once stopping,
  // every queued request is shed instead of run — answered, never
  // silently dropped.
  while (!Ring.empty() && (Stopping || Active < NJobs)) {
    auto It = Conns.find(Ring.front());
    Ring.pop_front();
    if (It == Conns.end())
      continue; // Closed; its queued work left with it.
    Conn &C = It->second;
    CheckRequestMsg Req = std::move(C.Queue.front());
    C.Queue.pop_front();
    --TotalPending;
    if (!C.Queue.empty())
      Ring.push_back(C.Id);
    if (Stopping) {
      queueShed(C, Req.ReqId, "load shed: server shutting down");
      continue;
    }
    ++Active;
    ++C.InFlight;
    Pool->submit([this, Id = C.Id, Req = std::move(Req)] {
      std::string Frame = runCheck(Req);
      {
        std::lock_guard<std::mutex> Lock(DoneMu);
        Done.emplace_back(Id, std::move(Frame));
      }
      wake();
    });
  }
}

bool Server::queueFrame(Conn &C, std::string_view Frame) {
  if (C.Dead)
    return false;
  // The chaos suite's mid-write disconnect: the peer vanished right
  // before this response hits the wire.
  if (support::faultPoint("serve/write")) {
    C.Dead = true;
    bumpCounter("serve/write_errors");
    return false;
  }
  C.Out.append(Frame);
  return true;
}

void Server::flushConn(Conn &C) {
  while (!C.Dead && !C.Out.empty()) {
    long N = support::retryEintr([&] {
      return ::send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
    });
    if (N >= 0) {
      C.Out.erase(0, static_cast<size_t>(N));
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      // This client is gone (EPIPE thanks to MSG_NOSIGNAL, never a
      // process-killing SIGPIPE). Only this connection closes.
      C.Dead = true;
      bumpCounter("serve/write_errors");
    } else {
      return; // The client's buffer is full; POLLOUT resumes the flush.
    }
  }
}

void Server::queueShed(Conn &C, uint64_t ReqId, const char *Why) {
  bumpCounter("serve/shed");
  CheckResponseMsg Resp;
  Resp.ReqId = ReqId;
  Resp.Shed = true;
  // Fail-sound: a shed request gets UNKNOWN (Safe stays false) with a
  // structured failure — the checker never ran, so nothing was earned.
  Resp.Report.Verdict = CheckVerdict::Unknown;
  Resp.Report.Failures.push_back({CheckPhase::Driver,
                                  FailureKind::ResourceExhausted, std::nullopt,
                                  Why});
  queueFrame(C, encodeFrame(MsgType::CheckResponse, encodeCheckResponse(Resp)));
}

void Server::publishLiveStats() {
  if (!Opts.Metrics)
    return;
  support::MetricsRegistry &Reg = *Opts.Metrics;
  if (Certs)
    Certs->publish(Reg);
  if (SharedCache) {
    ProverCache::Stats CS = SharedCache->stats();
    Reg.counter("cache/shared/hits").raiseTo(CS.Hits);
    Reg.counter("cache/shared/misses").raiseTo(CS.Misses);
    Reg.counter("cache/shared/insertions").raiseTo(CS.Insertions);
    Reg.counter("cache/shared/evictions").raiseTo(CS.Evictions);
    Reg.gauge("cache/shared/entries").set(static_cast<int64_t>(CS.Entries));
  }
  // Between requests the interner holds only its base generation; these
  // gauges stay flat over cold traffic however long the daemon runs.
  Formula::InternStats I = Formula::internStats();
  Reg.gauge("intern/formulas").set(static_cast<int64_t>(I.Nodes));
  Reg.gauge("intern/bytes").set(static_cast<int64_t>(I.Bytes));
  Reg.gauge("intern/dedup_hits").set(static_cast<int64_t>(I.DedupHits));
}

std::string Server::runCheck(const CheckRequestMsg &Req) {
  CheckResponseMsg Resp;
  if (Workers) {
    // Isolation: the check runs in a supervised worker subprocess. Any
    // worker death/hang comes back as a structured UNKNOWN — this
    // thread, the daemon, and every other connection are unaffected.
    Resp = Workers->runRequest(Req);
  } else {
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
  Resp.ReqId = Req.ReqId;
  // Slicing counters ride in the report's prover stats, so this works
  // identically with isolation on (decoded from the worker's response
  // bytes) or off (computed in-process).
  forEachSliceCounter(Resp.Report.ProverStats,
                      [this](const char *Name, uint64_t V) {
                        bumpCounter(Name, V);
                      });
  return encodeFrame(MsgType::CheckResponse, encodeCheckResponse(Resp));
}

std::vector<int> Server::parentFdsSnapshot() {
  std::vector<int> Fds = {WakeRd, WakeWr};
  std::lock_guard<std::mutex> Lock(FdMu);
  if (ListenFd >= 0)
    Fds.push_back(ListenFd);
  Fds.insert(Fds.end(), ConnFds.begin(), ConnFds.end());
  return Fds;
}
