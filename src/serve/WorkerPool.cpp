//===- WorkerPool.cpp - Supervised verification worker pool ---------------===//

#include "serve/WorkerPool.h"

#include "checker/CertStore.h"
#include "constraints/ProverCache.h"
#include "constraints/Var.h"
#include "support/Digest.h"
#include "support/FaultInjection.h"
#include "support/Io.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::serve;
using checker::CheckFailure;
using checker::CheckPhase;
using checker::CheckReport;
using checker::CheckVerdict;
using checker::FailureKind;

namespace {

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void setRecvTimeoutMs(int Fd, uint64_t Ms) {
  // A zero timeval means "block forever", which is exactly the Ms == 0
  // contract.
  struct timeval TV;
  TV.tv_sec = static_cast<time_t>(Ms / 1000);
  TV.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  (void)::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
}

/// The worker child: a single-threaded loop serving CheckRequest frames
/// on its socketpair until the parent closes it (clean retirement) or
/// something goes wrong. Runs after fork — it must not touch any lock a
/// parent thread might have held at fork time, which is why it builds
/// its own prover cache and cert store and never publishes metrics.
int workerChildMain(int Fd, const WorkerPoolOptions &Opts) {
  std::unique_ptr<checker::CertStore> Certs;
  if (!Opts.CertDir.empty())
    Certs = std::make_unique<checker::CertStore>(Opts.CertDir);
  ProverCache::Config CacheCfg;
  CacheCfg.MaxEntries = Opts.SharedCacheMaxEntries;
  auto Cache = std::make_shared<ProverCache>(CacheCfg);

  for (;;) {
    char Header[FrameHeaderSize];
    long N = support::recvFull(Fd, Header, sizeof(Header));
    if (N == 0)
      return 0; // Parent closed the socket: retire cleanly.
    if (N != static_cast<long>(sizeof(Header)))
      return 3;
    FrameHeader H;
    if (!decodeFrameHeader(std::string_view(Header, sizeof(Header)), H))
      return 3;
    std::string Payload(H.PayloadLen, '\0');
    if (H.PayloadLen != 0 &&
        support::recvFull(Fd, Payload.data(), Payload.size()) !=
            static_cast<long>(Payload.size()))
      return 3;
    if (!validateFramePayload(H, Payload) || H.Type != MsgType::CheckRequest)
      return 3;
    CheckRequestMsg Req;
    if (!decodeCheckRequest(Payload, Req))
      return 3;

    // Chaos sites: the three ways a worker dies in the wild. abort() is
    // the allocator/assert path, SIGKILL is the kernel OOM killer's
    // signature (no handler can run), and the pause() loop is a livelock
    // that only the supervisor's escalation can end.
    if (support::faultPoint("serve/worker-crash"))
      std::abort();
    if (support::faultPoint("serve/worker-oom"))
      (void)::raise(SIGKILL);
    if (support::faultPoint("serve/worker-hang"))
      for (;;)
        ::pause();
    if (Opts.TestHook)
      Opts.TestHook(Req);

    checker::SafetyChecker::Options O = requestCheckerOptions(
        Req, Opts.DeadlineCapMs, Opts.ProverStepsCap, Opts.MemoryCapBytes);
    O.SharedProverCache = Cache;
    O.Certs = Certs.get();

    CheckResponseMsg Resp;
    Resp.ReqId = Req.ReqId;
    Resp.Report = runRequestCheck(Req, O);
    if (!support::sendAll(
            Fd, encodeFrame(MsgType::CheckResponse, encodeCheckResponse(Resp))))
      return 4;
  }
}

} // namespace

checker::SafetyChecker::Options
serve::requestCheckerOptions(const CheckRequestMsg &Req, uint32_t DeadlineCapMs,
                             uint64_t ProverStepsCap, uint64_t MemoryCapBytes) {
  checker::SafetyChecker::Options O;
  O.Lint = (Req.Flags & ReqFlagLint) != 0;
  O.PruneDeadRegs = O.Lint;
  O.KnownBits = (Req.Flags & ReqFlagKnownBits) != 0;
  O.FailSoft = (Req.Flags & ReqFlagFailSoft) != 0;
  O.Global.DebugTrace = (Req.Flags & ReqFlagTrace) != 0;
  O.Limits.DeadlineMs = clampBudget(Req.DeadlineMs, DeadlineCapMs);
  O.Limits.ProverSteps = clampBudget(Req.ProverSteps, ProverStepsCap);
  O.Limits.MemoryBytes = MemoryCapBytes;
  return O;
}

CheckReport serve::runRequestCheck(const CheckRequestMsg &Req,
                                   const checker::SafetyChecker::Options &O) {
  CheckReport Rep;
  try {
    // A private namespace per request: the report is a pure function of
    // the request's inputs, byte-identical to a cold CLI run no matter
    // how warm the caches are or what ran before.
    VarNamespace NS;
    checker::SafetyChecker Checker(O);
    Rep = Checker.checkSource(Req.Asm, Req.Policy);
  } catch (const std::exception &E) {
    Rep.Safe = false;
    Rep.Verdict = CheckVerdict::InternalError;
    Rep.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                            std::nullopt,
                            std::string("unhandled exception: ") + E.what()});
  } catch (...) {
    Rep.Safe = false;
    Rep.Verdict = CheckVerdict::InternalError;
    Rep.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                            std::nullopt, "unhandled non-standard exception"});
  }
  return Rep;
}

uint64_t serve::requestContentDigest(const CheckRequestMsg &Req) {
  return support::Digest().addBytes(Req.Asm).addBytes(Req.Policy).value();
}

//===----------------------------------------------------------------------===//
// PoisonList
//===----------------------------------------------------------------------===//

void PoisonList::open(std::string P) {
  std::lock_guard<std::mutex> Lock(Mu);
  Path = std::move(P);
  Counts.clear();
  if (Path.empty())
    return;
  std::string Err;
  std::optional<std::string> Data = support::readWholeFile(Path, Err);
  if (!Data)
    return; // Missing or unreadable: start empty.

  // Strict full-file parse; any anomaly degrades to an empty list. Fail
  // open: a lost quarantine costs a few retried crashes, a fabricated
  // entry would wrongly refuse service forever.
  std::string_view Rest = *Data;
  auto TakeLine = [&Rest]() -> std::optional<std::string_view> {
    if (Rest.empty())
      return std::nullopt;
    size_t NL = Rest.find('\n');
    if (NL == std::string_view::npos)
      return std::nullopt; // Every line must be newline-terminated.
    std::string_view Line = Rest.substr(0, NL);
    Rest.remove_prefix(NL + 1);
    return Line;
  };

  std::optional<std::string_view> Magic = TakeLine();
  if (!Magic || *Magic != "MCPOISON 1")
    return;
  std::map<uint64_t, unsigned> Parsed;
  while (!Rest.empty()) {
    std::optional<std::string_view> Line = TakeLine();
    if (!Line || Line->size() < 18 || (*Line)[16] != ' ') {
      Counts.clear();
      return;
    }
    uint64_t Dig = 0;
    for (size_t I = 0; I < 16; ++I) {
      char C = (*Line)[I];
      unsigned V;
      if (C >= '0' && C <= '9')
        V = static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V = static_cast<unsigned>(C - 'a') + 10;
      else {
        Counts.clear();
        return;
      }
      Dig = (Dig << 4) | V;
    }
    uint64_t Count = 0;
    std::string_view Digits = Line->substr(17);
    if (Digits.empty() || Digits.size() > 9) {
      Counts.clear();
      return;
    }
    for (char C : Digits) {
      if (C < '0' || C > '9') {
        Counts.clear();
        return;
      }
      Count = Count * 10 + static_cast<uint64_t>(C - '0');
    }
    if (Count == 0 || !Parsed.emplace(Dig, static_cast<unsigned>(Count)).second) {
      Counts.clear();
      return;
    }
  }
  Counts = std::move(Parsed);
}

bool PoisonList::isPoisoned(uint64_t Digest, unsigned Threshold) const {
  if (Threshold == 0)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counts.find(Digest);
  return It != Counts.end() && It->second >= Threshold;
}

unsigned PoisonList::recordCrash(uint64_t Digest) {
  std::lock_guard<std::mutex> Lock(Mu);
  unsigned C = ++Counts[Digest];
  save();
  return C;
}

size_t PoisonList::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts.size();
}

void PoisonList::save() const {
  if (Path.empty())
    return;
  std::string Body = "MCPOISON 1\n";
  char Line[40];
  for (const auto &[Dig, Count] : Counts) {
    std::snprintf(Line, sizeof(Line), "%016llx %u\n",
                  static_cast<unsigned long long>(Dig), Count);
    Body += Line;
  }
  // The CertStore publish discipline: a unique temp name (pid + serial,
  // so concurrent writers and post-fork writers never interleave on one
  // file) then an atomic rename. Readers see the old list or the new
  // one, never a torn write.
  static std::atomic<uint64_t> TmpSerial{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpSerial.fetch_add(1));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return; // Unwritable quarantine dir degrades to memory-only.
  bool Ok = support::writeAllFd(Fd, Body);
  support::closeFd(Fd);
  if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) != 0)
    ::unlink(Tmp.c_str());
}

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

WorkerPool::WorkerPool(WorkerPoolOptions O) : Opts(std::move(O)) {
  if (Opts.NumWorkers == 0)
    Opts.NumWorkers = 1;
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::bumpCounter(const char *Name, uint64_t Delta) {
  if (Opts.Metrics)
    Opts.Metrics->counter(Name).inc(Delta);
}

bool WorkerPool::spawnSlot(size_t Idx, std::string &Error) {
  std::vector<int> ParentFds;
  if (Opts.CollectParentFds)
    ParentFds = Opts.CollectParentFds();
  // Sibling workers' parent-end sockets too: a child holding a copy of a
  // sibling's socketpair would keep that sibling from ever seeing EOF
  // when the parent closes its end.
  for (const Slot &S : Slots)
    if (S.Child.Fd >= 0)
      ParentFds.push_back(S.Child.Fd);

  support::ChildLimits Limits;
  if (Opts.MemoryCapBytes && Opts.MemoryCapBytes < (uint64_t(1) << 50)) {
    // RLIMIT_AS covers every mapping the child inherited, not just check
    // allocations; 4x the governor budget plus configured slack keeps
    // the kernel backstop behind (not in front of) the soft governor.
    Limits.AddressSpaceBytes =
        Opts.MemoryCapBytes * 4 + Opts.RlimitSlackBytes;
  }
  if (Opts.DeadlineCapMs && Opts.RotateAfterRequests) {
    // RLIMIT_CPU is cumulative over the worker's life; rotation bounds
    // the request count, so a generous per-request allowance still gives
    // a finite ceiling for a worker that ignores its soft deadline.
    uint64_t PerRequestS = uint64_t(Opts.DeadlineCapMs + 999) / 1000 + 1;
    Limits.CpuSeconds = PerRequestS * Opts.RotateAfterRequests * 2 + 30;
  }

  const WorkerPoolOptions *O = &Opts;
  support::ChildProcess Child = support::spawnChildWithSocket(
      Limits, ParentFds, [O](int Fd) { return workerChildMain(Fd, *O); },
      Error);
  if (!Child.valid())
    return false;
  Slot &S = Slots[Idx];
  S.Child = Child;
  S.Busy = false;
  S.RequestsServed = 0;
  bumpCounter("serve/worker/spawned");
  return true;
}

bool WorkerPool::start(std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Started) {
    Error = "worker pool already started";
    return false;
  }
  Poison.open(Opts.QuarantineFile);
  // Pre-register every worker counter so a metrics dump always carries
  // the full set, crashes or not.
  for (const char *Name :
       {"serve/worker/spawned", "serve/worker/crashes", "serve/worker/hangs",
        "serve/worker/restarts", "serve/worker/recycled",
        "serve/worker/parked", "serve/worker/quarantined",
        "serve/worker/quarantine_rejects"})
    bumpCounter(Name, 0);

  Slots.clear();
  Slots.resize(Opts.NumWorkers);
  for (size_t I = 0; I < Slots.size(); ++I) {
    if (!spawnSlot(I, Error)) {
      for (Slot &S : Slots) {
        if (S.Child.valid()) {
          support::closeFd(S.Child.Fd);
          (void)support::terminateChild(S.Child.Pid, 0);
        }
        S.Child = {};
      }
      Slots.clear();
      return false;
    }
  }
  Stopping = false;
  Started = true;
  Supervisor = std::thread([this] { supervisorLoop(); });
  return true;
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Started)
      return;
    Stopping = true;
  }
  CvSupervisor.notify_all();
  CvIdle.notify_all();
  if (Supervisor.joinable())
    Supervisor.join();
  // By contract no runRequest() caller remains (the server drains its
  // pool first), so every slot is parent-owned here. Close all sockets
  // first — idle workers exit on EOF — then escalate stragglers.
  for (Slot &S : Slots)
    if (S.Child.Fd >= 0) {
      support::closeFd(S.Child.Fd);
      S.Child.Fd = -1;
    }
  for (Slot &S : Slots) {
    if (S.Child.valid())
      (void)support::terminateChild(S.Child.Pid, 200);
    S.Child = {};
  }
  Slots.clear();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Started = false;
  }
}

void WorkerPool::recordAbnormalDeath(Slot &S) {
  ++S.CrashStreak;
  if (Opts.MaxRestarts && S.CrashStreak > Opts.MaxRestarts) {
    S.Parked = true;
    bumpCounter("serve/worker/parked");
    return;
  }
  unsigned Shift = S.CrashStreak > 16 ? 16u : S.CrashStreak - 1;
  uint64_t Backoff = uint64_t(Opts.RestartBackoffBaseMs) << Shift;
  if (Backoff > Opts.RestartBackoffCapMs)
    Backoff = Opts.RestartBackoffCapMs;
  S.RespawnAtMs = nowMs() + Backoff;
}

CheckResponseMsg WorkerPool::containedFailure(uint64_t ReqId, FailureKind Kind,
                                              std::string Detail) {
  CheckResponseMsg Resp;
  Resp.ReqId = ReqId;
  // Fail-sound: the check did not run to completion, so nothing stronger
  // than UNKNOWN was earned.
  Resp.Report.InputsOk = false;
  Resp.Report.Safe = false;
  Resp.Report.Verdict = CheckVerdict::Unknown;
  Resp.Report.Failures.push_back(
      {CheckPhase::Driver, Kind, std::nullopt, std::move(Detail)});
  return Resp;
}

void WorkerPool::noteCrashForQuarantine(uint64_t Dig) {
  if (Opts.QuarantineAfter == 0)
    return;
  unsigned Count = Poison.recordCrash(Dig);
  if (Count == Opts.QuarantineAfter)
    bumpCounter("serve/worker/quarantined");
}

CheckResponseMsg WorkerPool::runRequest(const CheckRequestMsg &Req) {
  uint64_t Dig = requestContentDigest(Req);
  if (Poison.isPoisoned(Dig, Opts.QuarantineAfter)) {
    bumpCounter("serve/worker/quarantine_rejects");
    return containedFailure(
        Req.ReqId, FailureKind::Quarantined,
        "input quarantined: its content digest crashed " +
            std::to_string(Opts.QuarantineAfter) +
            " workers; refusing to re-run it");
  }

  // Acquire an idle worker. Dead-but-restartable slots are worth waiting
  // for (the supervisor will respawn them); a pool where every slot is
  // parked is terminal and answers immediately.
  size_t Idx = SIZE_MAX;
  int Fd = -1;
  pid_t Pid = -1;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      if (Stopping || !Started)
        return containedFailure(Req.ReqId, FailureKind::ResourceExhausted,
                                "worker pool is stopping");
      bool AnyUsable = false;
      for (size_t I = 0; I < Slots.size(); ++I) {
        if (Slots[I].Parked)
          continue;
        AnyUsable = true;
        if (Slots[I].Child.valid() && Slots[I].Child.Fd >= 0 &&
            !Slots[I].Busy) {
          Idx = I;
          break;
        }
      }
      if (Idx != SIZE_MAX)
        break;
      if (!AnyUsable)
        return containedFailure(
            Req.ReqId, FailureKind::ResourceExhausted,
            "worker pool exhausted: every worker parked after repeated "
            "crashes");
      CvIdle.wait(Lock);
    }
    Slots[Idx].Busy = true;
    Fd = Slots[Idx].Child.Fd;
    Pid = Slots[Idx].Child.Pid;
  }
  // From here this thread owns the slot: the supervisor never touches
  // busy slots, so Fd/Pid are stable without the lock.

  uint32_t EffDeadlineMs = clampBudget(Req.DeadlineMs, Opts.DeadlineCapMs);
  uint64_t WaitMs = EffDeadlineMs
                        ? uint64_t(EffDeadlineMs) + Opts.GraceMs
                        : Opts.HangTimeoutMs;
  setRecvTimeoutMs(Fd, WaitMs);

  bool TimedOut = false;
  bool Failed = false;
  CheckResponseMsg Resp;
  do {
    if (!support::sendAll(
            Fd, encodeFrame(MsgType::CheckRequest, encodeCheckRequest(Req)))) {
      Failed = true;
      break;
    }
    char Header[FrameHeaderSize];
    long N = support::recvFull(Fd, Header, sizeof(Header));
    if (N != static_cast<long>(sizeof(Header))) {
      TimedOut = N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      Failed = true;
      break;
    }
    FrameHeader H;
    if (!decodeFrameHeader(std::string_view(Header, sizeof(Header)), H)) {
      Failed = true;
      break;
    }
    std::string Payload(H.PayloadLen, '\0');
    if (H.PayloadLen != 0 &&
        support::recvFull(Fd, Payload.data(), Payload.size()) !=
            static_cast<long>(Payload.size())) {
      TimedOut = errno == EAGAIN || errno == EWOULDBLOCK;
      Failed = true;
      break;
    }
    if (!validateFramePayload(H, Payload) ||
        H.Type != MsgType::CheckResponse ||
        !decodeCheckResponse(Payload, Resp) || Resp.ReqId != Req.ReqId) {
      Failed = true; // Garbage from a worker is treated as a death.
      break;
    }
  } while (false);

  if (Failed) {
    // Reap (or kill, for a hang/protocol violation — harmless when the
    // worker is already a zombie) and convert the death into a verdict.
    int Status = support::terminateChild(Pid, Opts.GraceMs);
    std::string Detail;
    if (TimedOut)
      Detail = "worker hung: no response within " + std::to_string(WaitMs) +
               " ms (deadline + grace); worker " +
               support::describeWaitStatus(Status);
    else
      Detail = "worker died mid-check: " + support::describeWaitStatus(Status);
    support::closeFd(Fd);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Slot &S = Slots[Idx];
      S.Child = {};
      S.Busy = false;
      recordAbnormalDeath(S);
    }
    CvSupervisor.notify_one();
    CvIdle.notify_all();
    bumpCounter("serve/worker/crashes");
    if (TimedOut)
      bumpCounter("serve/worker/hangs");
    noteCrashForQuarantine(Dig);
    return containedFailure(Req.ReqId, FailureKind::WorkerCrashed,
                            std::move(Detail));
  }

  // Success: release the slot, rotating the worker out if it has served
  // its quota (closing our end makes it exit 0; the supervisor reaps it
  // as a recycle and forks a replacement).
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Slot &S = Slots[Idx];
    S.Busy = false;
    S.CrashStreak = 0;
    ++S.RequestsServed;
    if (Opts.RotateAfterRequests &&
        S.RequestsServed >= Opts.RotateAfterRequests) {
      support::closeFd(S.Child.Fd);
      S.Child.Fd = -1;
      S.RespawnAtMs = 0;
    }
  }
  CvIdle.notify_one();
  CvSupervisor.notify_one();
  return Resp;
}

void WorkerPool::supervisorLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (!Stopping) {
    // Sleep until the nearest due respawn, bounded by an idle-reap poll.
    uint64_t Now = nowMs();
    uint64_t SleepMs = 50;
    for (const Slot &S : Slots)
      if (!S.Child.valid() && !S.Parked && !S.Busy) {
        uint64_t Due = S.RespawnAtMs > Now ? S.RespawnAtMs - Now : 0;
        if (Due < SleepMs)
          SleepMs = Due;
      }
    if (SleepMs > 0)
      CvSupervisor.wait_for(Lock, std::chrono::milliseconds(SleepMs));
    if (Stopping)
      break;
    Now = nowMs();
    for (size_t I = 0; I < Slots.size(); ++I) {
      Slot &S = Slots[I];
      if (S.Busy || S.Parked)
        continue;
      if (S.Child.valid()) {
        // Idle slots are supervisor-owned: reap deaths that happened
        // outside any request (rotation exits, idle crashes). Busy
        // slots are reaped by their requesting thread, never here.
        int Status = 0;
        support::ReapStatus R = support::reapChild(S.Child.Pid, Status);
        if (R == support::ReapStatus::Running)
          continue;
        if (S.Child.Fd >= 0)
          support::closeFd(S.Child.Fd);
        S.Child = {};
        if (R == support::ReapStatus::Exited &&
            support::exitedCleanly(Status)) {
          bumpCounter("serve/worker/recycled");
          S.RespawnAtMs = 0;
        } else {
          bumpCounter("serve/worker/crashes");
          recordAbnormalDeath(S);
        }
      }
      if (!S.Child.valid() && !S.Parked && Now >= S.RespawnAtMs) {
        std::string Err;
        if (spawnSlot(I, Err)) {
          bumpCounter("serve/worker/restarts");
          CvIdle.notify_all();
        } else {
          // Transient fork failure (EAGAIN under pressure): retry later.
          S.RespawnAtMs = Now + 1000;
        }
      }
    }
  }
}
