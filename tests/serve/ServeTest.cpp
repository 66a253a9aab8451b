//===- ServeTest.cpp - resident verification daemon -----------------------===//
//
// The daemon's contract:
//
//   (1) reports are byte-identical to local runs — for any server job
//       count, any cache warmth, any client interleaving;
//   (2) admission control is fail-sound: a shed request is UNKNOWN with
//       a structured failure, never an unearned SAFE;
//   (3) one client's disconnect, protocol violation, or mid-write
//       vanishing never perturbs another client's in-flight check or
//       kills the server (MSG_NOSIGNAL, no SIGPIPE);
//   (4) per-request budgets are honored and clamped to the server caps.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "checker/ParallelCheck.h"
#include "corpus/Corpus.h"
#include "support/Io.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;
using namespace mcsafe::serve;

namespace {

std::atomic<int> SockSerial{0};

/// A short unique socket path (sockaddr_un caps paths around 107
/// bytes, so no deep temp dirs here).
std::string freshSocketPath() {
  return "/tmp/mcsafe-serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(SockSerial.fetch_add(1)) + ".sock";
}

std::vector<CheckJob> corpusJobs() {
  std::vector<CheckJob> Jobs;
  for (const CorpusProgram &P : corpus::corpus())
    Jobs.push_back({P.Name, P.Asm, P.Policy});
  return Jobs;
}

/// The local ground truth: the deterministic batch report at Jobs=1
/// (the baseline every other configuration must reproduce byte for
/// byte).
std::string localBaselineRender() {
  ParallelCheckOptions Opts;
  Opts.Jobs = 1;
  return renderParallelReport(checkJobs(corpusJobs(), Opts));
}

/// Runs the whole corpus against a server over one pipelined
/// connection and renders the responses with the same code path the
/// CLI uses.
std::string remoteCorpusRender(Client &Conn) {
  const std::vector<CorpusProgram> &Programs = corpus::corpus();
  std::string Error;
  for (size_t I = 0; I < Programs.size(); ++I) {
    CheckRequestMsg Req;
    Req.ReqId = I;
    Req.Name = Programs[I].Name;
    Req.Asm = Programs[I].Asm;
    Req.Policy = Programs[I].Policy;
    EXPECT_TRUE(Conn.sendCheck(Req, Error)) << Error;
  }
  ParallelCheckResult R;
  R.Programs.resize(Programs.size());
  for (size_t I = 0; I < Programs.size(); ++I)
    R.Programs[I].Name = Programs[I].Name;
  for (size_t I = 0; I < Programs.size(); ++I) {
    CheckResponseMsg Resp;
    EXPECT_TRUE(Conn.recvCheck(Resp, Error)) << Error;
    EXPECT_FALSE(Resp.Shed);
    EXPECT_LT(Resp.ReqId, R.Programs.size());
    R.Programs[Resp.ReqId].Report = std::move(Resp.Report);
  }
  return renderParallelReport(R);
}

/// A raw connection to \p Path, for tests that speak bytes rather than
/// Client calls. -1 on failure.
int rawConnect(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                           sizeof(Addr)) != 0) {
    support::closeFd(Fd);
    return -1;
  }
  return Fd;
}

CheckRequestMsg checkRequest(const CorpusProgram &P, uint64_t ReqId) {
  CheckRequestMsg Req;
  Req.ReqId = ReqId;
  Req.Name = P.Name;
  Req.Asm = P.Asm;
  Req.Policy = P.Policy;
  return Req;
}

std::string renderOne(const std::string &Name, CheckReport Report) {
  ParallelCheckResult R;
  R.Programs.resize(1);
  R.Programs[0].Name = Name;
  R.Programs[0].Report = std::move(Report);
  return renderParallelReport(R);
}

/// Reads one whole frame's bytes (header and payload) from a raw socket;
/// empty on EOF or error.
std::string recvRawFrame(int Fd) {
  std::string Frame(FrameHeaderSize, '\0');
  FrameHeader H;
  if (support::recvFull(Fd, Frame.data(), Frame.size()) !=
          static_cast<long>(Frame.size()) ||
      !decodeFrameHeader(Frame, H))
    return {};
  Frame.resize(FrameHeaderSize + H.PayloadLen);
  if (H.PayloadLen != 0 &&
      support::recvFull(Fd, Frame.data() + FrameHeaderSize, H.PayloadLen) !=
          static_cast<long>(H.PayloadLen))
    return {};
  return Frame;
}

size_t threadCount() {
  size_t N = 0;
  for ([[maybe_unused]] const auto &E :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++N;
  return N;
}

struct RunningServer {
  ServerOptions Opts;
  std::unique_ptr<Server> Srv;
  explicit RunningServer(unsigned Jobs, size_t MaxQueue = 256) {
    Opts.SocketPath = freshSocketPath();
    Opts.Jobs = Jobs;
    Opts.MaxQueue = MaxQueue;
    Srv = std::make_unique<Server>(Opts);
    std::string Error;
    EXPECT_TRUE(Srv->start(Error)) << Error;
  }
  ~RunningServer() {
    Srv->requestStop();
    Srv->wait();
  }
};

TEST(Serve, PingAndStatsRoundTrip) {
  support::MetricsRegistry Registry;
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.Metrics = &Registry;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  EXPECT_TRUE(Conn.ping(Error)) << Error;
  std::string Json;
  EXPECT_TRUE(Conn.serverStats(Json, Error)) << Error;
  EXPECT_NE(Json.find("serve"), std::string::npos) << Json;

  Srv.requestStop();
  Srv.wait();
}

TEST(Serve, StatsCarryLiveCertStoreCounters) {
  // A live daemon's stats include the certificate store's running
  // totals, and asking twice counts nothing twice.
  support::MetricsRegistry Registry;
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.Metrics = &Registry;
  Opts.CertDir = Opts.SocketPath + ".certs";
  std::filesystem::remove_all(Opts.CertDir);
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  const CorpusProgram &P = corpus::corpus().front();
  CheckResponseMsg Resp;
  for (uint64_t Id = 1; Id <= 2; ++Id)
    ASSERT_TRUE(Conn.check(checkRequest(P, Id), Resp, Error)) << Error;
  std::string Json;
  for (int Ask = 0; Ask < 2; ++Ask) {
    ASSERT_TRUE(Conn.serverStats(Json, Error)) << Error;
    EXPECT_EQ(Registry.value("cert/store/misses").value_or(-1), 1);
    EXPECT_EQ(Registry.value("cert/store/writes").value_or(-1), 1);
    EXPECT_EQ(Registry.value("cert/store/hits").value_or(-1), 1);
  }
  EXPECT_NE(Json.find("\"store\""), std::string::npos) << Json;

  Srv.requestStop();
  Srv.wait();
  EXPECT_EQ(Registry.value("cert/store/hits").value_or(-1), 1);
  std::filesystem::remove_all(Opts.CertDir);
}

TEST(Serve, ColdRequestsDoNotGrowTheInterner) {
  // No certificate store: every request is cold, and the formulas each
  // one interns are freed when it ends. Once the first pass has settled
  // whatever the daemon keeps for good, more passes add no node.
  const std::string Baseline = localBaselineRender();
  support::MetricsRegistry Registry;
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.Metrics = &Registry;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;
  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;

  std::string Json;
  EXPECT_EQ(remoteCorpusRender(Conn), Baseline);
  ASSERT_TRUE(Conn.serverStats(Json, Error)) << Error;
  const int64_t Nodes = Registry.value("intern/formulas").value_or(-1);
  const int64_t Bytes = Registry.value("intern/bytes").value_or(-1);
  EXPECT_EQ(Nodes, int64_t(Formula::internStats().Nodes));
  EXPECT_NE(Json.find("\"intern\""), std::string::npos) << Json;
  for (int Pass = 0; Pass < 2; ++Pass) {
    EXPECT_EQ(remoteCorpusRender(Conn), Baseline);
    ASSERT_TRUE(Conn.serverStats(Json, Error)) << Error;
    EXPECT_EQ(Registry.value("intern/formulas").value_or(-1), Nodes);
    EXPECT_EQ(Registry.value("intern/bytes").value_or(-1), Bytes);
  }

  Srv.requestStop();
  Srv.wait();
}

TEST(Serve, WarmRevalidationHitsAcrossRequests) {
  // A certificate's formulas load into the interner's base generation,
  // which the daemon's shared prover cache admits: the first warm request
  // re-proves each Unsat witness and caches the outcome, and the second
  // finds every one of them there, computing no sat query afresh.
  support::MetricsRegistry Registry;
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.Metrics = &Registry;
  Opts.CertDir = Opts.SocketPath + ".certs";
  std::filesystem::remove_all(Opts.CertDir);
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;
  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;

  const CorpusProgram &P = corpus::corpus().front();
  ASSERT_TRUE(P.ExpectSafe) << P.Name;
  auto Counter = [&](const char *Name) {
    return Registry.value(Name).value_or(-1);
  };
  std::string Json;
  CheckResponseMsg Cold, Warm;
  ASSERT_TRUE(Conn.check(checkRequest(P, 1), Cold, Error)) << Error;
  ASSERT_TRUE(Conn.check(checkRequest(P, 2), Warm, Error)) << Error;
  EXPECT_EQ(renderOne(P.Name, Warm.Report), renderOne(P.Name, Cold.Report));
  ASSERT_TRUE(Conn.serverStats(Json, Error)) << Error;
  const int64_t Hits = Counter("cache/shared/hits");
  const int64_t Misses = Counter("cache/shared/misses");
  const int64_t Insertions = Counter("cache/shared/insertions");
  EXPECT_GT(Insertions, 0);

  ASSERT_TRUE(Conn.check(checkRequest(P, 3), Warm, Error)) << Error;
  EXPECT_EQ(renderOne(P.Name, Warm.Report), renderOne(P.Name, Cold.Report));
  ASSERT_TRUE(Conn.serverStats(Json, Error)) << Error;
  EXPECT_EQ(Counter("cert/store/hits"), 2);
  // No miss: every whole-query lookup hit, so nothing was recomputed
  // (and nothing new was inserted).
  EXPECT_GT(Counter("cache/shared/hits"), Hits);
  EXPECT_EQ(Counter("cache/shared/misses"), Misses);
  EXPECT_EQ(Counter("cache/shared/insertions"), Insertions);

  Srv.requestStop();
  Srv.wait();
  std::filesystem::remove_all(Opts.CertDir);
}

TEST(Serve, SingleCheckReportMatchesLocalRun) {
  const CorpusProgram &P = corpus::corpus().front();
  ParallelCheckOptions LocalOpts;
  LocalOpts.Jobs = 1;
  ParallelCheckResult Local =
      checkJobs({{P.Name, P.Asm, P.Policy}}, LocalOpts);

  RunningServer S(2);
  Client Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
  CheckRequestMsg Req;
  Req.ReqId = 42;
  Req.Name = P.Name;
  Req.Asm = P.Asm;
  Req.Policy = P.Policy;
  CheckResponseMsg Resp;
  ASSERT_TRUE(Conn.check(Req, Resp, Error)) << Error;
  EXPECT_FALSE(Resp.Shed);

  ParallelCheckResult Remote;
  Remote.Programs.resize(1);
  Remote.Programs[0].Name = P.Name;
  Remote.Programs[0].Report = std::move(Resp.Report);
  EXPECT_EQ(renderParallelReport(Remote), renderParallelReport(Local));
}

TEST(Serve, CorpusReportByteIdenticalForEveryServerJobCount) {
  std::string Baseline = localBaselineRender();
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    RunningServer S(Jobs);
    Client Conn;
    std::string Error;
    ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
    EXPECT_EQ(remoteCorpusRender(Conn), Baseline)
        << "daemon with --jobs " << Jobs
        << " diverged from the local Jobs=1 baseline";
  }
}

TEST(Serve, WarmCachesDoNotChangeASingleByte) {
  // The whole point of the daemon is reuse — and reuse must be
  // invisible in the report. Same connection, same server, twice.
  std::string Baseline = localBaselineRender();
  RunningServer S(4);
  Client Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
  EXPECT_EQ(remoteCorpusRender(Conn), Baseline);
  EXPECT_EQ(remoteCorpusRender(Conn), Baseline);
}

TEST(Serve, ConcurrentClientsEachGetTheirOwnAnswers) {
  // Baseline verdict per program, locally.
  ParallelCheckOptions LocalOpts;
  LocalOpts.Jobs = 1;
  ParallelCheckResult Local = checkJobs(corpusJobs(), LocalOpts);

  RunningServer S(4);
  const std::vector<CorpusProgram> &Programs = corpus::corpus();
  const size_t NClients = 4;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (size_t T = 0; T < NClients; ++T) {
    Threads.emplace_back([&, T] {
      Client Conn;
      std::string Error;
      if (!Conn.connect(S.Opts.SocketPath, Error)) {
        ++Failures;
        return;
      }
      // Each client pipelines a stride of the corpus, then matches
      // responses by id.
      std::vector<size_t> Mine;
      for (size_t I = T; I < Programs.size(); I += NClients)
        Mine.push_back(I);
      for (size_t I : Mine) {
        CheckRequestMsg Req;
        Req.ReqId = I;
        Req.Name = Programs[I].Name;
        Req.Asm = Programs[I].Asm;
        Req.Policy = Programs[I].Policy;
        if (!Conn.sendCheck(Req, Error)) {
          ++Failures;
          return;
        }
      }
      for (size_t K = 0; K < Mine.size(); ++K) {
        CheckResponseMsg Resp;
        if (!Conn.recvCheck(Resp, Error)) {
          ++Failures;
          return;
        }
        if (Resp.Shed ||
            Resp.Report.Verdict !=
                Local.Programs[Resp.ReqId].Report.Verdict)
          ++Failures;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(Serve, ShedRequestsAreAlwaysUnknownNeverSafe) {
  // MaxQueue=0 sheds every request deterministically.
  RunningServer S(2, /*MaxQueue=*/0);
  Client Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
  const CorpusProgram &P = corpus::corpus().front();
  for (uint64_t I = 0; I < 5; ++I) {
    CheckRequestMsg Req;
    Req.ReqId = I;
    Req.Name = P.Name;
    Req.Asm = P.Asm;
    Req.Policy = P.Policy;
    CheckResponseMsg Resp;
    ASSERT_TRUE(Conn.check(Req, Resp, Error)) << Error;
    EXPECT_TRUE(Resp.Shed);
    EXPECT_EQ(Resp.Report.Verdict, CheckVerdict::Unknown);
    EXPECT_FALSE(Resp.Report.Safe);
    ASSERT_EQ(Resp.Report.Failures.size(), 1u);
    EXPECT_EQ(Resp.Report.Failures[0].Kind,
              FailureKind::ResourceExhausted);
    EXPECT_NE(Resp.Report.Failures[0].Detail.find("load shed"),
              std::string::npos);
  }
}

TEST(Serve, ClientVanishingMidRequestLeavesOthersUnaffected) {
  RunningServer S(2);
  const CorpusProgram &P = corpus::corpus().front();
  ParallelCheckOptions LocalOpts;
  LocalOpts.Jobs = 1;
  ParallelCheckResult Local =
      checkJobs({{P.Name, P.Asm, P.Policy}}, LocalOpts);

  // Client A fires a request and disappears before the response can be
  // written; the server's send hits a dead socket (EPIPE via
  // MSG_NOSIGNAL — a SIGPIPE would kill this whole test binary).
  {
    Client Ghost;
    std::string Error;
    ASSERT_TRUE(Ghost.connect(S.Opts.SocketPath, Error)) << Error;
    CheckRequestMsg Req;
    Req.ReqId = 1;
    Req.Name = P.Name;
    Req.Asm = P.Asm;
    Req.Policy = P.Policy;
    ASSERT_TRUE(Ghost.sendCheck(Req, Error)) << Error;
    Ghost.close();
  }

  // Client B's concurrent check is sound and complete.
  Client Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
  CheckRequestMsg Req;
  Req.ReqId = 2;
  Req.Name = P.Name;
  Req.Asm = P.Asm;
  Req.Policy = P.Policy;
  CheckResponseMsg Resp;
  ASSERT_TRUE(Conn.check(Req, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Report.Verdict, Local.Programs[0].Report.Verdict);
  EXPECT_TRUE(Conn.ping(Error)) << Error;
}

TEST(Serve, GarbageBytesDropTheConnectionNotTheServer) {
  RunningServer S(2);
  // Raw socket speaking nonsense.
  int Fd = rawConnect(S.Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  std::string Garbage = "this is definitely not an MSRV frame......";
  ASSERT_TRUE(support::sendAll(Fd, Garbage));
  char B;
  // The server drops the connection (EOF here), silently.
  EXPECT_EQ(support::recvFull(Fd, &B, 1), 0);
  support::closeFd(Fd);

  // And keeps serving everyone else.
  Client Conn;
  std::string Error;
  ASSERT_TRUE(Conn.connect(S.Opts.SocketPath, Error)) << Error;
  EXPECT_TRUE(Conn.ping(Error)) << Error;
}

TEST(Serve, ProverStepCapClampsEveryRequest) {
  // Find a corpus program that actually exercises the prover.
  const CorpusProgram *Heavy = nullptr;
  ParallelCheckOptions LocalOpts;
  LocalOpts.Jobs = 1;
  ParallelCheckResult Local = checkJobs(corpusJobs(), LocalOpts);
  for (size_t I = 0; I < Local.Programs.size(); ++I) {
    const CheckReport &R = Local.Programs[I].Report;
    if (R.Verdict == CheckVerdict::Safe && R.ProverStats.SatQueries > 2) {
      Heavy = &corpus::corpus()[I];
      break;
    }
  }
  ASSERT_NE(Heavy, nullptr);

  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.ProverStepsCap = 1;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  CheckRequestMsg Req;
  Req.ReqId = 1;
  Req.Name = Heavy->Name;
  Req.Asm = Heavy->Asm;
  Req.Policy = Heavy->Policy;
  Req.ProverSteps = 0; // "Unlimited" — the server cap must still bind.
  CheckResponseMsg Resp;
  ASSERT_TRUE(Conn.check(Req, Resp, Error)) << Error;
  // Fail-sound: the clamped budget downgrades to UNKNOWN, never SAFE.
  EXPECT_EQ(Resp.Report.Verdict, CheckVerdict::Unknown);
  ASSERT_FALSE(Resp.Report.Failures.empty());
  EXPECT_EQ(Resp.Report.Failures[0].Kind, FailureKind::ResourceExhausted);

  Srv.requestStop();
  Srv.wait();
}

TEST(Serve, ShutdownMessageStopsTheServerCleanly) {
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  EXPECT_TRUE(Conn.shutdownServer(Error)) << Error;
  Srv.wait(); // Returns because the Shutdown message stopped it.

  // The socket is gone: fresh connections are refused.
  Client After;
  EXPECT_FALSE(After.connect(Opts.SocketPath, Error));
}

TEST(Serve, GracefulStopAnswersEveryAdmittedRequest) {
  // A client pipelines a burst, then the server is told to stop while
  // some of those requests are still queued or in flight. The drain
  // contract: every request gets exactly one response — a real report
  // or a shed UNKNOWN, never a silent drop — and only then does the
  // connection close.
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  Client Conn;
  ASSERT_TRUE(Conn.connect(Opts.SocketPath, Error)) << Error;
  // The ping round-trip guarantees the server has accepted this
  // connection and its reader is up — requests pipelined from here on
  // are the server's to answer. (A connection still sitting in the
  // accept backlog at shutdown is refused with a reset, which is a
  // visible error, not a silent drop; that path is not under test.)
  ASSERT_TRUE(Conn.ping(Error)) << Error;
  const std::vector<CorpusProgram> &Programs = corpus::corpus();
  const size_t N = 8;
  for (size_t I = 0; I < N; ++I) {
    const CorpusProgram &P = Programs[I % Programs.size()];
    CheckRequestMsg Req;
    Req.ReqId = I;
    Req.Name = P.Name;
    Req.Asm = P.Asm;
    Req.Policy = P.Policy;
    ASSERT_TRUE(Conn.sendCheck(Req, Error)) << Error;
  }
  Srv.requestStop();
  // wait() returns only after every admitted request's response is on
  // the wire and the write sides are closed; the responses (and the
  // EOF behind them) are sitting in this client's socket buffer.
  Srv.wait();

  std::vector<bool> Answered(N, false);
  for (size_t I = 0; I < N; ++I) {
    CheckResponseMsg Resp;
    ASSERT_TRUE(Conn.recvCheck(Resp, Error))
        << "response " << I << " of " << N << ": " << Error;
    ASSERT_LT(Resp.ReqId, N);
    EXPECT_FALSE(Answered[Resp.ReqId]) << "duplicate response";
    Answered[Resp.ReqId] = true;
    if (Resp.Shed) {
      // Shed during drain: fail-sound UNKNOWN, structured reason.
      EXPECT_EQ(Resp.Report.Verdict, CheckVerdict::Unknown);
      EXPECT_FALSE(Resp.Report.Safe);
      ASSERT_EQ(Resp.Report.Failures.size(), 1u);
      EXPECT_EQ(Resp.Report.Failures[0].Kind,
                FailureKind::ResourceExhausted);
      EXPECT_NE(Resp.Report.Failures[0].Detail.find("shutting down"),
                std::string::npos);
    }
  }
  // All N answered; behind the last response is a clean EOF.
  MsgType Type;
  std::string Payload;
  EXPECT_FALSE(Conn.recvFrame(Type, Payload, Error));
  EXPECT_NE(Error.find("closed"), std::string::npos) << Error;
}

TEST(Serve, ClientTimeoutUnwedgesFromASilentDaemon) {
  // A "daemon" that accepts but never answers: a raw listening socket
  // nobody ever accepts or reads from. Without a timeout the client
  // would block in recv forever.
  std::string Path = freshSocketPath();
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(ListenFd, 0);
  ASSERT_EQ(
      ::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
      0);
  ASSERT_EQ(::listen(ListenFd, 8), 0);

  Client Conn;
  Conn.setTimeoutMs(300);
  std::string Error;
  ASSERT_TRUE(Conn.connect(Path, Error)) << Error;
  // The ping is written into the kernel buffer, but no response ever
  // comes: the receive times out with a structured, wedge-naming error.
  EXPECT_FALSE(Conn.ping(Error));
  EXPECT_NE(Error.find("no response from server"), std::string::npos)
      << Error;

  support::closeFd(ListenFd);
  ::unlink(Path.c_str());
}

TEST(Serve, ConnectionChurnNeverWedgesTheAcceptLoop) {
  // Regression: the accept thread once joined a finished reader while
  // holding the server mutex, and the reader's last act is to take that
  // mutex. A stream of short-lived connections then wedged the accept
  // loop for good: no connection was ever accepted again. Every client
  // operation here carries a timeout, so a wedged loop fails the test
  // instead of hanging it.
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 1;
  auto Srv = std::make_unique<Server>(Opts);
  std::string Error;
  ASSERT_TRUE(Srv->start(Error)) << Error;

  constexpr int NumClients = 4;
  constexpr int ConnsPerClient = 1500;
  std::vector<std::string> FirstError(NumClients);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < ConnsPerClient; ++I) {
        Client Conn;
        Conn.setTimeoutMs(2000);
        std::string E;
        if (!Conn.connect(Opts.SocketPath, E) || !Conn.ping(E)) {
          FirstError[T] = "connection " + std::to_string(I) + ": " + E;
          return;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  bool Wedged = false;
  for (const std::string &E : FirstError) {
    EXPECT_TRUE(E.empty()) << E;
    Wedged |= !E.empty();
  }
  if (Wedged) {
    // A wedged accept thread never returns, so wait() would hang; leave
    // the server to process exit and let the failure report.
    (void)Srv.release();
    return;
  }
  Srv->requestStop();
  Srv->wait();
}

TEST(Serve, ClientThatNeverReadsCannotStarveOthers) {
  // Regression: pool threads once wrote responses straight to client
  // sockets. A client that pipelined checks and never read filled its
  // socket, every pool thread blocked in send holding its slot, the
  // client's admitted requests never drained, and every other client
  // was shed ("admission queue full") for as long as it stayed
  // connected.
  const CorpusProgram &P = corpusProgram("Sum");
  SafetyChecker Local;
  const std::string Expected =
      renderOne(P.Name, Local.checkSource(P.Asm, P.Policy));

  RunningServer S(2);
  Client Other;
  Other.setTimeoutMs(5000);
  std::string Error;
  ASSERT_TRUE(Other.connect(S.Opts.SocketPath, Error)) << Error;
  int Hog = rawConnect(S.Opts.SocketPath);
  ASSERT_GE(Hog, 0);
  constexpr int FloodSize = 10000;
  std::atomic<int> Sent{0};
  std::thread Flood([&] {
    for (uint64_t I = 0; I < FloodSize; ++I) {
      if (!support::sendAll(Hog, encodeFrame(MsgType::CheckRequest,
                                             encodeCheckRequest(
                                                 checkRequest(P, I)))))
        return;
      ++Sent;
    }
  });
  // Let the flood get well ahead before the second client arrives.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (Sent.load() < 500 && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // While the flood's admitted work drains, the second client may be
  // shed; it must be served within 5 s.
  std::string Got;
  Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (uint64_t Id = 1; Got.empty() &&
                        std::chrono::steady_clock::now() < Deadline;
       ++Id) {
    CheckResponseMsg Resp;
    if (!Other.check(checkRequest(P, Id), Resp, Error)) {
      ADD_FAILURE() << Error;
      break;
    }
    if (!Resp.Shed)
      Got = renderOne(P.Name, std::move(Resp.Report));
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(Got, Expected) << "the second client was never served";
  // The server stopped reading the flood once its unsent responses hit
  // the output bound, so the flood's sender is stuck well short of done.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(Sent.load(), FloodSize);

  ::shutdown(Hog, SHUT_RDWR); // Unblocks the flood's send.
  Flood.join();
  support::closeFd(Hog);
}

TEST(Serve, TrickledFrameIsReassembled) {
  const CorpusProgram &P = corpusProgram("Sum");
  const std::string Request = encodeFrame(
      MsgType::CheckRequest, encodeCheckRequest(checkRequest(P, 7)));
  RunningServer S(2);

  // The reference: the same request sent whole.
  int Whole = rawConnect(S.Opts.SocketPath);
  ASSERT_GE(Whole, 0);
  ASSERT_TRUE(support::sendAll(Whole, Request));
  const std::string Expected = recvRawFrame(Whole);
  ASSERT_FALSE(Expected.empty());
  support::closeFd(Whole);

  // One byte per send; a second client's ping round-trips meanwhile, so
  // the partial frame holds up nobody.
  int Trickle = rawConnect(S.Opts.SocketPath);
  ASSERT_GE(Trickle, 0);
  Client Other;
  Other.setTimeoutMs(5000);
  std::string Error;
  ASSERT_TRUE(Other.connect(S.Opts.SocketPath, Error)) << Error;
  for (size_t I = 0; I < Request.size(); ++I) {
    ASSERT_TRUE(support::sendAll(Trickle, Request.substr(I, 1)));
    if (I % 128 == 0) {
      EXPECT_TRUE(Other.ping(Error)) << "at byte " << I << ": " << Error;
    }
  }
  EXPECT_EQ(recvRawFrame(Trickle), Expected);
  support::closeFd(Trickle);
}

TEST(Serve, IdleConnectionsAddNoThreads) {
  RunningServer S(2);
  std::string Error;
  Client First;
  ASSERT_TRUE(First.connect(S.Opts.SocketPath, Error)) << Error;
  ASSERT_TRUE(First.ping(Error)) << Error;
  const size_t Before = threadCount();

  std::vector<Client> Idle(64);
  for (Client &C : Idle) {
    ASSERT_TRUE(C.connect(S.Opts.SocketPath, Error)) << Error;
    ASSERT_TRUE(C.ping(Error)) << Error; // Accepted and served.
  }
  EXPECT_EQ(threadCount(), Before);
}

TEST(Serve, StaleSocketFileIsReplacedOnStart) {
  std::string Path = freshSocketPath();
  {
    ServerOptions Opts;
    Opts.SocketPath = Path;
    Opts.Jobs = 1;
    Server Srv(Opts);
    std::string Error;
    ASSERT_TRUE(Srv.start(Error)) << Error;
    Srv.requestStop();
    Srv.wait();
  }
  // Simulate a crash leaving a stale socket file behind.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  support::closeFd(Fd); // fd closed, socket file left on disk.

  ServerOptions Opts;
  Opts.SocketPath = Path;
  Opts.Jobs = 1;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;
  Client Conn;
  ASSERT_TRUE(Conn.connect(Path, Error)) << Error;
  EXPECT_TRUE(Conn.ping(Error)) << Error;
  Srv.requestStop();
  Srv.wait();
}

} // namespace
