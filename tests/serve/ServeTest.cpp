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
#include <cstring>
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
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, S.Opts.SocketPath.c_str(),
              S.Opts.SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
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
