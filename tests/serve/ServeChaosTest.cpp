//===- ServeChaosTest.cpp - daemon under injected faults ------------------===//
//
// The chaos driver pointed at the daemon: deterministic faults at the
// "serve/write" site (and every site inside the checking pipeline) while
// clients stream the corpus through a live server. The fail-sound
// invariant, extended to the wire:
//
//   (1) no crash, no hang, no SIGPIPE — a failed response write latches
//       that one connection dead and nothing else;
//   (2) every response a client DOES receive is fail-sound: never a
//       Safe verdict the fault-free run did not also produce;
//   (3) the server outlives every injected fault — once the plan is
//       disarmed, a fresh client gets service.
//
// In builds without MCSAFE_FAULT_INJECTION the fault points compile to
// `false`; the tests then assert a disarmed plan changes nothing.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>

#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;
using namespace mcsafe::serve;

namespace {

std::atomic<int> SockSerial{0};

std::string freshSocketPath() {
  return "/tmp/mcsafe-chaos-" + std::to_string(::getpid()) + "-" +
         std::to_string(SockSerial.fetch_add(1)) + ".sock";
}

std::map<std::string, CheckVerdict> localBaseline() {
  std::map<std::string, CheckVerdict> Verdicts;
  for (const CorpusProgram &P : corpus::corpus()) {
    SafetyChecker Checker;
    Verdicts[P.Name] = Checker.checkSource(P.Asm, P.Policy).Verdict;
  }
  return Verdicts;
}

class ServeChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeChaos, WriteFaultsNeverManufactureASafeVerdict) {
  std::map<std::string, CheckVerdict> Baseline = localBaseline();

  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  support::FaultPlan Plan(GetParam());
  support::FaultPlan::install(&Plan);

  size_t Received = 0, Dropped = 0;
  for (const CorpusProgram &P : corpus::corpus()) {
    // One connection per program: a "serve/write" fault kills at most
    // this one client, and the next must get a fresh, working one.
    Client Conn;
    if (!Conn.connect(Opts.SocketPath, Error)) {
      ++Dropped;
      continue;
    }
    CheckRequestMsg Req;
    Req.ReqId = 1;
    Req.Name = P.Name;
    Req.Asm = P.Asm;
    Req.Policy = P.Policy;
    CheckResponseMsg Resp;
    if (!Conn.check(Req, Resp, Error)) {
      // A write fault severed the connection mid-response. That is the
      // degraded path working: the response is lost, not corrupted.
      ++Dropped;
      continue;
    }
    ++Received;
    // Fail-sound in both directions, as in the corpus chaos driver.
    if (Resp.Report.Verdict == CheckVerdict::Safe) {
      EXPECT_EQ(Baseline[P.Name], CheckVerdict::Safe) << P.Name;
    }
    if (Resp.Report.Verdict == CheckVerdict::Unsafe) {
      EXPECT_EQ(Baseline[P.Name], CheckVerdict::Unsafe) << P.Name;
    }
  }

  support::FaultPlan::install(nullptr);

  // The server outlived every injected fault: disarmed, it serves again.
  Client After;
  ASSERT_TRUE(After.connect(Opts.SocketPath, Error)) << Error;
  EXPECT_TRUE(After.ping(Error)) << Error;

#if !defined(MCSAFE_FAULT_INJECTION)
  // Fault points compiled out: nothing fired, nothing dropped, and every
  // verdict is exactly the baseline.
  EXPECT_EQ(Plan.firedCount(), 0u);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(Received, corpus::corpus().size());
#else
  (void)Received;
  (void)Dropped;
#endif

  Srv.requestStop();
  Srv.wait();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeChaos, ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

class ServeChaosIsolated : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeChaosIsolated, WorkerDeathsNeverManufactureASafeVerdict) {
  // Isolation mode under the worker fault sites (serve/worker-crash,
  // serve/worker-oom, serve/worker-hang — plus every site inside the
  // checking pipeline, all inherited by the forked workers). The
  // containment contract: a killed or hung worker costs its own request
  // a structured UNKNOWN, other clients still get served, and the
  // daemon outlives all of it.
  std::map<std::string, CheckVerdict> Baseline = localBaseline();

  // Installed before start() so the forked workers inherit the plan.
  support::FaultPlan Plan(GetParam());
  support::FaultPlan::install(&Plan);

  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath();
  Opts.Jobs = 2;
  Opts.IsolateWorkers = true;
  // Bound the hang site: the response wait is deadline + grace, so a
  // worker stuck in the pause() loop is escalated within ~1.75 s. The
  // cap is far above any corpus program's real runtime, so in builds
  // without fault injection nothing times out.
  Opts.DeadlineCapMs = 1500;
  Opts.Worker.GraceMs = 250;
  Opts.Worker.RestartBackoffBaseMs = 1;
  Opts.Worker.RestartBackoffCapMs = 5;
  // Quarantine off: each program is sent once, and this test is about
  // containment, not the poison list.
  Opts.Worker.QuarantineAfter = 0;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(Error)) << Error;

  size_t Received = 0, Contained = 0, Dropped = 0;
  for (const CorpusProgram &P : corpus::corpus()) {
    Client Conn;
    if (!Conn.connect(Opts.SocketPath, Error)) {
      ADD_FAILURE() << "daemon stopped accepting: " << Error;
      break;
    }
    CheckRequestMsg Req;
    Req.ReqId = 1;
    Req.Name = P.Name;
    Req.Asm = P.Asm;
    Req.Policy = P.Policy;
    CheckResponseMsg Resp;
    if (!Conn.check(Req, Resp, Error)) {
      // The plan also arms the parent's serve/write site, which severs
      // this one connection mid-response — the non-isolated degraded
      // path, not a containment failure. (That a *worker death* never
      // severs the connection is pinned down by WorkerPoolTest, where
      // the crash hook is the only fault in play.)
      ++Dropped;
      continue;
    }
    ++Received;
    if (!Resp.Report.Failures.empty() &&
        Resp.Report.Failures[0].Kind == FailureKind::WorkerCrashed) {
      ++Contained;
      EXPECT_EQ(Resp.Report.Verdict, CheckVerdict::Unknown) << P.Name;
      EXPECT_FALSE(Resp.Report.Safe) << P.Name;
    }
    // Fail-sound in both directions.
    if (Resp.Report.Verdict == CheckVerdict::Safe) {
      EXPECT_EQ(Baseline[P.Name], CheckVerdict::Safe) << P.Name;
    }
    if (Resp.Report.Verdict == CheckVerdict::Unsafe) {
      EXPECT_EQ(Baseline[P.Name], CheckVerdict::Unsafe) << P.Name;
    }
  }
  EXPECT_EQ(Received + Dropped, corpus::corpus().size());

  support::FaultPlan::install(nullptr);

  // The daemon outlived every worker death. (Workers forked while the
  // plan was armed may still carry it, so the liveness probe is a ping,
  // which never touches a worker.)
  Client After;
  ASSERT_TRUE(After.connect(Opts.SocketPath, Error)) << Error;
  EXPECT_TRUE(After.ping(Error)) << Error;

#if !defined(MCSAFE_FAULT_INJECTION)
  // Fault points compiled out: no worker ever died, and every verdict
  // matched the baseline exactly.
  EXPECT_EQ(Plan.firedCount(), 0u);
  EXPECT_EQ(Contained, 0u);
  EXPECT_EQ(Dropped, 0u);
#else
  (void)Contained;
#endif

  Srv.requestStop();
  Srv.wait();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeChaosIsolated,
                         ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

} // namespace
