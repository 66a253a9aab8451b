//===- ChaosTest.cpp ------------------------------------------------------===//
//
// The chaos driver from the fault-injection harness: replay the corpus
// with deterministic faults injected at allocator, prover, cache, and
// pool sites, and assert the fail-sound invariant:
//
//   (1) no crash and no uncaught exception,
//   (2) no hang (every check returns),
//   (3) never a Safe verdict the fault-free run did not also produce.
//
// In builds without MCSAFE_FAULT_INJECTION the fault points compile to
// `false`, so these tests still run — they then simply assert that an
// installed-but-disarmed plan changes nothing.
//
//===----------------------------------------------------------------------===//

#include "checker/CertStore.h"
#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;

namespace {

std::map<std::string, CheckVerdict> runCorpus() {
  std::map<std::string, CheckVerdict> Verdicts;
  for (const CorpusProgram &P : corpus::corpus()) {
    SafetyChecker Checker;
    CheckReport R = Checker.checkSource(P.Asm, P.Policy);
    Verdicts[P.Name] = R.Verdict;
  }
  return Verdicts;
}

class Chaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Chaos, FaultsNeverManufactureASafeVerdict) {
  std::map<std::string, CheckVerdict> Baseline = runCorpus();

  support::FaultPlan Plan(GetParam());
  support::FaultPlan::install(&Plan);
  std::map<std::string, CheckVerdict> Faulted = runCorpus();
  support::FaultPlan::install(nullptr);

  for (const auto &[Name, Verdict] : Faulted) {
    // Every degraded path moves toward Unknown / recompute / inline /
    // InternalError — never toward Safe. A Safe under faults that the
    // fault-free run did not produce would be an unsound degradation.
    if (Verdict == CheckVerdict::Safe) {
      EXPECT_EQ(Baseline[Name], CheckVerdict::Safe) << Name;
    }
    // Likewise a fault must not invent violations.
    if (Verdict == CheckVerdict::Unsafe) {
      EXPECT_EQ(Baseline[Name], CheckVerdict::Unsafe) << Name;
    }
  }

#if !defined(MCSAFE_FAULT_INJECTION)
  // Fault points are compiled out: the plan never fires and the run is
  // bit-for-bit the baseline.
  EXPECT_EQ(Plan.firedCount(), 0u);
  EXPECT_EQ(Faulted, Baseline);
#endif
}

TEST(FaultInjection, VarPoolExhaustionFailsTheCheckNotTheProcess) {
  // "alloc/var" fires where an exhausted variable pool throws
  // std::bad_alloc. Each check mints dozens of namespace-private names,
  // so most checks meet the fault; those must end InternalError, the
  // others as usual, and the process must go on checking.
  support::FaultPlan Plan(1, "alloc/var");
  support::FaultPlan::install(&Plan);
  std::map<std::string, CheckVerdict> Faulted;
  for (const CorpusProgram &P : corpus::corpus()) {
    VarNamespace NS;
    Faulted[P.Name] = SafetyChecker().checkSource(P.Asm, P.Policy).Verdict;
  }
  support::FaultPlan::install(nullptr);
  std::map<std::string, CheckVerdict> After = runCorpus();

#if defined(MCSAFE_FAULT_INJECTION)
  EXPECT_GT(Plan.firedCount(), 0u);
  size_t Failed = 0;
  for (const auto &[Name, Verdict] : Faulted) {
    Failed += Verdict == CheckVerdict::InternalError;
    if (Verdict != CheckVerdict::InternalError) {
      EXPECT_EQ(Verdict, After[Name]) << Name;
    }
  }
  EXPECT_GE(Failed, Plan.firedCount());
#else
  EXPECT_EQ(Plan.firedCount(), 0u);
  EXPECT_EQ(Faulted, After);
#endif
  for (const CorpusProgram &P : corpus::corpus())
    EXPECT_EQ(After[P.Name] == CheckVerdict::Safe, P.ExpectSafe) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos, ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

std::map<std::string, CheckVerdict> runCorpusWithStore(CertStore &Store) {
  std::map<std::string, CheckVerdict> Verdicts;
  for (const CorpusProgram &P : corpus::corpus()) {
    SafetyChecker::Options Opts;
    Opts.Certs = &Store;
    SafetyChecker Checker(Opts);
    Verdicts[P.Name] = Checker.checkSource(P.Asm, P.Policy).Verdict;
  }
  return Verdicts;
}

class CertChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CertChaos, CertFaultSitesDegradeToColdNeverToUnsoundSafe) {
  // The cert/open, cert/read, and cert/write fault sites: a store that
  // randomly fails its I/O must only ever cost warm hits (checks fall
  // back cold), never crash and never change a verdict. The warm pass
  // runs against a store the cold pass populated, so both directions
  // (failing reads of good certificates, failing writes of new ones)
  // are exercised.
  std::map<std::string, CheckVerdict> Baseline = runCorpus();

  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("mcsafe-chaos-cert-" + std::to_string(GetParam()) + "-" +
        std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  CertStore Store(Dir);

  support::FaultPlan Plan(GetParam());
  support::FaultPlan::install(&Plan);
  std::map<std::string, CheckVerdict> Cold = runCorpusWithStore(Store);
  std::map<std::string, CheckVerdict> Warm = runCorpusWithStore(Store);
  support::FaultPlan::install(nullptr);

  // Fail-sound in both directions, as in the main chaos test: a fault
  // (cert or otherwise) may cost a definitive verdict, never invent one.
  for (const auto *Run : {&Cold, &Warm})
    for (const auto &[Name, Verdict] : *Run) {
      if (Verdict == CheckVerdict::Safe) {
        EXPECT_EQ(Baseline[Name], CheckVerdict::Safe) << Name;
      }
      if (Verdict == CheckVerdict::Unsafe) {
        EXPECT_EQ(Baseline[Name], CheckVerdict::Unsafe) << Name;
      }
    }

#if !defined(MCSAFE_FAULT_INJECTION)
  // Fault points compiled out: verdicts are exactly the baseline and
  // the second pass is all hits.
  EXPECT_EQ(Plan.firedCount(), 0u);
  EXPECT_EQ(Cold, Baseline);
  EXPECT_EQ(Warm, Baseline);
  EXPECT_EQ(Store.stats().Hits, corpus::corpus().size());
#else
  // Under fire the counters still balance: every check either hit or
  // went cold; nothing vanished.
  EXPECT_EQ(Store.stats().Hits + Store.stats().Misses +
                Store.stats().Corrupt + Store.stats().Stale,
            2 * corpus::corpus().size());
#endif

  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertChaos, ::testing::Values(1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t> &I) {
                           return "seed" + std::to_string(I.param);
                         });

TEST(Chaos, FaultsComposeWithAStepBudget) {
  // Faults and budgets together must still produce structured verdicts.
  support::FaultPlan Plan(5);
  support::FaultPlan::install(&Plan);
  for (const CorpusProgram &P : corpus::corpus()) {
    SafetyChecker::Options Opts;
    Opts.Limits.ProverSteps = 50;
    SafetyChecker Checker(Opts);
    CheckReport R = Checker.checkSource(P.Asm, P.Policy);
    if (R.Verdict == CheckVerdict::Safe) {
      EXPECT_TRUE(P.ExpectSafe) << P.Name;
    }
  }
  support::FaultPlan::install(nullptr);
}

} // namespace
