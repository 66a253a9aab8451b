//===- CertStoreTest.cpp - Persistent certificate store -------------------===//
//
// The store's contract: a warm hit replays a report identical to the
// cold run's; anything less than a fully validated certificate — missing
// file, truncation, bit flips, version mismatch, stale inputs, failed
// revalidation — degrades to a cold run (correct verdict, fresh
// certificate), never to a crash or an unearned SAFE.
//
//===----------------------------------------------------------------------===//

#include "checker/CertStore.h"
#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;

namespace {

/// A fresh store directory per test, removed on destruction.
struct TempStore {
  std::string Dir;
  explicit TempStore(const char *Tag) {
    Dir = (std::filesystem::temp_directory_path() /
           (std::string("mcsafe-certstore-") + Tag + "-" +
            std::to_string(::getpid())))
              .string();
    std::filesystem::remove_all(Dir);
  }
  ~TempStore() { std::filesystem::remove_all(Dir); }
};

/// Renders the parts of a report that byte-compares meaningfully (the
/// full diagnostic text plus every deterministic counter).
std::string reportFingerprint(const CheckReport &R) {
  std::string S;
  S += "verdict=" + std::string(verdictName(R.Verdict));
  S += " safe=" + std::to_string(R.Safe);
  S += " lint=" + std::to_string(R.LintRejected);
  S += " diags=" + R.Diags.str();
  for (const CheckFailure &F : R.Failures)
    S += " failure=" + F.str();
  S += " insts=" + std::to_string(R.Chars.Instructions);
  S += " conds=" + std::to_string(R.Chars.GlobalConditions);
  S += " visits=" + std::to_string(R.TypestateNodeVisits);
  S += " local=" + std::to_string(R.LocalChecks) + "/" +
       std::to_string(R.LocalViolations);
  S += " proved=" + std::to_string(R.Global.ObligationsProved);
  S += " failed=" + std::to_string(R.Global.ObligationsFailed);
  S += " quick=" + std::to_string(R.Global.QuickDischarges);
  S += " inv=" + std::to_string(R.Global.InvariantsSynthesized);
  S += " iter=" + std::to_string(R.Global.IterationsRun);
  S += " validity=" + std::to_string(R.ProverStats.ValidityQueries);
  S += " sat=" + std::to_string(R.ProverStats.SatQueries);
  return S;
}

CheckReport runWithStore(const CorpusProgram &P, CertStore *Store) {
  SafetyChecker::Options Opts;
  Opts.Certs = Store;
  SafetyChecker Checker(Opts);
  return Checker.checkSource(P.Asm, P.Policy);
}

TEST(CertStore, WarmHitReplaysTheColdReportExactly) {
  TempStore T("warm");
  CertStore Store(T.Dir);
  const CorpusProgram &P = corpusProgram("Sum");

  CheckReport Cold = runWithStore(P, &Store);
  ASSERT_TRUE(Cold.Safe) << Cold.Diags.str();
  EXPECT_EQ(Store.stats().Misses, 1u);
  EXPECT_EQ(Store.stats().Writes, 1u);

  CheckReport Warm = runWithStore(P, &Store);
  EXPECT_EQ(Store.stats().Hits, 1u);
  EXPECT_EQ(Store.stats().RevalidateFailed, 0u);
  EXPECT_EQ(reportFingerprint(Cold), reportFingerprint(Warm));
}

TEST(CertStore, UnsafeVerdictsAreCertifiedToo) {
  // A certificate is a record of a deterministic outcome, not a proof of
  // safety — UNSAFE replays as UNSAFE (same diagnostics), never SAFE.
  TempStore T("unsafe");
  CertStore Store(T.Dir);
  const CorpusProgram *Unsafe = nullptr;
  for (const CorpusProgram &P : mcsafe::corpus::corpus())
    if (!P.ExpectSafe) {
      Unsafe = &P;
      break;
    }
  ASSERT_NE(Unsafe, nullptr);

  CheckReport Cold = runWithStore(*Unsafe, &Store);
  ASSERT_FALSE(Cold.Safe);
  ASSERT_TRUE(Cold.Failures.empty())
      << "corpus UNSAFE program should fail cleanly";
  CheckReport Warm = runWithStore(*Unsafe, &Store);
  EXPECT_EQ(Store.stats().Hits, 1u);
  EXPECT_FALSE(Warm.Safe);
  EXPECT_EQ(reportFingerprint(Cold), reportFingerprint(Warm));
}

TEST(CertStore, EveryTruncationDegradesToCold) {
  TempStore T("trunc");
  const CorpusProgram &P = corpusProgram("Sum");
  std::string Config;
  uint64_t Key;
  std::string Bytes;
  {
    CertStore Store(T.Dir);
    CheckReport Cold = runWithStore(P, &Store);
    ASSERT_TRUE(Cold.Safe);
    SafetyChecker::Options Opts;
    Config = canonicalCheckConfig(Opts);
    Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
    std::ifstream In(Store.pathFor(Key), std::ios::binary);
    ASSERT_TRUE(In.is_open());
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
    ASSERT_GT(Bytes.size(), 0u);
  }
  // Every proper prefix must be Corrupt (or Miss for length 0 is still
  // fine as long as it is not a Hit) — and a full check over the
  // truncated store must still conclude SAFE via the cold path. Sampled
  // stride keeps the test fast; the serializer fuzz covers every offset.
  for (size_t Len = 0; Len < Bytes.size();
       Len += (Bytes.size() / 64) + 1) {
    CertStore Store(T.Dir);
    {
      std::ofstream Out(Store.pathFor(Key),
                        std::ios::binary | std::ios::trunc);
      Out.write(Bytes.data(), static_cast<std::streamsize>(Len));
    }
    Certificate C;
    EXPECT_EQ(Store.load(Key, P.Asm, P.Policy, Config, C),
              CertStore::LoadOutcome::Corrupt)
        << "prefix " << Len;
    CheckReport R = runWithStore(P, &Store);
    EXPECT_TRUE(R.Safe) << "prefix " << Len;
    // Two corrupt loads: the explicit probe above plus the checker's own.
    EXPECT_EQ(Store.stats().Corrupt, 2u);
    EXPECT_GE(Store.stats().Writes, 1u); // Fresh certificate rewritten.
  }
}

TEST(CertStore, BitFlipsNeverYieldAHit) {
  TempStore T("flip");
  const CorpusProgram &P = corpusProgram("Sum");
  CertStore Store(T.Dir);
  CheckReport Cold = runWithStore(P, &Store);
  ASSERT_TRUE(Cold.Safe);
  std::string Config = canonicalCheckConfig(SafetyChecker::Options{});
  uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
  std::string Bytes;
  {
    std::ifstream In(Store.pathFor(Key), std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  for (size_t Pos = 0; Pos < Bytes.size();
       Pos += (Bytes.size() / 96) + 1) {
    std::string Mut = Bytes;
    Mut[Pos] = static_cast<char>(Mut[Pos] ^ 0x20);
    {
      std::ofstream Out(Store.pathFor(Key),
                        std::ios::binary | std::ios::trunc);
      Out.write(Mut.data(), static_cast<std::streamsize>(Mut.size()));
    }
    Certificate C;
    CertStore::LoadOutcome O = Store.load(Key, P.Asm, P.Policy, Config, C);
    // The payload digest in the header makes any payload flip Corrupt; a
    // header flip is Corrupt (bad magic/version/size) or at worst Stale
    // (flipped key field). Never a Hit.
    EXPECT_NE(O, CertStore::LoadOutcome::Hit) << "pos " << Pos;
  }
}

TEST(CertStore, VersionMismatchIsCorrupt) {
  TempStore T("version");
  const CorpusProgram &P = corpusProgram("Sum");
  CertStore Store(T.Dir);
  ASSERT_TRUE(runWithStore(P, &Store).Safe);
  std::string Config = canonicalCheckConfig(SafetyChecker::Options{});
  uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
  std::string Bytes;
  {
    std::ifstream In(Store.pathFor(Key), std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  // Header layout: magic[4], then the u32 format version.
  ASSERT_GT(Bytes.size(), 8u);
  Bytes[4] = static_cast<char>(CertStore::FormatVersion + 1);
  {
    std::ofstream Out(Store.pathFor(Key), std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  Certificate C;
  EXPECT_EQ(Store.load(Key, P.Asm, P.Policy, Config, C),
            CertStore::LoadOutcome::Corrupt);
}

TEST(CertStore, DifferentConfigMissesAndDifferentInputsAreStale) {
  TempStore T("stale");
  const CorpusProgram &P = corpusProgram("Sum");
  CertStore Store(T.Dir);
  ASSERT_TRUE(runWithStore(P, &Store).Safe);

  // A different config digests to a different key: plain miss.
  SafetyChecker::Options NoLint;
  NoLint.Lint = false;
  std::string AltConfig = canonicalCheckConfig(NoLint);
  std::string Config = canonicalCheckConfig(SafetyChecker::Options{});
  ASSERT_NE(AltConfig, Config);
  uint64_t AltKey = CertStore::procedureKey(P.Asm, P.Policy, AltConfig);
  Certificate C;
  EXPECT_EQ(Store.load(AltKey, P.Asm, P.Policy, AltConfig, C),
            CertStore::LoadOutcome::Miss);

  // Forcing the wrong key onto different inputs (a simulated digest
  // collision) is detected by the stored-byte comparison: Stale.
  uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
  std::string OtherAsm = std::string(P.Asm) + "\n! trailing comment\n";
  EXPECT_EQ(Store.load(Key, OtherAsm, P.Policy, Config, C),
            CertStore::LoadOutcome::Stale);
  EXPECT_EQ(Store.stats().Stale, 1u);
}

TEST(CertStore, RevalidationFailureFallsBackCold) {
  TempStore T("reval");
  const CorpusProgram &P = corpusProgram("Sum");
  CertStore Store(T.Dir);
  ASSERT_TRUE(runWithStore(P, &Store).Safe);

  // Load the genuine certificate and corrupt one Unsat witness into a
  // tautologically *unsatisfiable-looking but satisfiable* query: flip
  // an Unsat witness's formula to "true" (satisfiable), which must fail
  // re-discharge.
  std::string Config = canonicalCheckConfig(SafetyChecker::Options{});
  uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
  Certificate C;
  ASSERT_EQ(Store.load(Key, P.Asm, P.Policy, Config, C),
            CertStore::LoadOutcome::Hit);
  bool Tampered = false;
  for (QueryRecord &W : C.Witnesses)
    if (W.Outcome.Result == SatResult::Unsat) {
      W.F = Formula::mkTrue(); // sat — revalidation must reject.
      Tampered = true;
      break;
    }
  ASSERT_TRUE(Tampered) << "a Safe run must carry Unsat witnesses";
  SafetyChecker::Options Opts;
  EXPECT_FALSE(revalidateCertificate(C, Opts));

  // And the untampered one still revalidates.
  Certificate C2;
  ASSERT_EQ(Store.load(Key, P.Asm, P.Policy, Config, C2),
            CertStore::LoadOutcome::Hit);
  EXPECT_TRUE(revalidateCertificate(C2, Opts));
}

TEST(CertStore, BudgetDriftFailsRevalidation) {
  // A witness recorded under a different query budget must not be
  // accepted under the current one (the outcome could legitimately
  // differ), even though the formulas are identical.
  TempStore T("budget");
  const CorpusProgram &P = corpusProgram("Sum");
  CertStore Store(T.Dir);
  ASSERT_TRUE(runWithStore(P, &Store).Safe);
  std::string Config = canonicalCheckConfig(SafetyChecker::Options{});
  uint64_t Key = CertStore::procedureKey(P.Asm, P.Policy, Config);
  Certificate C;
  ASSERT_EQ(Store.load(Key, P.Asm, P.Policy, Config, C),
            CertStore::LoadOutcome::Hit);
  ASSERT_FALSE(C.Witnesses.empty());
  C.Witnesses.front().Budget.OmegaMaxSteps += 1;
  EXPECT_FALSE(revalidateCertificate(C, SafetyChecker::Options{}));
}

TEST(CertStore, UnwritableDirectoryCountsWriteFailuresAndStaysCold) {
  // A store rooted at a path that exists as a *file* can neither be
  // created nor written: every check must still complete cold and the
  // failures must be counted, not thrown.
  TempStore T("unwritable");
  {
    std::ofstream Block(T.Dir); // Occupy the path with a regular file.
    Block << "not a directory";
  }
  CertStore Store(T.Dir);
  const CorpusProgram &P = corpusProgram("Sum");
  CheckReport R = runWithStore(P, &Store);
  EXPECT_TRUE(R.Safe);
  EXPECT_EQ(Store.stats().Hits, 0u);
  EXPECT_GE(Store.stats().WriteFailures, 1u);
}

TEST(CertStore, ConcurrentWritersOfTheSameKeyNeverCorruptTheStore) {
  // The save path writes to a unique temp file and renames into place.
  // Before temp names carried a pid+serial, every writer of a key shared
  // ONE temp path — concurrent saves interleaved their writes into it
  // and the rename could publish a spliced certificate. Hammer one key
  // from many threads, then prove the store replays a clean report.
  TempStore T("race");
  const CorpusProgram &P = corpusProgram("Sum");

  const unsigned NThreads = 8;
  const unsigned Rounds = 16;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NThreads; ++I)
    Threads.emplace_back([&] {
      // Each thread has its own CertStore over the SAME directory — the
      // daemon's many-workers-one-store shape, plus the multi-process
      // shape (separate stat counters, shared files).
      CertStore Store(T.Dir);
      for (unsigned R = 0; R < Rounds; ++R) {
        // Delete the published certificates (keeping the directory) so
        // every round goes cold and races its save against the others.
        std::error_code Ec;
        for (const auto &E :
             std::filesystem::directory_iterator(T.Dir, Ec))
          if (E.path().extension() == ".mcert")
            std::filesystem::remove(E.path(), Ec);
        CheckReport Rep = runWithStore(P, &Store);
        EXPECT_EQ(Rep.Verdict, CheckVerdict::Safe);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  // No temp-file droppings survive the stampede...
  if (std::filesystem::exists(T.Dir)) {
    for (const auto &E : std::filesystem::directory_iterator(T.Dir))
      EXPECT_EQ(E.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leftover temp file: " << E.path();
  }

  // ...and whatever certificate won the last rename is whole: a warm
  // run replays the cold fingerprint exactly.
  CertStore Fresh(T.Dir);
  CheckReport Cold = runWithStore(P, &Fresh);
  CheckReport Warm = runWithStore(P, &Fresh);
  EXPECT_EQ(Fresh.stats().Corrupt, 0u);
  EXPECT_EQ(reportFingerprint(Cold), reportFingerprint(Warm));
}

TEST(CertStore, WarmHitPublishesTheColdRunsWorkCounters) {
  TempStore T("counters");
  CertStore Store(T.Dir);
  const CorpusProgram &P = corpusProgram("BubbleSort");
  auto Run = [&](support::MetricsRegistry &Reg) {
    SafetyChecker::Options Opts;
    Opts.Certs = &Store;
    Opts.Metrics = &Reg;
    SafetyChecker(Opts).checkSource(P.Asm, P.Policy);
  };
  support::MetricsRegistry Cold, Warm;
  Run(Cold);
  Run(Warm);
  ASSERT_EQ(Store.stats().Hits, 1u);
  for (const char *Name : {"check/typestate/node_visits",
                           "check/prover/sat_queries",
                           "check/global/backsubst_steps"}) {
    EXPECT_GT(Cold.value(Name).value_or(0), 0) << Name;
    EXPECT_EQ(Warm.value(Name), Cold.value(Name)) << Name;
  }
  // Phase timers measured the cold run only.
  EXPECT_FALSE(Warm.value("check/phase/total_us").has_value());
}

TEST(CertStore, MetricsPublishCoversEveryCounter) {
  TempStore T("metrics");
  CertStore Store(T.Dir);
  const CorpusProgram &P = corpusProgram("Sum");
  runWithStore(P, &Store); // miss + write
  runWithStore(P, &Store); // hit
  support::MetricsRegistry Reg;
  Store.publish(Reg);
  EXPECT_EQ(Reg.value("cert/store/misses").value_or(-1), 1);
  EXPECT_EQ(Reg.value("cert/store/hits").value_or(-1), 1);
  EXPECT_EQ(Reg.value("cert/store/writes").value_or(-1), 1);
  EXPECT_EQ(Reg.value("cert/store/corrupt").value_or(-1), 0);
  EXPECT_EQ(Reg.value("cert/store/stale").value_or(-1), 0);
  EXPECT_EQ(Reg.value("cert/store/revalidate_failed").value_or(-1), 0);
  EXPECT_EQ(Reg.value("cert/store/write_failures").value_or(-1), 0);
}

} // namespace
