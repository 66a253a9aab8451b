//===- FailSoundnessTest.cpp ----------------------------------------------===//
//
// Fail-sound degradation: when a resource budget expires the checker
// must answer Unknown — never crash, never hang, and never claim Safe —
// while violations it has already found stand. Step-budget exhaustion
// must be deterministic.
//
//===----------------------------------------------------------------------===//

#include "checker/CheckContext.h"
#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"
#include "sparc/AsmParser.h"
#include "support/Governor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mcsafe;
using namespace mcsafe::checker;
using namespace mcsafe::corpus;

namespace {

std::vector<std::string> failureStrings(const CheckReport &R) {
  std::vector<std::string> S;
  for (const CheckFailure &F : R.Failures)
    S.push_back(F.str());
  return S;
}

TEST(FailSoundness, StepBudgetDegradesToUnknown) {
  const CorpusProgram &P = corpusProgram("Sum");
  SafetyChecker::Options Opts;
  Opts.Limits.ProverSteps = 2;
  SafetyChecker Checker(Opts);
  CheckReport R = Checker.checkSource(P.Asm, P.Policy);
  ASSERT_TRUE(R.InputsOk);
  EXPECT_FALSE(R.Safe);
  EXPECT_EQ(R.Verdict, CheckVerdict::Unknown);
  ASSERT_FALSE(R.Failures.empty());
  bool SawExhausted = false;
  for (const CheckFailure &F : R.Failures)
    SawExhausted |= F.Kind == FailureKind::ResourceExhausted;
  EXPECT_TRUE(SawExhausted);
}

TEST(FailSoundness, StepBudgetExhaustionIsDeterministic) {
  const CorpusProgram &P = corpusProgram("Hash");
  auto Run = [&] {
    SafetyChecker::Options Opts;
    Opts.Limits.ProverSteps = 7;
    SafetyChecker Checker(Opts);
    return Checker.checkSource(P.Asm, P.Policy);
  };
  CheckReport A = Run(), B = Run();
  EXPECT_EQ(A.Verdict, B.Verdict);
  EXPECT_EQ(failureStrings(A), failureStrings(B));
}

TEST(FailSoundness, NeverSafeUnderABudgetThatExpired) {
  // Whatever the budget, the verdict for a safe program is either SAFE
  // (budget sufficed) or UNKNOWN (it did not) — never UNSAFE, and SAFE
  // only without a resource failure on record.
  const CorpusProgram &P = corpusProgram("Sum");
  for (uint64_t Steps : {1, 3, 10, 50, 1000000}) {
    SafetyChecker::Options Opts;
    Opts.Limits.ProverSteps = Steps;
    SafetyChecker Checker(Opts);
    CheckReport R = Checker.checkSource(P.Asm, P.Policy);
    ASSERT_TRUE(R.InputsOk);
    EXPECT_NE(R.Verdict, CheckVerdict::Unsafe) << "steps=" << Steps;
    if (R.Verdict == CheckVerdict::Safe) {
      EXPECT_TRUE(R.Safe);
      for (const CheckFailure &F : R.Failures)
        EXPECT_NE(F.Kind, FailureKind::ResourceExhausted)
            << "steps=" << Steps << ": " << F.str();
    } else {
      EXPECT_EQ(R.Verdict, CheckVerdict::Unknown) << "steps=" << Steps;
      EXPECT_FALSE(R.Safe);
    }
  }
}

TEST(FailSoundness, ViolationsDominateExhaustion) {
  // A program with known violations must stay UNSAFE even when the
  // budget dies after the violations were found: "unsafe" is a sound
  // answer, discarding it for Unknown would lose information.
  const CorpusProgram &P = corpusProgram("StackSmashing");
  SafetyChecker::Options Full;
  SafetyChecker FullChecker(Full);
  CheckReport Baseline = FullChecker.checkSource(P.Asm, P.Policy);
  ASSERT_EQ(Baseline.Verdict, CheckVerdict::Unsafe);

  for (uint64_t Steps : {1, 5, 25, 100, 1000}) {
    SafetyChecker::Options Opts;
    Opts.Limits.ProverSteps = Steps;
    SafetyChecker Checker(Opts);
    CheckReport R = Checker.checkSource(P.Asm, P.Policy);
    ASSERT_TRUE(R.InputsOk);
    // Either the check got far enough to see a violation (Unsafe) or it
    // died first (Unknown) — but a Safe verdict would be unsound.
    EXPECT_NE(R.Verdict, CheckVerdict::Safe) << "steps=" << Steps;
    if (R.Diags.hasViolations()) {
      EXPECT_EQ(R.Verdict, CheckVerdict::Unsafe) << "steps=" << Steps;
    }
  }
}

TEST(FailSoundness, CancellationYieldsUnknown) {
  const CorpusProgram &P = corpusProgram("Sum");
  support::ResourceGovernor Gov;
  Gov.cancel("test/external");
  SafetyChecker::Options Opts;
  Opts.Governor = &Gov;
  SafetyChecker Checker(Opts);
  CheckReport R = Checker.checkSource(P.Asm, P.Policy);
  EXPECT_EQ(R.Verdict, CheckVerdict::Unknown);
  EXPECT_FALSE(R.Safe);
  ASSERT_FALSE(R.Failures.empty());
  bool SawCancelled = false;
  for (const CheckFailure &F : R.Failures)
    SawCancelled |= F.Kind == FailureKind::Cancelled;
  EXPECT_TRUE(SawCancelled);
}

TEST(FailSoundness, DeadlineOfOneMsNeitherCrashesNorClaimsSafeFalsely) {
  // The chaos-style deadline check: a 1ms deadline over the whole corpus
  // must produce only structured verdicts. SAFE is acceptable only when
  // the check actually completed (no resource failure recorded).
  for (const CorpusProgram &P : corpus::corpus()) {
    SafetyChecker::Options Opts;
    Opts.Limits.DeadlineMs = 1;
    SafetyChecker Checker(Opts);
    CheckReport R = Checker.checkSource(P.Asm, P.Policy);
    if (R.Verdict == CheckVerdict::Safe) {
      EXPECT_TRUE(P.ExpectSafe) << P.Name;
      for (const CheckFailure &F : R.Failures)
        EXPECT_NE(F.Kind, FailureKind::ResourceExhausted)
            << P.Name << ": " << F.str();
    }
  }
}

TEST(FailSoundness, FailSoftRecordsEveryUndecidedObligation) {
  const CorpusProgram &P = corpusProgram("Sum");
  SafetyChecker::Options Stop;
  Stop.Limits.ProverSteps = 1;
  SafetyChecker StopChecker(Stop);
  CheckReport StopR = StopChecker.checkSource(P.Asm, P.Policy);

  SafetyChecker::Options Soft;
  Soft.Limits.ProverSteps = 1;
  Soft.FailSoft = true;
  SafetyChecker SoftChecker(Soft);
  CheckReport SoftR = SoftChecker.checkSource(P.Asm, P.Policy);

  EXPECT_EQ(StopR.Verdict, CheckVerdict::Unknown);
  EXPECT_EQ(SoftR.Verdict, CheckVerdict::Unknown);
  // Fail-soft enumerates each undecided obligation individually instead
  // of one summary failure, so it records at least as many.
  EXPECT_GE(SoftR.Failures.size(), StopR.Failures.size());
}

TEST(FailSoundness, ExitCodesAreStable) {
  EXPECT_EQ(exitCode(CheckVerdict::Safe), 0);
  EXPECT_EQ(exitCode(CheckVerdict::Unsafe), 1);
  EXPECT_EQ(exitCode(CheckVerdict::MalformedInput), 2);
  EXPECT_EQ(exitCode(CheckVerdict::Unknown), 3);
  EXPECT_EQ(exitCode(CheckVerdict::InternalError), 4);
}

TEST(FailSoundness, PreparationRejectsUndeclaredInvocationLocation) {
  // Regression for an input-reachable assert: an InvocationBinding that
  // names an undeclared location used to hit
  // `assert(Id != InvalidLoc && "validated by the parser")` in
  // buildEntryStore. The parser does validate, but prepare() is a public
  // API — a policy built programmatically (or a future parser bug) must
  // get a diagnostic, not an abort.
  std::string Error;
  std::optional<sparc::Module> M = sparc::assemble("  retl\n  nop\n", &Error);
  ASSERT_TRUE(M.has_value()) << Error;
  for (policy::InvocationBinding::Kind K :
       {policy::InvocationBinding::Kind::ValueOfLoc,
        policy::InvocationBinding::Kind::AddressOfLoc}) {
    policy::Policy Pol;
    policy::InvocationBinding B;
    B.Reg = *sparc::parseReg("%o0");
    B.K = K;
    B.LocName = "no_such_loc";
    Pol.Invocation.push_back(B);
    DiagnosticEngine Diags;
    std::optional<CheckContext> Ctx = prepare(*M, Pol, Diags);
    EXPECT_FALSE(Ctx.has_value());
    EXPECT_TRUE(Diags.hasFatal());
    EXPECT_NE(Diags.str().find("no_such_loc"), std::string::npos)
        << Diags.str();
  }
}

TEST(FailSoundness, MalformedAssemblyIsAStructuredRejection) {
  SafetyChecker Checker;
  CheckReport R = Checker.checkSource("frobnicate %o0, %o1\n",
                                      "loc e : int32 state=init\n");
  EXPECT_FALSE(R.InputsOk);
  EXPECT_EQ(R.Verdict, CheckVerdict::MalformedInput);
  ASSERT_FALSE(R.Failures.empty());
  EXPECT_EQ(R.Failures.front().Phase, CheckPhase::Input);
  EXPECT_EQ(R.Failures.front().Kind, FailureKind::MalformedAssembly);
}

TEST(FailSoundness, MalformedPolicyIsAStructuredRejection) {
  SafetyChecker Checker;
  CheckReport R = Checker.checkSource("  retl\n  nop\n",
                                      "loc e : no_such_type\n");
  EXPECT_FALSE(R.InputsOk);
  EXPECT_EQ(R.Verdict, CheckVerdict::MalformedInput);
  ASSERT_FALSE(R.Failures.empty());
  EXPECT_EQ(R.Failures.front().Kind, FailureKind::MalformedPolicy);
}

} // namespace
