//===- SafetyFeaturesTest.cpp - End-to-end coverage of safety conditions --===//
//
// Exercises the default safety conditions of Section 2 one by one —
// array bounds, alignment, uninitialized uses, null dereferences, stack
// discipline — plus frame annotations, trusted-call checking, and the
// machine-word (decoded binary) front end.
//
//===----------------------------------------------------------------------===//

#include "checker/SafetyChecker.h"
#include "corpus/Corpus.h"
#include "policy/PolicyParser.h"
#include "sparc/AsmParser.h"
#include "sparc/Encoding.h"

#include <gtest/gtest.h>

#include <string>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

const char *ArrayRwPolicy = R"(
loc e : int32 state=init summary
loc arr : int32[n] state={e}
region V { arr, e }
allow V : int32 : r,w,o
allow V : int32[n] : r,f,o
invoke %o0 = arr
invoke %o1 = n
constraint n >= 1
)";

CheckReport check(const char *Asm, const char *Policy = ArrayRwPolicy) {
  SafetyChecker Checker;
  return Checker.checkSource(Asm, Policy);
}

TEST(SafetyFeatures, OffByOneUpperBoundCaught) {
  // Loops to i <= n instead of i < n.
  CheckReport R = check(R"(
  clr %g3
loop:
  cmp %g3,%o1
  bg done          ! i > n exits: one iteration too many
  nop
  sll %g3,2,%g2
  ld [%o0+%g2],%g1
  inc %g3
  ba loop
  nop
done:
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::ArrayBounds), 1u);
}

TEST(SafetyFeatures, NegativeIndexCaught) {
  CheckReport R = check(R"(
  mov -4,%g2
  ld [%o0+%g2],%g1
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::ArrayBounds), 1u);
}

TEST(SafetyFeatures, MisalignedIndexCaught) {
  // Index 2 is within bounds for n >= 1 but not 4-aligned.
  CheckReport R = check(R"(
  mov 2,%g2
  ld [%o0+%g2],%g1
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::Alignment), 1u);
}

TEST(SafetyFeatures, BranchOnUninitializedConditionCodes) {
  CheckReport R = check(R"(
  bl 4
  nop
  clr %o0
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::UninitializedUse), 1u);
}

TEST(SafetyFeatures, StoringUninitializedValueCaught) {
  CheckReport R = check(R"(
  st %l5,[%o0]
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::UninitializedUse), 1u);
}

TEST(SafetyFeatures, WidthMismatchedAccessRejected) {
  // A byte load from an int32 array element does not resolve.
  CheckReport R = check(R"(
  ldub [%o0],%g1
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::TypeError), 1u);
}

TEST(SafetyFeatures, ForgedPointerRejected) {
  // Building an address from an integer constant and dereferencing it.
  CheckReport R = check(R"(
  set 0x40000,%g1
  ld [%g1],%o0
  retl
  nop
)");
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  // The base is not a valid pointer: not followable.
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::UninitializedUse) +
                R.Diags.countOfKind(SafetyKind::TypeError),
            1u);
}

TEST(SafetyFeatures, DivisionByZeroObligation) {
  const char *Policy = R"(
invoke %o0 = a
invoke %o1 = b
constraint b >= 1
)";
  CheckReport R = check(R"(
  sdiv %o0,%o1,%o2
  retl
  nop
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str(); // b >= 1 proves b != 0.

  const char *NoConstraint = R"(
invoke %o0 = a
invoke %o1 = b
)";
  CheckReport R2 = check(R"(
  sdiv %o0,%o1,%o2
  retl
  nop
)", NoConstraint);
  EXPECT_FALSE(R2.Safe); // b could be zero.
}

TEST(SafetyFeatures, AnnotatedFrameVerifies) {
  // A function with a local array, annotated per the paper's requirement
  // ("we have to annotate the stackframes for the functions that use
  // local arrays").
  const char *Policy = R"(
struct fr { buf: int32 @0 x 8; n: int32 @32 } size 96 align 8
frame 1 : fr
)";
  CheckReport R = check(R"(
  save %sp,-96,%sp
  add %sp,0,%l1    ! buf base
  clr %l0
loop:
  cmp %l0,8
  bge done
  nop
  sll %l0,2,%g2
  st %l0,[%l1+%g2]
  inc %l0
  ba loop
  nop
done:
  st %l0,[%sp+32]
  ret
  restore
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();
}

TEST(SafetyFeatures, FrameOverflowCaught) {
  const char *Policy = R"(
struct fr { buf: int32 @0 x 8; n: int32 @32 } size 96 align 8
frame 1 : fr
)";
  CheckReport R = check(R"(
  save %sp,-96,%sp
  add %sp,0,%l1
  clr %l0
loop:
  cmp %l0,9        ! one past the embedded array
  bge done
  nop
  sll %l0,2,%g2
  st %l0,[%l1+%g2]
  inc %l0
  ba loop
  nop
done:
  ret
  restore
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
  EXPECT_GE(R.Diags.countOfKind(SafetyKind::ArrayBounds), 1u);
}

TEST(SafetyFeatures, UnannotatedFrameAccessRejected) {
  // Without a frame annotation, stack accesses do not resolve.
  const char *Policy = "constraint 1 >= 0\n";
  CheckReport R = check(R"(
  save %sp,-96,%sp
  st %g0,[%sp+0]
  ret
  restore
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_FALSE(R.Safe);
}

TEST(SafetyFeatures, FpRelativeFrameAccess) {
  // %fp = old %sp points one-past-the-end of the callee frame; the
  // annotation covers [%fp-96, %fp).
  const char *Policy = R"(
struct fr { pad: int32 @0 x 22; x: int32 @88; y: int32 @92 } size 96 align 8
frame 1 : fr
invoke %sp = sp0
)";
  CheckReport R = check(R"(
  save %sp,-96,%sp
  st %g0,[%fp-8]   ! fr.x at offset 96-8 = 88
  st %g0,[%fp-4]   ! fr.y at 92
  ret
  restore
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();
}

TEST(SafetyFeatures, CheckingDecodedMachineWords) {
  // The checker consumes decoded binaries identically to assembled text:
  // encode the array-sum module, decode it, and check the result.
  std::string Error;
  std::optional<sparc::Module> M = sparc::assemble(R"(
  mov %o0,%o2
  clr %o0
  cmp %o0,%o1
  bge 12
  clr %g3
  sll %g3,2,%g2
  ld [%o2+%g2],%g2
  inc %g3
  cmp %g3,%o1
  bl 6
  add %o0,%g2,%o0
  retl
  nop
)", &Error);
  ASSERT_TRUE(M.has_value()) << Error;
  std::optional<std::vector<uint32_t>> Words = sparc::encodeModule(*M);
  ASSERT_TRUE(Words.has_value());
  std::optional<sparc::Module> Decoded = sparc::decodeModule(*Words);
  ASSERT_TRUE(Decoded.has_value());
  std::optional<policy::Policy> Pol = policy::parsePolicy(ArrayRwPolicy);
  ASSERT_TRUE(Pol.has_value());
  SafetyChecker Checker;
  CheckReport R = Checker.check(*Decoded, *Pol);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();
}

TEST(SafetyFeatures, ByteArrayAccessUsesByteAlignment) {
  const char *Policy = R"(
loc be : uint8 state=init summary
loc buf : uint8[n] state={be}
region V { buf, be }
allow V : uint8 : r,o
allow V : uint8[n] : r,f,o
invoke %o0 = buf
invoke %o1 = n
constraint n >= 1
)";
  // Byte loads need no alignment; any index below n works.
  CheckReport R = check(R"(
  clr %g3
loop:
  cmp %g3,%o1
  bge done
  nop
  ldub [%o0+%g3],%g1
  inc %g3
  ba loop
  nop
done:
  retl
  nop
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();
}

TEST(SafetyFeatures, IntervalBoundsAvoidSynthesis) {
  // With a literal bound established by a clamp, the interval analysis
  // discharges the checks without induction-iteration.
  const char *Policy = R"(
loc e : int32 state=init summary
loc arr : int32[16] state={e}
region V { arr, e }
allow V : int32 : r,w,o
allow V : int32[16] : r,f,o
invoke %o0 = arr
invoke %o1 = k
)";
  CheckReport R = check(R"(
  tst %o1
  ble out
  nop
  cmp %o1,16
  ble ok
  nop
  mov 16,%o1
ok:
  clr %g3
loop:
  cmp %g3,%o1
  bge out
  nop
  sll %g3,2,%g2
  st %g3,[%o0+%g2]
  inc %g3
  ba loop
  nop
out:
  retl
  nop
)", Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();
}

TEST(SafetyFeatures, ReportCountsPhases) {
  support::MetricsRegistry Reg;
  SafetyChecker::Options Opts;
  Opts.Metrics = &Reg;
  Opts.MetricScope = "program/T";
  SafetyChecker Checker(Opts);
  CheckReport R = Checker.checkSource(R"(
  clr %g3
  cmp %g3,%o1
  bge 7
  nop
  sll %g3,2,%g2
  ld [%o0+%g2],%g1
  retl
  nop
)", ArrayRwPolicy);
  ASSERT_TRUE(R.InputsOk);
  EXPECT_GT(R.LocalChecks, 0u);
  EXPECT_GT(R.ProverStats.SatQueries, 0u);
  EXPECT_EQ(R.Chars.Instructions, 8u);
  // Wall-clock data goes to the registry, not the report: every phase
  // that ran published a microsecond counter under the check's scope.
  for (const char *Phase :
       {"prepare", "lint", "typestate", "annotation", "global", "total"})
    EXPECT_TRUE(Reg.value(std::string("program/T/phase/") + Phase + "_us")
                    .has_value())
        << Phase;
  EXPECT_GT(*Reg.value("program/T/prover/sat_queries"), 0);
}

//===----------------------------------------------------------------------===//
// The known-bits / alignment domain.
//===----------------------------------------------------------------------===//

TEST(SafetyFeatures, SfiCorpusNeedsKnownBitsDomain) {
  // The SFI mask idioms are the differential the domain exists for:
  // SAFE with it (the default), not provable without. SfiShift's bound
  // survives through the interval domain, so it stays SAFE either way.
  // SfiMaskLoop also pins where bits widen: widened at every node visited
  // often enough, not only at loop heads, the lowest-lost-bit rule drops
  // the re-mask's clear bits inside the loop body and it turns UNSAFE.
  SafetyChecker::Options Off;
  Off.KnownBits = false;
  for (const char *Name :
       {"SfiMask", "SfiMaskLoop", "SfiAndn", "SfiSethi", "SfiHalfword"}) {
    const corpus::CorpusProgram &P = corpus::corpusProgram(Name);
    EXPECT_TRUE(SafetyChecker().checkSource(P.Asm, P.Policy).Safe) << Name;
    EXPECT_FALSE(SafetyChecker(Off).checkSource(P.Asm, P.Policy).Safe)
        << Name;
  }
  const corpus::CorpusProgram &Shift = corpus::corpusProgram("SfiShift");
  EXPECT_TRUE(SafetyChecker().checkSource(Shift.Asm, Shift.Policy).Safe);
  EXPECT_TRUE(SafetyChecker(Off).checkSource(Shift.Asm, Shift.Policy).Safe);
}

TEST(SafetyFeatures, LoopCarriedMaskSurvivesBitWidening) {
  // off = (off + 4) & 1020 carried around a counted loop and used at the
  // loop head. Widening there drops off's growing upper bound; the bits
  // the mask clears (31..10, 1..0) did not move, so they survive the
  // widening, and the post-widen cross-refinement rederives off <= 1020
  // from them. Without that rederivation the access is unprovable.
  const char *Asm = R"(
  clr %o1            ! off = 0
  clr %g3            ! i = 0
loop:
  ld [%o0+%o1],%g1
  add %o1,4,%o1      ! off = (off + 4) & 1020
  and %o1,1020,%o1
  inc %g3
  cmp %g3,%o3
  bl loop
  nop
  retl
  nop
)";
  const char *Policy = R"(
loc e : int32 state=init summary
loc buf : int32[256] state={e}
region V { buf, e }
allow V : int32 : r,w,o
allow V : int32[256] : r,w,f,o
invoke %o0 = buf
invoke %o3 = n
constraint n >= 1
)";
  CheckReport R = SafetyChecker().checkSource(Asm, Policy);
  ASSERT_TRUE(R.InputsOk) << R.Diags.str();
  EXPECT_TRUE(R.Safe) << R.Diags.str();

  SafetyChecker::Options Off;
  Off.KnownBits = false;
  EXPECT_FALSE(SafetyChecker(Off).checkSource(Asm, Policy).Safe);
}

TEST(SafetyFeatures, MisalignedGuardRejectedByLintAndProver) {
  // The broken guard is caught twice over: the phase-0 lint proves the
  // misalignment on every path, and with the lint disabled the phase-5
  // prover refutes the alignment obligation.
  const corpus::CorpusProgram &P = corpus::corpusProgram("SfiUnaligned");
  CheckReport R = SafetyChecker().checkSource(P.Asm, P.Policy);
  EXPECT_FALSE(R.Safe);
  EXPECT_TRUE(R.LintRejected);
  EXPECT_EQ(R.Chars.MisalignedAccesses, 1u);

  SafetyChecker::Options NoLint;
  NoLint.Lint = NoLint.LintReject = NoLint.PruneDeadRegs = false;
  CheckReport R2 = SafetyChecker(NoLint).checkSource(P.Asm, P.Policy);
  EXPECT_FALSE(R2.Safe);
  EXPECT_FALSE(R2.LintRejected);
}

TEST(SafetyFeatures, CongruenceTierCountersPublished) {
  // Alignment obligations from an and-masked access are divisibility
  // atoms, which the congruence pre-solver tier answers; its counters
  // surface through the metrics registry (and the driver's
  // --phase-table / --metrics-json).
  support::MetricsRegistry Reg;
  SafetyChecker::Options Opts;
  Opts.Metrics = &Reg;
  Opts.MetricScope = "program/S";
  const corpus::CorpusProgram &P = corpus::corpusProgram("SfiMask");
  CheckReport R = SafetyChecker(Opts).checkSource(P.Asm, P.Policy);
  ASSERT_TRUE(R.Safe);
  auto Hits = Reg.value("program/S/prover/tier/congruence/hits");
  auto Misses = Reg.value("program/S/prover/tier/congruence/misses");
  ASSERT_TRUE(Hits.has_value());
  ASSERT_TRUE(Misses.has_value());
  EXPECT_GT(*Hits, 0);
}

} // namespace
