//===- KnownBitsFuzzTest.cpp - Soundness fuzzing for the bit domain -------===//
//
// Differential soundness check of every KnownBits transfer function
// against concrete 32-bit machine arithmetic: draw a random abstract
// input, draw random concrete patterns compatible with it, and require
// the abstract result to contain the concrete result. A deterministic
// seed keeps the suite reproducible; the CI sanitizer matrix runs this
// binary under UBSan, where the wrapping transfer arithmetic would trip
// any signed-overflow mistake.
//
//===----------------------------------------------------------------------===//

#include "analysis/KnownBits.h"
#include "sparc/Instruction.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

using namespace mcsafe;
using namespace mcsafe::analysis;

namespace {

constexpr int Trials = 10000;

/// A deterministic generator per test so failures replay exactly.
std::mt19937 rng() { return std::mt19937(0xC0FFEE); }

/// A random abstract element: every bit independently unknown / known
/// zero / known one, biased toward partial knowledge.
KnownBits randomBits(std::mt19937 &R) {
  uint32_t Known = static_cast<uint32_t>(R()) & static_cast<uint32_t>(R());
  uint32_t Value = static_cast<uint32_t>(R());
  return {Known & ~Value, Known & Value};
}

/// A random concrete pattern compatible with \p B.
uint32_t randomMember(std::mt19937 &R, KnownBits B) {
  uint32_t V = static_cast<uint32_t>(R());
  return (V & ~B.Zeros) | B.Ones;
}

/// Runs the containment check for one binary operation.
template <typename AbsFn, typename ConcFn>
void fuzzBinary(const char *Name, AbsFn Abs, ConcFn Conc) {
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits A = randomBits(R), B = randomBits(R);
    uint32_t X = randomMember(R, A), Y = randomMember(R, B);
    KnownBits Out = Abs(A, B);
    EXPECT_EQ(Out.Zeros & Out.Ones, 0u) << Name;
    ASSERT_TRUE(Out.contains(Conc(X, Y)))
        << Name << " A=" << A.str() << " B=" << B.str() << " X=" << X
        << " Y=" << Y << " out=" << Out.str();
  }
}

TEST(KnownBitsFuzz, And) {
  fuzzBinary("and", KnownBits::bitAnd,
             [](uint32_t X, uint32_t Y) { return X & Y; });
}
TEST(KnownBitsFuzz, Or) {
  fuzzBinary("or", KnownBits::bitOr,
             [](uint32_t X, uint32_t Y) { return X | Y; });
}
TEST(KnownBitsFuzz, Xor) {
  fuzzBinary("xor", KnownBits::bitXor,
             [](uint32_t X, uint32_t Y) { return X ^ Y; });
}
TEST(KnownBitsFuzz, AndNot) {
  fuzzBinary("andn", KnownBits::bitAndNot,
             [](uint32_t X, uint32_t Y) { return X & ~Y; });
}
TEST(KnownBitsFuzz, OrNot) {
  fuzzBinary("orn", KnownBits::bitOrNot,
             [](uint32_t X, uint32_t Y) { return X | ~Y; });
}
TEST(KnownBitsFuzz, Xnor) {
  fuzzBinary("xnor", KnownBits::bitXnor,
             [](uint32_t X, uint32_t Y) { return ~(X ^ Y); });
}
TEST(KnownBitsFuzz, Add) {
  fuzzBinary("add", KnownBits::add,
             [](uint32_t X, uint32_t Y) { return X + Y; });
}
TEST(KnownBitsFuzz, Sub) {
  fuzzBinary("sub", KnownBits::sub,
             [](uint32_t X, uint32_t Y) { return X - Y; });
}

TEST(KnownBitsFuzz, Not) {
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits A = randomBits(R);
    uint32_t X = randomMember(R, A);
    ASSERT_TRUE(KnownBits::bitNot(A).contains(~X));
  }
}

// Shifts: the count operand is itself abstract, and the machine consumes
// only its low five bits (sparc::shiftCount) — fuzz counts well past 32
// to pin the interpreter/transfer agreement (the satellite regression:
// both sides must mask in the same place).
TEST(KnownBitsFuzz, Shl) {
  fuzzBinary("sll", KnownBits::shl, [](uint32_t X, uint32_t Y) {
    return X << sparc::shiftCount(Y);
  });
}
TEST(KnownBitsFuzz, Lshr) {
  fuzzBinary("srl", KnownBits::lshr, [](uint32_t X, uint32_t Y) {
    return X >> sparc::shiftCount(Y);
  });
}
TEST(KnownBitsFuzz, Ashr) {
  fuzzBinary("sra", KnownBits::ashr, [](uint32_t X, uint32_t Y) {
    return static_cast<uint32_t>(static_cast<int32_t>(X) >>
                                 sparc::shiftCount(Y));
  });
}

// Oversized constant shift counts, exhaustively: a count of 33 behaves
// as 1 on the machine and must do so in the transfer functions too.
TEST(KnownBitsFuzz, OversizedShiftCountsMatchMachine) {
  std::mt19937 R = rng();
  for (int Count = 32; Count < 64; ++Count) {
    KnownBits C = KnownBits::fromConstant(static_cast<uint32_t>(Count));
    for (int I = 0; I < 64; ++I) {
      uint32_t X = static_cast<uint32_t>(R());
      KnownBits A = KnownBits::fromConstant(X);
      unsigned Eff = sparc::shiftCount(Count);
      EXPECT_EQ(KnownBits::shl(A, C).constant(), X << Eff);
      EXPECT_EQ(KnownBits::lshr(A, C).constant(), X >> Eff);
      EXPECT_EQ(KnownBits::ashr(A, C).constant(),
                static_cast<uint32_t>(static_cast<int32_t>(X) >> Eff));
    }
  }
}

// --- Lattice sanity under fuzzing. ---------------------------------------

TEST(KnownBitsFuzz, MeetContainsBothSides) {
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits A = randomBits(R), B = randomBits(R);
    KnownBits M = KnownBits::meet(A, B);
    EXPECT_TRUE(M.contains(randomMember(R, A)));
    EXPECT_TRUE(M.contains(randomMember(R, B)));
    EXPECT_TRUE(A.refines(M));
    EXPECT_TRUE(B.refines(M));
  }
}

TEST(KnownBitsFuzz, ResidueAndAlignment) {
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits A = randomBits(R);
    uint32_t X = randomMember(R, A);
    unsigned K = A.lowKnown();
    if (K < 32) {
      EXPECT_EQ(X & ((1u << K) - 1u), A.residue());
    }
    EXPECT_EQ(X % (1u << std::min(A.alignLog2(), 31u)), 0u);
  }
}

// --- crossRefine properties. ---------------------------------------------

/// A random interval that contains \p V, sometimes unbounded on either
/// side.
void randomInterval(std::mt19937 &R, int64_t V, std::optional<int64_t> &Lo,
                    std::optional<int64_t> &Hi) {
  Lo = Hi = std::nullopt;
  if (R() & 1)
    Lo = V - static_cast<int64_t>(R() % 4096);
  if (R() & 1)
    Hi = V + static_cast<int64_t>(R() % 4096);
}

TEST(KnownBitsFuzz, CrossRefineSound) {
  // Any value in the concretization of (Bits, [Lo, Hi]) stays inside the
  // refined fact. With Exact32 the value is the signed reading of a
  // compatible pattern; without it we only test nonnegative values,
  // where pattern == value.
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits B = randomBits(R);
    bool Exact32 = R() & 1;
    uint32_t Pat = randomMember(R, B);
    int64_t V = Exact32 ? static_cast<int64_t>(static_cast<int32_t>(Pat))
                        : static_cast<int64_t>(Pat & 0x7FFFFFFFu);
    if (!Exact32)
      Pat &= 0x7FFFFFFFu;
    if (!B.contains(Pat))
      continue; // Clearing bit 31 may conflict with a known one.
    std::optional<int64_t> Lo, Hi;
    randomInterval(R, V, Lo, Hi);
    BitsRange Out = crossRefine(B, Lo, Hi, Exact32);
    ASSERT_FALSE(Out.Contradiction)
        << B.str() << " V=" << V << " exact=" << Exact32;
    EXPECT_TRUE(Out.Bits.contains(Pat));
    if (Out.Lo) {
      EXPECT_LE(*Out.Lo, V);
    }
    if (Out.Hi) {
      EXPECT_GE(*Out.Hi, V);
    }
  }
}

TEST(KnownBitsFuzz, CrossRefineIdempotent) {
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits B = randomBits(R);
    uint32_t Pat = randomMember(R, B);
    std::optional<int64_t> Lo, Hi;
    randomInterval(R, static_cast<int64_t>(Pat & 0x7FFFFFFFu), Lo, Hi);
    bool Exact32 = R() & 1;
    BitsRange One = crossRefine(B, Lo, Hi, Exact32);
    if (One.Contradiction)
      continue;
    BitsRange Two = crossRefine(One.Bits, One.Lo, One.Hi, Exact32);
    EXPECT_FALSE(Two.Contradiction);
    EXPECT_EQ(Two.Bits, One.Bits);
    EXPECT_EQ(Two.Lo, One.Lo);
    EXPECT_EQ(Two.Hi, One.Hi);
  }
}

TEST(KnownBitsFuzz, CrossRefineMonotone) {
  // Refinement never loses information: the result refines the input
  // bits, and the bounds only tighten.
  std::mt19937 R = rng();
  for (int I = 0; I < Trials; ++I) {
    KnownBits B = randomBits(R);
    std::optional<int64_t> Lo, Hi;
    randomInterval(R, static_cast<int64_t>(randomMember(R, B)), Lo, Hi);
    if (Lo && Hi && *Lo > *Hi)
      continue;
    BitsRange Out = crossRefine(B, Lo, Hi, R() & 1);
    if (Out.Contradiction)
      continue;
    EXPECT_TRUE(Out.Bits.refines(B));
    if (Lo) {
      ASSERT_TRUE(Out.Lo.has_value());
      EXPECT_GE(*Out.Lo, *Lo);
    }
    if (Hi) {
      ASSERT_TRUE(Out.Hi.has_value());
      EXPECT_LE(*Out.Hi, *Hi);
    }
  }
}

TEST(KnownBitsFuzz, CrossRefineDistrustsExact32OutsideInt32) {
  // An interval entirely past INT32_MAX cannot be the signed reading of
  // any 32-bit pattern — the Exact32 claim and the interval disagree
  // about what the value is (an unwrapped producer bound). The claim is
  // dropped and the facts returned unrefined; clamping them together
  // would fabricate an unreachability witness for a reachable point.
  KnownBits B{/*Zeros=*/3u, /*Ones=*/0x80000000u}; // sign bit known one
  BitsRange Out = crossRefine(B, int64_t(1) << 31,
                              (int64_t(1) << 31) + 12, /*Exact32=*/true);
  EXPECT_FALSE(Out.Contradiction);
  EXPECT_EQ(Out.Lo, int64_t(1) << 31);
  EXPECT_EQ(Out.Hi, (int64_t(1) << 31) + 12);
  EXPECT_EQ(Out.Bits, B);
}

TEST(KnownBitsFuzz, CrossRefineDetectsEmptyConcretization) {
  // Bounds incompatible with the known residue: x == 2 mod 4 has no
  // member in [4, 5].
  KnownBits B{~2u & 3u, 2u}; // low two bits known "10"
  BitsRange Out = crossRefine(B, 4, 5, /*Exact32=*/true);
  EXPECT_TRUE(Out.Contradiction);
}

} // namespace
