//===- AbstractStoreTest.cpp ----------------------------------------------===//

#include "typestate/AbstractStore.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace mcsafe;
using namespace mcsafe::typestate;
using namespace mcsafe::sparc;

namespace {

Typestate scalar(State S) {
  Typestate Ts;
  Ts.Type = TypeFactory::int32();
  Ts.S = std::move(S);
  Ts.A = Access::o();
  return Ts;
}

TEST(AbstractStore, TopBehaviour) {
  AbstractStore T = AbstractStore::top();
  EXPECT_TRUE(T.isTop());
  AbstractStore E = AbstractStore::empty();
  EXPECT_FALSE(E.isTop());
  // Top is the identity of meet.
  AbstractStore S = AbstractStore::empty();
  S.setReg(0, O0, scalar(State::initConst(5)));
  EXPECT_EQ(AbstractStore::meet(T, S), S);
  EXPECT_EQ(AbstractStore::meet(S, T), S);
}

TEST(AbstractStore, G0ReadsAsZeroAndIgnoresWrites) {
  AbstractStore S = AbstractStore::empty();
  EXPECT_EQ(S.reg(0, G0).S.constant(), 0);
  S.setReg(0, G0, scalar(State::initConst(42)));
  EXPECT_EQ(S.reg(0, G0).S.constant(), 0);
}

TEST(AbstractStore, UnsetEntriesAreDefault) {
  AbstractStore S = AbstractStore::empty();
  EXPECT_EQ(S.reg(0, O3), AbstractStore::defaultTypestate());
  EXPECT_EQ(S.loc(17), AbstractStore::defaultTypestate());
  EXPECT_TRUE(S.reg(0, O3).S.isBottom());
}

TEST(AbstractStore, SettingDefaultErases) {
  AbstractStore A = AbstractStore::empty();
  AbstractStore B = AbstractStore::empty();
  A.setReg(0, O1, scalar(State::init()));
  A.setReg(0, O1, AbstractStore::defaultTypestate());
  EXPECT_EQ(A, B); // Normalized maps compare equal.

  // Registers at any depth, icc and memory locations share one sorted
  // entry list; each leaves no trace when reset to the default.
  A.setReg(0, O2, scalar(State::initConst(1)));
  A.setReg(3, Reg(20), scalar(State::init()));
  A.setIcc(scalar(State::init()));
  A.setLoc(5, scalar(State::init()));
  A.setReg(3, Reg(20), AbstractStore::defaultTypestate());
  A.setIcc(AbstractStore::defaultTypestate());
  A.setLoc(5, AbstractStore::defaultTypestate());
  B.setReg(0, O2, scalar(State::initConst(1)));
  EXPECT_EQ(A, B);
  A.setReg(0, O2, AbstractStore::defaultTypestate());
  EXPECT_EQ(A, AbstractStore::empty());
  EXPECT_EQ(A.str(), "");
}

TEST(AbstractStore, GlobalsSharedAcrossDepths) {
  AbstractStore S = AbstractStore::empty();
  S.setReg(0, Reg(3), scalar(State::initConst(7)));
  EXPECT_EQ(S.reg(5, Reg(3)).S.constant(), 7);
  // Window registers are per-depth.
  S.setReg(0, O0, scalar(State::initConst(1)));
  EXPECT_TRUE(S.reg(1, O0).S.isBottom());
}

TEST(AbstractStore, MeetIsPointwise) {
  AbstractStore A = AbstractStore::empty();
  AbstractStore B = AbstractStore::empty();
  A.setReg(0, O0, scalar(State::initConst(1)));
  B.setReg(0, O0, scalar(State::initConst(1)));
  A.setReg(0, O1, scalar(State::init()));
  // O1 set only in A: meets with the bottom default.
  AbstractStore M = AbstractStore::meet(A, B);
  EXPECT_EQ(M.reg(0, O0).S.constant(), 1);
  EXPECT_TRUE(M.reg(0, O1).S.isBottom());

  // Overlapping key sets of every kind: each key of the union holds the
  // meet of its two sides (absent means default), and nothing else is
  // stored.
  const Typestate &Def = AbstractStore::defaultTypestate();
  AbstractStore P = AbstractStore::empty();
  AbstractStore Q = AbstractStore::empty();
  P.setReg(0, O0, scalar(State::initConst(1)));   // P only.
  P.setReg(0, O1, scalar(State::initRange(0, 4))); // Both.
  Q.setReg(0, O1, scalar(State::initRange(2, 9)));
  Q.setReg(0, O2, scalar(State::initConst(5)));   // Q only.
  P.setLoc(3, scalar(State::initConst(8)));       // Both, equal.
  Q.setLoc(3, scalar(State::initConst(8)));
  Q.setIcc(scalar(State::init()));                 // Q only.
  AbstractStore PQ = AbstractStore::meet(P, Q);
  EXPECT_EQ(PQ, AbstractStore::meet(Q, P));
  EXPECT_EQ(PQ.reg(0, O0), Typestate::meet(P.reg(0, O0), Def));
  EXPECT_EQ(PQ.reg(0, O1), Typestate::meet(P.reg(0, O1), Q.reg(0, O1)));
  EXPECT_EQ(PQ.reg(0, O2), Typestate::meet(Def, Q.reg(0, O2)));
  EXPECT_EQ(PQ.loc(3).S.constant(), 8);
  EXPECT_EQ(PQ.icc(), Typestate::meet(Def, Q.icc()));
  AbstractStore Expected = AbstractStore::empty();
  Expected.setReg(0, O0, PQ.reg(0, O0));
  Expected.setReg(0, O1, PQ.reg(0, O1));
  Expected.setReg(0, O2, PQ.reg(0, O2));
  Expected.setLoc(3, PQ.loc(3));
  Expected.setIcc(PQ.icc());
  EXPECT_EQ(PQ, Expected);

  // Disjoint key sets.
  AbstractStore C = AbstractStore::empty();
  AbstractStore D = AbstractStore::empty();
  C.setReg(0, L0, scalar(State::initConst(1)));
  D.setLoc(1, scalar(State::initConst(2)));
  AbstractStore CD = AbstractStore::meet(C, D);
  EXPECT_EQ(CD.reg(0, L0), Typestate::meet(C.reg(0, L0), Def));
  EXPECT_EQ(CD.loc(1), Typestate::meet(Def, D.loc(1)));
}

TEST(AbstractStore, IccOriginSurvivesEqualMeet) {
  AbstractStore A = AbstractStore::empty();
  AbstractStore B = AbstractStore::empty();
  AbstractStore::IccOrigin Origin{0, O0, 0};
  A.setIccOrigin(Origin);
  B.setIccOrigin(Origin);
  EXPECT_TRUE(AbstractStore::meet(A, B).iccOrigin().has_value());
  B.setIccOrigin(AbstractStore::IccOrigin{0, O1, 0});
  EXPECT_FALSE(AbstractStore::meet(A, B).iccOrigin().has_value());
}

TEST(AbstractStore, WideningDropsGrowingBounds) {
  AbstractStore Old = AbstractStore::empty();
  AbstractStore New = AbstractStore::empty();
  Old.setReg(0, O0, scalar(State::initRange(0, 4)));
  New.setReg(0, O0, scalar(State::initRange(0, 8))); // Upper grew.
  AbstractStore W = AbstractStore::widen(Old, New);
  EXPECT_EQ(W.reg(0, O0).S.lower(), 0);
  EXPECT_FALSE(W.reg(0, O0).S.upper().has_value());

  // A stable interval is untouched.
  New.setReg(0, O0, scalar(State::initRange(0, 4)));
  W = AbstractStore::widen(Old, New);
  EXPECT_EQ(W.reg(0, O0).S.upper(), 4);
}

TEST(AbstractStore, WideningDropsCounterBitsAboveTheLowestLostOne) {
  // A counter stepping by 16 from 0: after {0,16,32} comes {0,...,48}.
  // Its four low bits stay clear; bit 6 is the lowest bit it lost, so
  // every known bit above it goes in this one widening instead of one
  // bit per further iteration.
  using analysis::KnownBits;
  AbstractStore Old = AbstractStore::empty();
  AbstractStore New = AbstractStore::empty();
  Old.setReg(0, O0, scalar(State::initBits(KnownBits{~0x30u, 0}, 0, 32,
                                           /*Exact32=*/true)));
  New.setReg(0, O0, scalar(State::initBits(KnownBits{~0x70u, 0}, 0, 48,
                                           /*Exact32=*/true)));
  State W = AbstractStore::widen(Old, New).reg(0, O0).S;
  EXPECT_EQ(W.bits(), (KnownBits{0xFu, 0}));
  EXPECT_EQ(W.lower(), 0);
  EXPECT_FALSE(W.upper().has_value());
  EXPECT_TRUE(W.pattern32());
}

TEST(AbstractStore, WideningKeepsStableMaskBits) {
  // An and-mask with 1020 keeps bits 31..10 and 1..0 clear on every
  // iteration. Bits that did not move are untouched, even when the
  // interval beside them widens.
  using analysis::KnownBits;
  KnownBits Mask{~1020u, 0};
  AbstractStore Old = AbstractStore::empty();
  AbstractStore New = AbstractStore::empty();
  Old.setReg(0, O1, scalar(State::initBits(Mask, 0, 1020, true)));
  New.setReg(0, O1, scalar(State::initBits(Mask, 0, 1020, true)));
  EXPECT_EQ(AbstractStore::widen(Old, New), New);

  Old.setReg(0, O1, scalar(State::initBits(Mask, 0, 16, true)));
  New.setReg(0, O1, scalar(State::initBits(Mask, 0, 20, true)));
  State W = AbstractStore::widen(Old, New).reg(0, O1).S;
  EXPECT_EQ(W.bits(), Mask);
  EXPECT_FALSE(W.upper().has_value());
}

TEST(AbstractStore, WidenBitsLowestLostBitRule) {
  using analysis::KnownBits;
  // Nothing lost: New is returned as is.
  EXPECT_EQ(AbstractStore::widenBits({0xF0u, 0x0Fu}, {0xF0u, 0x0Fu}),
            (KnownBits{0xF0u, 0x0Fu}));
  // Bit 31 lost: no bit lies above it, so New is kept.
  EXPECT_EQ(AbstractStore::widenBits({0x80000000u, 1u}, {0, 1u}),
            (KnownBits{0, 1u}));
  // Bit 0 lost: everything above it goes.
  EXPECT_EQ(AbstractStore::widenBits(KnownBits::fromConstant(2),
                                     {~3u, 2u}),
            KnownBits::top());
  // A bit known with the other value counts as lost (bit 2 here).
  EXPECT_EQ(AbstractStore::widenBits(KnownBits::fromConstant(0),
                                     KnownBits::fromConstant(4)),
            (KnownBits{3u, 4u}));
}

TEST(AbstractStore, LocationsIndependentOfRegisters) {
  AbstractStore S = AbstractStore::empty();
  S.setLoc(3, scalar(State::init()));
  EXPECT_TRUE(S.loc(3).S.isInit());
  EXPECT_TRUE(S.reg(0, Reg(3)).S.isBottom());
}

TEST(AbstractStore, ForEachRegVisitsEntries) {
  AbstractStore S = AbstractStore::empty();
  S.setReg(0, O0, scalar(State::init()));
  S.setReg(2, L0, scalar(State::init()));
  S.setLoc(9, scalar(State::init()));
  unsigned Regs = 0, Locs = 0;
  S.forEachReg([&](int32_t Depth, Reg R, const Typestate &) {
    ++Regs;
    EXPECT_TRUE((Depth == 0 && R == O0) || (Depth == 2 && R == L0));
  });
  S.forEachLoc([&](AbsLocId Id, const Typestate &) {
    ++Locs;
    EXPECT_EQ(Id, 9u);
  });
  EXPECT_EQ(Regs, 2u);
  EXPECT_EQ(Locs, 1u);
}

TEST(AbstractStore, ForEachVisitsInAscendingKeyOrder) {
  AbstractStore S = AbstractStore::empty();
  // Inserted out of order, across depths, globals and locations.
  S.setReg(2, Reg(17), scalar(State::initConst(21)));
  S.setLoc(4, scalar(State::initConst(4)));
  S.setReg(0, O3, scalar(State::initConst(3)));
  S.setReg(1, I0, scalar(State::initConst(10)));
  S.setLoc(11, scalar(State::initConst(11)));
  S.setReg(0, Reg(2), scalar(State::initConst(2))); // %g2
  S.setLoc(0, scalar(State::initConst(0)));
  S.setReg(2, O0, scalar(State::initConst(20)));
  std::vector<std::pair<int32_t, unsigned>> Regs;
  S.forEachReg([&](int32_t Depth, Reg R, const Typestate &) {
    Regs.emplace_back(Depth, R.number());
  });
  std::vector<std::pair<int32_t, unsigned>> WantRegs = {
      {0, Reg(2).number()}, {0, O3.number()}, {1, I0.number()},
      {2, O0.number()},     {2, Reg(17).number()}};
  EXPECT_EQ(Regs, WantRegs);
  // Memory keys are -(2 + id): ascending keys visit descending ids.
  std::vector<AbsLocId> Locs;
  S.forEachLoc([&](AbsLocId Id, const Typestate &) { Locs.push_back(Id); });
  EXPECT_EQ(Locs, (std::vector<AbsLocId>{11, 4, 0}));
  // Every write is readable back through the flat representation.
  EXPECT_EQ(S.reg(2, Reg(17)).S.constant(), 21);
  EXPECT_EQ(S.loc(4).S.constant(), 4);
  EXPECT_EQ(S.reg(5, Reg(2)).S.constant(), 2);
}

TEST(AbstractStore, StrRendersDepthsAndNames) {
  AbstractStore S = AbstractStore::empty();
  S.setReg(1, L0, scalar(State::initConst(3)));
  std::string Out = S.str();
  EXPECT_NE(Out.find("w1.%l0"), std::string::npos);
  EXPECT_NE(Out.find("init(3)"), std::string::npos);
}

TEST(AbstractStore, PruneRegsNeverDropsIccOrMemory) {
  AbstractStore S = AbstractStore::empty();
  S.setReg(0, O0, scalar(State::initConst(1)));
  S.setReg(1, Reg(18), scalar(State::initConst(2)));
  S.setIcc(scalar(State::init()));
  S.setLoc(7, scalar(State::initConst(7)));
  unsigned Asked = 0;
  S.pruneRegs([&](int32_t Depth, Reg R, const Typestate &) {
    ++Asked;
    return Depth == 1 && R == Reg(18); // Keep only w1.%l2.
  });
  EXPECT_EQ(Asked, 2u); // Only register entries are offered.
  EXPECT_TRUE(S.reg(0, O0).S.isBottom());
  EXPECT_EQ(S.reg(1, Reg(18)).S.constant(), 2);
  EXPECT_TRUE(S.icc().S.isInit());
  EXPECT_EQ(S.loc(7).S.constant(), 7);
  S.pruneRegs([](int32_t, Reg, const Typestate &) { return false; });
  AbstractStore Want = AbstractStore::empty();
  Want.setIcc(scalar(State::init()));
  Want.setLoc(7, scalar(State::initConst(7)));
  EXPECT_EQ(S, Want);
}

} // namespace
