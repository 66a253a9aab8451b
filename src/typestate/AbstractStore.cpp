//===- AbstractStore.cpp --------------------------------------------------===//

#include "typestate/AbstractStore.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

using namespace mcsafe;
using namespace mcsafe::typestate;

const Typestate &AbstractStore::defaultTypestate() {
  static const Typestate Default = [] {
    Typestate Ts;
    Ts.Type = TypeFactory::bottom();
    Ts.S = State::bottom();
    Ts.A = Access::none();
    return Ts;
  }();
  return Default;
}

std::vector<AbstractStore::Entry>::const_iterator
AbstractStore::lowerBound(Key K) const {
  return std::lower_bound(
      Entries.begin(), Entries.end(), K,
      [](const Entry &E, Key Wanted) { return E.first < Wanted; });
}

Typestate AbstractStore::get(Key K) const {
  assert(!Top && "reading from the Top store");
  auto It = lowerBound(K);
  return It == Entries.end() || It->first != K ? defaultTypestate()
                                                : It->second;
}

void AbstractStore::set(Key K, Typestate Ts) {
  assert(!Top && "writing to the Top store");
  auto It = Entries.begin() + (lowerBound(K) - Entries.cbegin());
  bool Present = It != Entries.end() && It->first == K;
  if (Ts == defaultTypestate()) {
    if (Present)
      Entries.erase(It); // Keep the store normalized for operator==.
    return;
  }
  if (Present)
    It->second = std::move(Ts);
  else
    Entries.emplace(It, K, std::move(Ts));
}

Typestate AbstractStore::reg(int32_t Depth, sparc::Reg R) const {
  if (R.isZero()) {
    Typestate Zero;
    Zero.Type = TypeFactory::int32();
    Zero.S = State::initConst(0);
    Zero.A = Access::o();
    return Zero;
  }
  return get(regKey(Depth, R));
}

void AbstractStore::setReg(int32_t Depth, sparc::Reg R, Typestate Ts) {
  if (R.isZero())
    return; // Writes to %g0 are discarded.
  set(regKey(Depth, R), std::move(Ts));
}

Typestate AbstractStore::icc() const { return get(IccKey); }

void AbstractStore::setIcc(Typestate Ts) { set(IccKey, std::move(Ts)); }

Typestate AbstractStore::loc(AbsLocId Id) const { return get(locKey(Id)); }

void AbstractStore::setLoc(AbsLocId Id, Typestate Ts) {
  set(locKey(Id), std::move(Ts));
}

AbstractStore AbstractStore::meet(const AbstractStore &A,
                                  const AbstractStore &B) {
  if (A.Top)
    return B;
  if (B.Top)
    return A;
  AbstractStore Result = empty();
  if (A.CmpOrigin && B.CmpOrigin && *A.CmpOrigin == *B.CmpOrigin)
    Result.CmpOrigin = A.CmpOrigin;
  // Pointwise meet over the union of keys; absent entries are the default
  // typestate. Keys arrive ascending, so entries append in order.
  Result.Entries.reserve(std::max(A.Entries.size(), B.Entries.size()));
  auto ItA = A.Entries.begin(), ItB = B.Entries.begin();
  auto MeetInto = [&Result](Key K, const Typestate &X, const Typestate &Y) {
    Typestate M = Typestate::meet(X, Y);
    if (M != defaultTypestate())
      Result.Entries.emplace_back(K, std::move(M));
  };
  while (ItA != A.Entries.end() || ItB != B.Entries.end()) {
    if (ItB == B.Entries.end() ||
        (ItA != A.Entries.end() && ItA->first < ItB->first)) {
      MeetInto(ItA->first, ItA->second, defaultTypestate());
      ++ItA;
    } else if (ItA == A.Entries.end() || ItB->first < ItA->first) {
      MeetInto(ItB->first, defaultTypestate(), ItB->second);
      ++ItB;
    } else {
      MeetInto(ItA->first, ItA->second, ItB->second);
      ++ItA;
      ++ItB;
    }
  }
  return Result;
}

analysis::KnownBits AbstractStore::widenBits(analysis::KnownBits Old,
                                             analysis::KnownBits New) {
  // Bits Old knew that New no longer knows (or knows with the other
  // value). A counter loses its bits from the bottom of its carry chain
  // upward, one per iteration; dropping everything above the lowest lost
  // bit finishes that climb in one step, while a mask's stable bits (no
  // lost bit at all) survive untouched.
  uint32_t Lost = (Old.Zeros & ~New.Zeros) | (Old.Ones & ~New.Ones);
  if (Lost == 0)
    return New;
  int P = std::countr_zero(Lost);
  uint32_t Keep = static_cast<uint32_t>((uint64_t{2} << P) - 1);
  return {New.Zeros & Keep, New.Ones & Keep};
}

AbstractStore AbstractStore::widen(const AbstractStore &Old,
                                   const AbstractStore &New) {
  if (Old.Top || New.Top)
    return New;
  AbstractStore Result = New;
  for (auto &[K, Ts] : Result.Entries) {
    if (!Ts.S.isInit())
      continue;
    auto OldIt = Old.lowerBound(K);
    if (OldIt == Old.Entries.end() || OldIt->first != K ||
        !OldIt->second.S.isInit())
      continue;
    const State &OldS = OldIt->second.S;
    std::optional<int64_t> Lo = Ts.S.lower();
    std::optional<int64_t> Hi = Ts.S.upper();
    if (Lo && (!OldS.lower() || *Lo < *OldS.lower()))
      Lo = std::nullopt; // Still descending: drop to stabilize.
    if (Hi && (!OldS.upper() || *Hi > *OldS.upper()))
      Hi = std::nullopt;
    analysis::KnownBits Bits = widenBits(OldS.bits(), Ts.S.bits());
    // The checker rederives any bounds the surviving bits imply; see the
    // post-widen cross-refinement in Propagation.cpp.
    if (Lo != Ts.S.lower() || Hi != Ts.S.upper() || Bits != Ts.S.bits())
      Ts.S = State::initBits(Bits, Lo, Hi, Ts.S.pattern32());
  }
  return Result;
}

std::string AbstractStore::str(const LocationTable *Locs) const {
  if (Top)
    return "<top store>";
  std::ostringstream OS;
  for (const auto &[K, Ts] : Entries) {
    if (K == IccKey) {
      OS << "icc: ";
    } else if (K < -1) {
      AbsLocId Id = static_cast<AbsLocId>(-2 - K);
      if (Locs)
        OS << Locs->loc(Id).Name << ": ";
      else
        OS << "loc" << Id << ": ";
    } else {
      int32_t Depth = static_cast<int32_t>(K >> 8);
      sparc::Reg R(static_cast<uint8_t>(K & 0xFF));
      if (Depth != 0)
        OS << 'w' << Depth << '.';
      OS << R.name() << ": ";
    }
    OS << Ts.str(Locs) << '\n';
  }
  return OS.str();
}
