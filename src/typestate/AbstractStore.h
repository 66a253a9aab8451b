//===- AbstractStore.h - Map from abstract locations to typestates -*-C++-*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract store M: absLoc -> typestate (paper Section 4.2). A store
/// covers:
///   - the 32 integer registers, keyed per register-window depth (window
///     depths are static after CFG normalization, so save/restore are
///     exact renamings; globals are shared across depths);
///   - the integer condition codes (icc), treated as one location;
///   - the memory abstract locations of the LocationTable.
///
/// A store is either Top (unvisited program point, the identity of meet)
/// or a finite map whose absent entries default to <bottom_t, bottom_s,
/// no-access> — the paper's initial typestate for unannotated locations.
/// %g0 always reads as the initialized constant 0.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_TYPESTATE_ABSTRACTSTORE_H
#define MCSAFE_TYPESTATE_ABSTRACTSTORE_H

#include "sparc/Registers.h"
#include "typestate/Typestate.h"

#include <utility>
#include <vector>

namespace mcsafe {
namespace typestate {

/// An abstract store; value-semantic and comparable (for the fixpoint).
class AbstractStore {
public:
  /// The Top store: unvisited program point.
  static AbstractStore top() { return AbstractStore(true); }
  /// An empty (visited) store with every location at the default
  /// <bottom_t, bottom_s, no-access> typestate.
  static AbstractStore empty() { return AbstractStore(false); }

  bool isTop() const { return Top; }

  /// The default typestate of unmentioned locations.
  static const Typestate &defaultTypestate();

  // --- Registers (per window depth; globals shared). ----------------------

  Typestate reg(int32_t Depth, sparc::Reg R) const;
  void setReg(int32_t Depth, sparc::Reg R, Typestate Ts);

  // --- Condition codes. ----------------------------------------------------

  Typestate icc() const;
  void setIcc(Typestate Ts);

  /// When the condition codes were last set by "cmp R, imm" (subcc with a
  /// %g0 destination against an immediate or %g0), records (depth, R,
  /// imm) so branch edges can refine R's typestate (e.g. drop "null" from
  /// a points-to set after a successful != 0 test).
  struct IccOrigin {
    int32_t Depth = 0;
    sparc::Reg R;
    int64_t Imm = 0;
    friend bool operator==(const IccOrigin &A, const IccOrigin &B) {
      return A.Depth == B.Depth && A.R == B.R && A.Imm == B.Imm;
    }
  };
  const std::optional<IccOrigin> &iccOrigin() const { return CmpOrigin; }
  void setIccOrigin(std::optional<IccOrigin> Origin) {
    CmpOrigin = std::move(Origin);
  }

  // --- Memory locations. ---------------------------------------------------

  Typestate loc(AbsLocId Id) const;
  void setLoc(AbsLocId Id, Typestate Ts);

  /// Pointwise meet. Top is the identity.
  static AbstractStore meet(const AbstractStore &A, const AbstractStore &B);

  /// Widening of \p New against \p Old, applied at loop heads: scalar
  /// interval bounds that moved outward are dropped entirely, and known
  /// bits widen by widenBits, so the descending fixpoint iteration
  /// stabilizes even for counting loops without a bit-per-iteration climb.
  static AbstractStore widen(const AbstractStore &Old,
                             const AbstractStore &New);

  /// The lowest-lost-bit rule: let p be the lowest bit position that \p Old
  /// knew and \p New no longer knows (or knows with the other value); the
  /// result is \p New without any known bit above p. Bits that did not
  /// move (e.g. an and-mask's clear bits) are kept exactly.
  static analysis::KnownBits widenBits(analysis::KnownBits Old,
                                       analysis::KnownBits New);

  /// Visits every explicitly-tracked register entry as
  /// fn(depth, reg, typestate), in ascending key order. \p F may set the
  /// visited register to a non-default typestate (an in-place overwrite),
  /// but must not add or remove entries.
  template <typename Fn> void forEachReg(Fn F) const {
    for (const auto &[K, Ts] : Entries)
      if (K >= 0)
        F(static_cast<int32_t>(K >> 8),
          sparc::Reg(static_cast<uint8_t>(K & 0xFF)), Ts);
  }

  /// Drops every explicitly-tracked register entry for which \p Keep
  /// returns false (icc and memory locations are never touched).
  /// Dropped entries read as the default typestate afterwards. Used to
  /// discard registers liveness proved dead.
  template <typename Fn> void pruneRegs(Fn Keep) {
    std::erase_if(Entries, [&Keep](const Entry &E) {
      return E.first >= 0 &&
             !Keep(static_cast<int32_t>(E.first >> 8),
                   sparc::Reg(static_cast<uint8_t>(E.first & 0xFF)),
                   E.second);
    });
  }

  /// Visits every explicitly-tracked memory location as fn(id, typestate),
  /// in ascending key order (descending AbsLocId).
  template <typename Fn> void forEachLoc(Fn F) const {
    for (const auto &[K, Ts] : Entries)
      if (K < -1)
        F(static_cast<AbsLocId>(-2 - K), Ts);
  }

  friend bool operator==(const AbstractStore &A, const AbstractStore &B) {
    return A.Top == B.Top && A.CmpOrigin == B.CmpOrigin &&
           A.Entries == B.Entries;
  }
  friend bool operator!=(const AbstractStore &A, const AbstractStore &B) {
    return !(A == B);
  }

  /// Debug rendering; register names include their depth when non-zero.
  std::string str(const LocationTable *Locs = nullptr) const;

private:
  explicit AbstractStore(bool Top) : Top(Top) {}

  /// Key space: registers are (depth << 8) | reg; icc is -1; memory
  /// locations are -(2 + AbsLocId).
  using Key = int64_t;
  static Key regKey(int32_t Depth, sparc::Reg R) {
    if (R.isGlobal())
      Depth = 0; // Globals are shared across windows.
    return (static_cast<int64_t>(Depth) << 8) | R.number();
  }
  static constexpr Key IccKey = -1;
  static Key locKey(AbsLocId Id) { return -2 - static_cast<Key>(Id); }

  using Entry = std::pair<Key, Typestate>;
  /// The first entry whose key is not below \p K.
  std::vector<Entry>::const_iterator lowerBound(Key K) const;

  Typestate get(Key K) const;
  void set(Key K, Typestate Ts);

  bool Top;
  /// Strictly ascending by key; default typestates are never stored, so
  /// equal stores have equal vectors. A flat vector copies in one
  /// allocation, and the fixpoint copies stores on every visit.
  std::vector<Entry> Entries;
  std::optional<IccOrigin> CmpOrigin;
};

} // namespace typestate
} // namespace mcsafe

#endif // MCSAFE_TYPESTATE_ABSTRACTSTORE_H
