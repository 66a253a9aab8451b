//===- PreSolve.cpp -------------------------------------------------------===//

#include "constraints/PreSolve.h"

#include "support/CheckedInt.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

using namespace mcsafe;

//===----------------------------------------------------------------------===//
// Tier 0: constant folding
//===----------------------------------------------------------------------===//

std::optional<SatResult>
TieredSolver::constantFold(const std::vector<Constraint> &In,
                           std::vector<Constraint> &Live, bool &SawPoisoned) {
  Live.clear();
  Live.reserve(In.size());
  for (const Constraint &C : In) {
    if (C.isPoisoned()) {
      // Poisoned atoms force the Omega path, which answers Unknown.
      SawPoisoned = true;
      Live.push_back(C);
      continue;
    }
    if (std::optional<bool> Truth = C.constantTruth()) {
      if (!*Truth)
        return SatResult::Unsat; // One false conjunct decides everything.
      continue;                  // True conjuncts don't constrain.
    }
    Live.push_back(C);
  }
  if (Live.empty())
    return SatResult::Sat; // Every conjunct folded to true.
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Tier 1: congruence systems (EQ/DIV elimination + NDIV coset analysis)
//===----------------------------------------------------------------------===//

namespace {

/// One linear row, sum(Coef[v] * v) + Const, over "columns": non-negative
/// keys are constraint VarIds, negative keys are the fresh multiplier
/// variables minted for DIV atoms (d | e holds iff e + d*t = 0 has an
/// integer solution in t).
struct CongruenceRow {
  std::map<int64_t, int64_t> Coef;
  int64_t Const = 0;
};

/// Dst += Src * Scale, checked; false on overflow.
bool addScaledInto(CongruenceRow &Dst, const CongruenceRow &Src,
                   int64_t Scale) {
  for (const auto &[V, A] : Src.Coef) {
    std::optional<int64_t> SA = checkedMul(A, Scale);
    if (!SA)
      return false;
    std::optional<int64_t> Sum = checkedAdd(Dst.Coef[V], *SA);
    if (!Sum)
      return false;
    if (*Sum == 0)
      Dst.Coef.erase(V);
    else
      Dst.Coef[V] = *Sum;
  }
  std::optional<int64_t> SC = checkedMul(Src.Const, Scale);
  if (!SC)
    return false;
  std::optional<int64_t> NC = checkedAdd(Dst.Const, *SC);
  if (!NC)
    return false;
  Dst.Const = *NC;
  return true;
}

int64_t coefGcd(const CongruenceRow &R) {
  int64_t G = 0;
  for (const auto &[V, A] : R.Coef) {
    (void)V;
    G = gcdInt64(G, A);
  }
  return G;
}

} // namespace

std::optional<SatResult>
TieredSolver::solveCongruences(const std::vector<Constraint> &Conjuncts) {
  // Applicability: the conjunction carries at least one divisibility atom
  // (the shape the known-bits annotations emit). The EQ/DIV/NDIV atoms
  // form the subsystem this tier reasons about exactly; Unsat for the
  // subsystem refutes the whole conjunction, Sat is only claimed when the
  // subsystem IS the whole conjunction (no GE atoms).
  bool HasDivisibility = false, HasGE = false;
  for (const Constraint &C : Conjuncts) {
    if (C.kind() == ConstraintKind::DIV || C.kind() == ConstraintKind::NDIV)
      HasDivisibility = true;
    else if (C.kind() == ConstraintKind::GE)
      HasGE = true;
  }
  if (!HasDivisibility)
    return std::nullopt;

  auto toRow = [](const Constraint &C) {
    CongruenceRow R;
    for (const auto &[V, A] : C.expr().terms())
      R.Coef[static_cast<int64_t>(V.index())] = A;
    R.Const = C.expr().constantValue();
    return R;
  };

  std::vector<CongruenceRow> Rows;
  struct NdivAtom {
    CongruenceRow Row;
    int64_t D;
  };
  std::vector<NdivAtom> Ndivs;
  int64_t FreshKey = -1;
  for (const Constraint &C : Conjuncts) {
    switch (C.kind()) {
    case ConstraintKind::GE:
      break;
    case ConstraintKind::EQ:
      Rows.push_back(toRow(C));
      break;
    case ConstraintKind::DIV: {
      CongruenceRow R = toRow(C);
      R.Coef[FreshKey--] = C.modulus();
      Rows.push_back(R);
      break;
    }
    case ConstraintKind::NDIV:
      Ndivs.push_back({toRow(C), C.modulus()});
      break;
    }
  }

  // Triangularize the EQ/DIV system with unit pivots. Each step either
  // decides a row (gcd infeasibility => Unsat, trivial => drop), finds a
  // +/-1 pivot and substitutes it away, or declines. When the loop
  // drains without Unsat, every assignment of the remaining free columns
  // extends to a solution of the subsystem (back-substitution through
  // the discarded pivot rows).
  size_t Steps = 0;
  while (!Rows.empty()) {
    if (++Steps > 64)
      return std::nullopt; // Pathological system: not this tier's shape.
    CongruenceRow P = std::move(Rows.back());
    Rows.pop_back();
    int64_t G = coefGcd(P);
    if (G == 0) {
      if (P.Const != 0)
        return SatResult::Unsat;
      continue;
    }
    if (P.Const % G != 0)
      return SatResult::Unsat; // gcd test: no integer solution.
    if (G > 1) {
      for (auto &[V, A] : P.Coef)
        A /= G;
      P.Const /= G;
    }
    auto Pivot =
        std::find_if(P.Coef.begin(), P.Coef.end(), [](const auto &Term) {
          return Term.second == 1 || Term.second == -1;
        });
    if (Pivot == P.Coef.end())
      return std::nullopt; // No unit coefficient to eliminate with.
    const int64_t PivotVar = Pivot->first;
    const int64_t PivotSign = Pivot->second;
    // Row R with coefficient b on the pivot column:  R += P * (-b * s)
    // cancels the column exactly (s*s == 1).
    auto substituteInto = [&](CongruenceRow &R) -> bool {
      auto It = R.Coef.find(PivotVar);
      if (It == R.Coef.end())
        return true;
      std::optional<int64_t> Scale = checkedMul(It->second, -PivotSign);
      if (!Scale)
        return false;
      return addScaledInto(R, P, *Scale);
    };
    for (CongruenceRow &R : Rows)
      if (!substituteInto(R))
        return std::nullopt;
    for (NdivAtom &N : Ndivs)
      if (!substituteInto(N.Row))
        return std::nullopt;
  }

  // The NDIV atoms, now over free columns only. For d | (e) with
  // G = gcd(coefficients of e), g = gcd(d, G): e mod d ranges over the
  // coset Const + g*Z, each residue equally often. So the atom is always
  // false when g == d and d | Const (=> Unsat), always true when
  // g does not divide Const (drop), and otherwise "d divides e" holds
  // for exactly a g/d fraction of assignments. A union bound
  // sum(g_i/d_i) < 1 then witnesses an assignment satisfying every
  // remaining NDIV atom.
  int64_t DensityNum = 0, DensityDen = 1;
  for (const NdivAtom &N : Ndivs) {
    const int64_t D = N.D; // Constraint guarantees D >= 1.
    const int64_t G = coefGcd(N.Row);
    const int64_t C = N.Row.Const;
    const int64_t Small = G == 0 ? D : gcdInt64(D, G);
    if (Small == D) {
      // d divides every coefficient: e == Const (mod d) identically.
      if (floorMod(C, D) == 0)
        return SatResult::Unsat; // Atom is identically false.
      continue;                  // Atom is identically true.
    }
    if (floorMod(C, Small) != 0)
      continue; // 0 is not in the coset: atom identically true.
    std::optional<int64_t> NumD = checkedMul(DensityNum, D);
    std::optional<int64_t> SmallDen = checkedMul(Small, DensityDen);
    std::optional<int64_t> NewDen = checkedMul(DensityDen, D);
    if (!NumD || !SmallDen || !NewDen)
      return std::nullopt;
    std::optional<int64_t> NewNum = checkedAdd(*NumD, *SmallDen);
    if (!NewNum)
      return std::nullopt;
    int64_t Reduce = gcdInt64(*NewNum, *NewDen);
    DensityNum = *NewNum / Reduce;
    DensityDen = *NewDen / Reduce;
    if (DensityNum >= DensityDen)
      return std::nullopt; // Union bound inconclusive.
  }

  if (HasGE)
    return std::nullopt; // Subsystem satisfiable, but GE atoms remain.
  return SatResult::Sat;
}

//===----------------------------------------------------------------------===//
// Tier 2: per-variable intervals + bounded congruence windows
//===----------------------------------------------------------------------===//

namespace {

/// Interval and congruence state for one variable.
struct VarInterval {
  VarId Var;
  std::optional<int64_t> Lo, Hi;
  /// Congruence atoms d | (a*x + c) (Positive) or their negations.
  struct Congruence {
    int64_t A, C, D;
    bool Positive;
  };
  std::vector<Congruence> Congruences;
};

/// Intersects the interval with x >= B.
void boundBelow(VarInterval &VI, int64_t B) {
  if (!VI.Lo || *VI.Lo < B)
    VI.Lo = B;
}

/// Intersects the interval with x <= B.
void boundAbove(VarInterval &VI, int64_t B) {
  if (!VI.Hi || *VI.Hi > B)
    VI.Hi = B;
}

/// Does x satisfy every congruence of \p VI? nullopt on overflow.
std::optional<bool> congruencesHold(const VarInterval &VI, int64_t X) {
  for (const VarInterval::Congruence &G : VI.Congruences) {
    std::optional<int64_t> AX = checkedMul(G.A, X);
    if (!AX)
      return std::nullopt;
    std::optional<int64_t> V = checkedAdd(*AX, G.C);
    if (!V)
      return std::nullopt;
    if ((floorMod(*V, G.D) == 0) != G.Positive)
      return false;
  }
  return true;
}

} // namespace

std::optional<SatResult>
TieredSolver::solveIntervals(const std::vector<Constraint> &Conjuncts) {
  // Applicability: every atom mentions exactly one variable (constants
  // were folded away). Distinct variables decompose independently.
  std::vector<VarInterval> Vars;
  auto stateFor = [&Vars](VarId V) -> VarInterval & {
    auto It = std::lower_bound(
        Vars.begin(), Vars.end(), V,
        [](const VarInterval &VI, VarId Key) { return VI.Var < Key; });
    if (It != Vars.end() && It->Var == V)
      return *It;
    It = Vars.insert(It, VarInterval());
    It->Var = V;
    return *It;
  };

  for (const Constraint &C : Conjuncts) {
    LinearExpr::TermSpan Terms = C.expr().terms();
    if (Terms.size() != 1)
      return std::nullopt; // Multi-variable atom: not this tier's shape.
    auto [V, A] = Terms.front();
    int64_t K = C.expr().constantValue();
    VarInterval &VI = stateFor(V);
    switch (C.kind()) {
    case ConstraintKind::GE: {
      // a*x + k >= 0.
      std::optional<int64_t> NegK = checkedNeg(K);
      if (!NegK)
        return std::nullopt;
      if (A > 0) {
        boundBelow(VI, ceilDiv(*NegK, A)); // x >= ceil(-k / a).
      } else {
        std::optional<int64_t> NegA = checkedNeg(A);
        if (!NegA)
          return std::nullopt;
        boundAbove(VI, floorDiv(K, *NegA)); // x <= floor(k / -a).
      }
      break;
    }
    case ConstraintKind::EQ: {
      // a*x + k == 0: either one integer solution or none.
      std::optional<int64_t> NegK = checkedNeg(K);
      if (!NegK)
        return std::nullopt;
      if (*NegK % A != 0)
        return SatResult::Unsat;
      int64_t X = *NegK / A;
      boundBelow(VI, X);
      boundAbove(VI, X);
      break;
    }
    case ConstraintKind::DIV:
    case ConstraintKind::NDIV:
      VI.Congruences.push_back(
          {A, K, C.modulus(), C.kind() == ConstraintKind::DIV});
      break;
    }
  }

  for (const VarInterval &VI : Vars) {
    if (VI.Lo && VI.Hi && *VI.Lo > *VI.Hi)
      return SatResult::Unsat; // Empty integer interval.
    if (VI.Congruences.empty())
      continue; // Nonempty interval with no congruences: satisfiable.

    // Congruence satisfaction is periodic with period lcm(moduli): any
    // window of that many consecutive integers inside the interval is
    // decisive. Scan one, bounded by MaxCongruenceWindow.
    int64_t Lcm = 1;
    for (const VarInterval::Congruence &G : VI.Congruences) {
      std::optional<int64_t> Next = checkedMul(Lcm / gcdInt64(Lcm, G.D), G.D);
      if (!Next || *Next > Opts.MaxCongruenceWindow)
        return std::nullopt;
      Lcm = *Next;
    }

    int64_t Start;
    int64_t Count = Lcm;
    if (VI.Lo) {
      Start = *VI.Lo;
      if (VI.Hi) {
        // Window = min(interval width, one full period); both are exact:
        // a narrower window covers the whole interval, a full period
        // covers every residue class reachable inside it.
        std::optional<int64_t> Width = checkedSub(*VI.Hi, *VI.Lo);
        if (!Width)
          return std::nullopt;
        if (*Width < Lcm - 1)
          Count = *Width + 1;
      }
    } else if (VI.Hi) {
      std::optional<int64_t> S = checkedSub(*VI.Hi, Lcm - 1);
      if (!S)
        return std::nullopt;
      Start = *S;
    } else {
      Start = 0;
    }

    bool Satisfied = false;
    for (int64_t I = 0; I < Count; ++I) {
      std::optional<int64_t> X = checkedAdd(Start, I);
      if (!X)
        return std::nullopt;
      std::optional<bool> Ok = congruencesHold(VI, *X);
      if (!Ok)
        return std::nullopt;
      if (*Ok) {
        Satisfied = true;
        break;
      }
    }
    if (!Satisfied)
      return SatResult::Unsat;
  }
  return SatResult::Sat;
}

//===----------------------------------------------------------------------===//
// Tier 3: unit-coefficient difference systems via Bellman-Ford
//===----------------------------------------------------------------------===//

namespace {

/// One difference edge: D[To] <= D[From] + Weight.
struct DiffEdge {
  uint32_t From, To;
  int64_t Weight;
};

} // namespace

std::optional<SatResult>
TieredSolver::solveDifferenceBounds(const std::vector<Constraint> &Conjuncts) {
  // Applicability: GE/EQ only, each over at most two variables with unit
  // coefficients (a difference x - y, or a single +/-x). Such systems are
  // totally unimodular, so Bellman-Ford feasibility over the rationals is
  // exact over the integers.
  std::vector<VarId> Nodes;
  for (const Constraint &C : Conjuncts) {
    if (C.kind() != ConstraintKind::GE && C.kind() != ConstraintKind::EQ)
      return std::nullopt;
    LinearExpr::TermSpan Terms = C.expr().terms();
    if (Terms.size() > 2)
      return std::nullopt;
    if (Terms.size() == 2) {
      int64_t A0 = Terms[0].second, A1 = Terms[1].second;
      if (!((A0 == 1 && A1 == -1) || (A0 == -1 && A1 == 1)))
        return std::nullopt;
    } else if (Terms.size() == 1) {
      int64_t A = Terms.front().second;
      if (A != 1 && A != -1)
        return std::nullopt;
    }
    for (const auto &[V, A] : Terms) {
      (void)A;
      Nodes.push_back(V);
    }
  }
  std::sort(Nodes.begin(), Nodes.end());
  Nodes.erase(std::unique(Nodes.begin(), Nodes.end()), Nodes.end());
  auto indexOf = [&Nodes](VarId V) -> uint32_t {
    return static_cast<uint32_t>(
        std::lower_bound(Nodes.begin(), Nodes.end(), V) - Nodes.begin());
  };
  const uint32_t Zero = static_cast<uint32_t>(Nodes.size()); // The 0 node.
  const uint32_t NodeCount = Zero + 1;

  // At most two edges per conjunct (EQ contributes both directions).
  Scratch.reset();
  auto *Edges = Scratch.allocateArray<DiffEdge>(2 * Conjuncts.size());
  size_t EdgeCount = 0;
  // Adds the edge encoding  e + k >= 0  for a difference/unit term shape.
  auto addEdge = [&](LinearExpr::TermSpan Terms, int64_t K, bool Negated) {
    // Negated mirrors every coefficient and the constant (for the e <= 0
    // half of an EQ); callers verified the negations cannot overflow.
    auto coeffOf = [&](size_t I) {
      return Negated ? -Terms[I].second : Terms[I].second;
    };
    if (Terms.size() == 2) {
      // x - y + k >= 0  <=>  D[x] >= D[y] - k: edge y <- x ... encoded as
      // D[To] <= D[From] + W with  y - x <= k: From = x, To = y, W = k.
      uint32_t X = indexOf(Terms[0].first), Y = indexOf(Terms[1].first);
      if (coeffOf(0) == -1)
        std::swap(X, Y); // Normalize to +X - Y.
      Edges[EdgeCount++] = {X, Y, K};
    } else {
      uint32_t X = indexOf(Terms.front().first);
      if (coeffOf(0) == 1)
        Edges[EdgeCount++] = {X, Zero, K}; // x + k >= 0: 0 - x <= k.
      else
        Edges[EdgeCount++] = {Zero, X, K}; // -x + k >= 0: x - 0 <= k.
    }
  };
  for (const Constraint &C : Conjuncts) {
    int64_t K = C.expr().constantValue();
    addEdge(C.expr().terms(), K, false);
    if (C.kind() == ConstraintKind::EQ) {
      std::optional<int64_t> NegK = checkedNeg(K);
      if (!NegK)
        return std::nullopt;
      addEdge(C.expr().terms(), *NegK, true);
    }
  }

  // Bellman-Ford feasibility from a virtual source at distance 0 to every
  // node: the system is satisfiable iff there is no negative cycle.
  auto *Dist = Scratch.allocateArray<int64_t>(NodeCount);
  std::fill(Dist, Dist + NodeCount, 0);
  for (uint32_t Round = 0; Round < NodeCount; ++Round) {
    bool Relaxed = false;
    for (size_t I = 0; I < EdgeCount; ++I) {
      const DiffEdge &E = Edges[I];
      std::optional<int64_t> Candidate = checkedAdd(Dist[E.From], E.Weight);
      if (!Candidate)
        return std::nullopt;
      if (*Candidate < Dist[E.To]) {
        Dist[E.To] = *Candidate;
        Relaxed = true;
      }
    }
    if (!Relaxed)
      return SatResult::Sat; // Converged: a feasible assignment exists.
  }
  return SatResult::Unsat; // Relaxation after |V| rounds: negative cycle.
}

//===----------------------------------------------------------------------===//
// The tier pipeline
//===----------------------------------------------------------------------===//

SatResult TieredSolver::isSatisfiable(const std::vector<Constraint> &Conjuncts) {
  std::vector<Constraint> Live;
  bool SawPoisoned = false;
  if (std::optional<SatResult> R =
          constantFold(Conjuncts, Live, SawPoisoned)) {
    // Constant folding is bookkept as an interval-tier hit: it is the
    // degenerate zero-variable case of the same analysis.
    ++Tiers.IntervalHits;
    return *R;
  }

  if (!SawPoisoned) {
    if (Opts.EnableCongruence) {
      if (std::optional<SatResult> R = solveCongruences(Live)) {
        ++Tiers.CongruenceHits;
        return *R;
      }
      ++Tiers.CongruenceMisses;
    }
    if (std::optional<SatResult> R = solveIntervals(Live)) {
      ++Tiers.IntervalHits;
      return *R;
    }
    ++Tiers.IntervalMisses;
    if (std::optional<SatResult> R = solveDifferenceBounds(Live)) {
      ++Tiers.DbmHits;
      return *R;
    }
    ++Tiers.DbmMisses;
  } else {
    if (Opts.EnableCongruence)
      ++Tiers.CongruenceMisses;
    ++Tiers.IntervalMisses;
    ++Tiers.DbmMisses;
  }

  // Tier 4: the exact Omega test, over the original conjunction (its own
  // normalization pipeline is the reference behavior).
  SatResult R = Omega.isSatisfiable(Conjuncts);
  ++(R == SatResult::Unknown ? Tiers.OmegaMisses : Tiers.OmegaHits);
  return R;
}
