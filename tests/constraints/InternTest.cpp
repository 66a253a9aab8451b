//===- InternTest.cpp - Hash-consed formula interner ----------------------===//

#include "constraints/Formula.h"
#include "constraints/Prover.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace mcsafe;

namespace {

LinearExpr var(const char *Name) { return LinearExpr::variable(varId(Name)); }

FormulaRef geAtom(LinearExpr E) {
  return Formula::atom(Constraint::ge(std::move(E)));
}

TEST(Intern, StructurallyEqualFormulasShareOneNode) {
  FormulaRef A = geAtom(var("in.x").plusConstant(-5));
  FormulaRef B = geAtom(var("in.x").plusConstant(-5));
  EXPECT_EQ(A.get(), B.get()); // Pointer equality, not just structural.
  EXPECT_EQ(A->id(), B->id());

  FormulaRef C1 = Formula::conj2(A, geAtom(var("in.y")));
  FormulaRef C2 = Formula::conj2(B, geAtom(var("in.y")));
  EXPECT_EQ(C1.get(), C2.get());
}

TEST(Intern, DistinctFormulasGetDistinctIds) {
  FormulaRef A = geAtom(var("in.x"));
  FormulaRef B = geAtom(var("in.x").plusConstant(-1));
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(A->id(), B->id());
}

TEST(Intern, HashIsMemoizedAndStructural) {
  FormulaRef A = Formula::conj2(geAtom(var("in.h1")), geAtom(var("in.h2")));
  FormulaRef B = Formula::conj2(geAtom(var("in.h1")), geAtom(var("in.h2")));
  EXPECT_EQ(A->hash(), B->hash());
  // Same pointer, so trivially the same memo.
  EXPECT_EQ(A.get(), B.get());
}

TEST(Intern, FreeVarsAreMemoizedPerNode) {
  FormulaRef F = Formula::conj2(geAtom(var("in.fv1") + var("in.fv2")),
                                geAtom(var("in.fv2")));
  const FreeVarSet &S1 = F->freeVars();
  const FreeVarSet &S2 = F->freeVars();
  EXPECT_EQ(&S1, &S2); // One set per node, computed at intern time.
  EXPECT_TRUE(S1.contains(varId("in.fv1")));
  EXPECT_TRUE(S1.contains(varId("in.fv2")));
  EXPECT_EQ(S1.size(), 2u);
}

TEST(Intern, NegateIsMemoizedAndInvolutive) {
  FormulaRef F = Formula::conj2(geAtom(var("in.n1")), geAtom(var("in.n2")));
  FormulaRef N1 = Formula::negate(F);
  FormulaRef N2 = Formula::negate(F);
  EXPECT_EQ(N1.get(), N2.get()); // Memoized on the node.
  EXPECT_EQ(Formula::negate(N1).get(), F.get());
}

TEST(Intern, SimplifyIsMemoized) {
  FormulaRef F = Formula::conj2(geAtom(var("in.s").plusConstant(-5)),
                                geAtom(var("in.s").plusConstant(-2)));
  FormulaRef S1 = simplify(F);
  FormulaRef S2 = simplify(F);
  EXPECT_EQ(S1.get(), S2.get());
}

TEST(Intern, StatsGrowMonotonically) {
  Formula::InternStats Before = Formula::internStats();
  // A fresh variable name guarantees at least one new node...
  FormulaRef A = geAtom(var("in.stats_fresh_node"));
  Formula::InternStats Mid = Formula::internStats();
  EXPECT_GT(Mid.Nodes, Before.Nodes);
  EXPECT_GT(Mid.Bytes, 0u);
  // ...and re-building it is a dedup hit, not a new node.
  FormulaRef B = geAtom(var("in.stats_fresh_node"));
  EXPECT_EQ(A.get(), B.get());
  Formula::InternStats After = Formula::internStats();
  EXPECT_EQ(After.Nodes, Mid.Nodes);
  EXPECT_GT(After.DedupHits, Mid.DedupHits);
}

// The TSan workhorse: many threads intern the same formula family
// concurrently. Every thread must end up with identical canonical
// pointers, and no data race may be reported on the shards or the
// negation memos.
TEST(Intern, ConcurrentInterningConverges) {
  constexpr int Threads = 8;
  constexpr int Reps = 200;
  // Pre-intern the variable names so worker threads only exercise the
  // formula interner, not the name table.
  for (int I = 0; I < 16; ++I)
    varId("in.mt" + std::to_string(I));

  std::vector<std::vector<const Formula *>> Seen(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([T, &Seen] {
      for (int R = 0; R < Reps; ++R) {
        int I = R % 16;
        FormulaRef A =
            geAtom(var(("in.mt" + std::to_string(I)).c_str())
                       .plusConstant(-I));
        FormulaRef B = Formula::conj2(
            A, geAtom(var(("in.mt" + std::to_string((I + 1) % 16)).c_str())));
        FormulaRef N = Formula::negate(B);
        Seen[T].push_back(N.get());
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (int T = 1; T < Threads; ++T)
    EXPECT_EQ(Seen[T], Seen[0]);
}

TEST(Intern, TrueFalseAreProcessSingletons) {
  EXPECT_EQ(Formula::mkTrue().get(), Formula::mkTrue().get());
  EXPECT_EQ(Formula::mkFalse().get(), Formula::mkFalse().get());
  EXPECT_NE(Formula::mkTrue().get(), Formula::mkFalse().get());
}

TEST(Intern, TrueFalseLiveInTheBaseEvenWhenFirstUsedInACheck) {
  VarNamespace NS;
  EXPECT_EQ(Formula::mkTrue()->generation(), 0u);
  EXPECT_EQ(Formula::mkFalse()->generation(), 0u);
}

TEST(Intern, GenerationNodesAreFreedWithTheirNamespace) {
  FormulaRef Base = geAtom(var("in.gen_base"));
  Formula::InternStats Before = Formula::internStats();
  {
    VarNamespace NS;
    FormulaRef A = geAtom(var("in.gen_x").plusConstant(-1));
    FormulaRef F = Formula::conj2(A, Base);
    EXPECT_NE(A->generation(), 0u);
    EXPECT_EQ(F->generation(), A->generation());
    // Dedup still works inside a generation, and reaches the base.
    EXPECT_EQ(geAtom(var("in.gen_x").plusConstant(-1)).get(), A.get());
    EXPECT_EQ(Formula::conj2(A, Base).get(), F.get());
    EXPECT_EQ(Formula::internStats().Nodes, Before.Nodes + 2);
  }
  Formula::InternStats After = Formula::internStats();
  EXPECT_EQ(After.Nodes, Before.Nodes);
  EXPECT_EQ(After.Bytes, Before.Bytes);
}

TEST(Intern, NestedGenerationsRestoreTheOuterOne) {
  VarNamespace Outer;
  uint64_t OuterGen = geAtom(var("in.outer"))->generation();
  {
    VarNamespace Inner;
    EXPECT_NE(geAtom(var("in.inner"))->generation(), OuterGen);
  }
  EXPECT_EQ(geAtom(var("in.outer2"))->generation(), OuterGen);
  // A scope routes interning explicitly; null is the base.
  {
    FormulaGenerationScope InBase(nullptr);
    EXPECT_EQ(geAtom(var("in.outer3"))->generation(), 0u);
  }
}

TEST(Intern, BaseNodeNeverMemoizesAGenerationNode) {
  // Base formulas whose negation and simplification are new nodes.
  FormulaRef F = Formula::conj2(geAtom(var("in.memo_a").plusConstant(-3)),
                                geAtom(var("in.memo_b")));
  FormulaRef G = Formula::conj({geAtom(var("in.memo_c").plusConstant(-5)),
                                geAtom(var("in.memo_c").plusConstant(-2)),
                                geAtom(var("in.memo_d"))});
  {
    VarNamespace NS;
    EXPECT_NE(Formula::negate(F)->generation(), 0u);
    EXPECT_NE(simplify(G)->generation(), 0u);
  }
  // Had the base nodes memoized those results, these would now read
  // freed memory (and ASan would say so).
  FormulaRef N = Formula::negate(F);
  EXPECT_EQ(N->generation(), 0u);
  EXPECT_EQ(Formula::negate(N).get(), F.get());
  FormulaRef S = simplify(G);
  EXPECT_EQ(S->generation(), 0u);
  EXPECT_EQ(S->children().size(), 2u);
}

TEST(Intern, MixingTwoGenerationsIsRefused) {
  VarNamespace Outer;
  FormulaRef A = geAtom(var("in.mix_a"));
  VarNamespace Inner;
  FormulaRef B = geAtom(var("in.mix_b"));
  // A node in Inner's generation cannot point into Outer's, which could
  // end first in another nesting.
  EXPECT_THROW(Formula::conj2(A, B), std::logic_error);
}

TEST(Intern, LongLivedCacheHoldsNoGenerationKey) {
  // Built outside every namespace: the cache outlives the check below,
  // so it is bound to the base.
  auto Shared = std::make_shared<ProverCache>();
  EXPECT_EQ(Shared->generation(), 0u);
  FormulaRef BaseF = geAtom(var("in.cache_base"));
  QueryBudget B;
  {
    VarNamespace NS;
    FormulaRef GenF = Formula::conj2(geAtom(var("in.cache_x")),
                                     geAtom(var("in.cache_y")));
    Shared->insert(GenF, B, {SatResult::Sat, false});
    EXPECT_FALSE(Shared->lookup(GenF, B).has_value());
    Shared->insert(BaseF, B, {SatResult::Sat, false});
    EXPECT_TRUE(Shared->lookup(BaseF, B).has_value());

    // A prover in the check keeps the check's keys in a private cache
    // backed by the long-lived one: repeated queries still hit.
    Prover P(Prover::Options(), Shared);
    EXPECT_NE(P.cacheHandle(), Shared);
    EXPECT_EQ(P.cacheHandle()->generation(), GenF->generation());
    FormulaRef Q = Formula::disj2(
        geAtom(var("in.cache_x")),
        geAtom(var("in.cache_x").scaled(-1).plusConstant(-1)));
    EXPECT_EQ(P.checkValid(Q), ProverResult::Proved);
    EXPECT_EQ(P.checkValid(Q), ProverResult::Proved);
    EXPECT_EQ(P.stats().CacheHits, 1u);
    // A second prover of the same check shares the private cache as is.
    Prover Local(Prover::Options(), P.cacheHandle());
    EXPECT_EQ(Local.cacheHandle(), P.cacheHandle());
    EXPECT_EQ(Local.checkValid(Q), ProverResult::Proved);
    EXPECT_EQ(Local.stats().CacheHits, 1u);
  }
  EXPECT_EQ(Shared->stats().Entries, 1u); // BaseF alone.
}

} // namespace
