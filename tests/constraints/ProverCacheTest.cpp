//===- ProverCacheTest.cpp ------------------------------------------------===//
//
// The shared formula-result cache: budget keying (a budget-limited
// Unknown must never answer a larger-budget query), bounded capacity
// with eviction accounting, hash-collision discrimination through
// Formula::equal, and ApproximatedForall surviving cache hits.
//
//===----------------------------------------------------------------------===//

#include "constraints/Prover.h"
#include "constraints/ProverCache.h"

#include <gtest/gtest.h>

using namespace mcsafe;

namespace {

LinearExpr var(const char *Name) {
  return LinearExpr::variable(varId(Name));
}

FormulaRef ge(LinearExpr E) {
  return Formula::atom(Constraint::ge(std::move(E)));
}

/// A satisfiable formula whose DNF has 16 disjuncts: conj of four
/// two-way disjunctions.
FormulaRef wideFormula() {
  std::vector<FormulaRef> Conj;
  const char *Names[] = {"pc.a", "pc.b", "pc.c", "pc.d"};
  for (const char *N : Names)
    Conj.push_back(
        Formula::disj2(ge(var(N)), ge((-var(N)).plusConstant(-1))));
  return Formula::conj(Conj);
}

// The satellite-1 regression: an Unknown cached under a small DNF budget
// used to be served (keyed on the formula alone) to queries running
// under a larger budget, masking a definite answer. Budgets are part of
// the key now.
TEST(ProverCache, BudgetLimitedUnknownNotReusedUnderLargerBudget) {
  Prover::Options SmallOpts;
  SmallOpts.DnfMaxDisjuncts = 2; // Exceeded by wideFormula()'s 16.
  Prover Small(SmallOpts);
  ASSERT_NE(Small.cacheHandle(), nullptr);

  FormulaRef F = wideFormula();
  EXPECT_EQ(Small.checkSat(F), SatResult::Unknown);

  // Same cache, default (ample) budget: must get the definite answer,
  // not the cached small-budget Unknown.
  Prover Big(Prover::Options(), Small.cacheHandle());
  EXPECT_EQ(Big.checkSat(F), SatResult::Sat);

  // And the small-budget prover still sees its own Unknown — as a hit.
  uint64_t HitsBefore = Small.stats().CacheHits;
  EXPECT_EQ(Small.checkSat(F), SatResult::Unknown);
  EXPECT_GT(Small.stats().CacheHits, HitsBefore);
}

TEST(ProverCache, SharedCacheServesSecondProver) {
  Prover P1;
  FormulaRef F = Formula::implies(ge(var("pc.x").plusConstant(-5)),
                                  ge(var("pc.x").plusConstant(-3)));
  EXPECT_EQ(P1.checkValid(F), ProverResult::Proved);

  Prover P2(Prover::Options(), P1.cacheHandle());
  EXPECT_EQ(P2.checkValid(F), ProverResult::Proved);
  EXPECT_GT(P2.stats().CacheHits, 0u);
}

// The satellite-3 regression: a Sat outcome recorded under a Forall
// approximation is a possibly spurious countermodel. Before the flag was
// cached alongside the result, the first query correctly answered
// Unknown but a repeat — served from cache — hardened into NotProved.
TEST(ProverCache, ApproximatedForallSurvivesCacheHit) {
  Prover P;
  // x == 8 implies exists q. x == 4q. Refuting the negation needs a
  // Forall the sat check approximates, so the honest answer is Unknown.
  VarId Q = varId("pc.q");
  FormulaRef Hyp =
      Formula::atom(Constraint::eq(var("pc.x").plusConstant(-8)));
  FormulaRef Goal = Formula::exists(
      Q, Formula::atom(Constraint::eq(
             var("pc.x") - LinearExpr::variable(Q).scaled(4))));
  FormulaRef F = Formula::implies(Hyp, Goal);

  ProverResult First = P.checkValid(F);
  ASSERT_NE(First, ProverResult::NotProved);
  uint64_t HitsBefore = P.stats().CacheHits;
  ProverResult Second = P.checkValid(F);
  EXPECT_GT(P.stats().CacheHits, HitsBefore); // Served from cache...
  EXPECT_EQ(Second, First);                   // ...without hardening.
}

// The satellite-2 behavior: the cache is bounded and evictions are
// observable through the prover's counters.
TEST(ProverCache, BoundedCacheEvictsAndCounts) {
  Prover::Options Opts;
  Opts.CacheMaxEntries = 16;
  Prover P(Opts);
  for (int C = 0; C < 400; ++C)
    P.checkSat(ge(var("pc.e").plusConstant(-C)));
  EXPECT_GT(P.stats().CacheEvictions, 0u);
}

// Eviction-dedupe regression: evictions are a property of the cache, so
// a prover attached to a SHARED cache must report 0 — otherwise a batch
// summary over N workers counts every eviction N times. The cache-global
// number stays available from ProverCache::stats() itself.
TEST(ProverCache, SharedCacheEvictionsNotDoubleCounted) {
  ProverCache::Config C;
  C.MaxEntries = 16;
  C.Shards = 1;
  auto Shared = std::make_shared<ProverCache>(C);

  Prover::Options Opts;
  Prover P1(Opts, Shared);
  Prover P2(Opts, Shared);
  for (int I = 0; I < 200; ++I) {
    P1.checkSat(ge(var("pc.s1").plusConstant(-I)));
    P2.checkSat(ge(var("pc.s2").plusConstant(-I)));
  }
  ASSERT_GT(Shared->stats().Evictions, 0u); // The cache did evict...
  EXPECT_EQ(P1.stats().CacheEvictions, 0u); // ...but no sharer owns them:
  EXPECT_EQ(P2.stats().CacheEvictions, 0u);
  // summing per-worker stats plus one cache-level read counts each
  // eviction exactly once.
  uint64_t BatchTotal = P1.stats().CacheEvictions +
                        P2.stats().CacheEvictions +
                        Shared->stats().Evictions;
  EXPECT_EQ(BatchTotal, Shared->stats().Evictions);
}

TEST(ProverCache, BudgetExhaustionsCounted) {
  Prover::Options SmallOpts;
  SmallOpts.DnfMaxDisjuncts = 2; // Exceeded by wideFormula()'s 16.
  Prover P(SmallOpts);
  FormulaRef F = wideFormula();
  EXPECT_EQ(P.checkSat(F), SatResult::Unknown);
  EXPECT_EQ(P.stats().BudgetExhaustions, 1u);
  // A cache hit replays the Unknown without a fresh exhaustion.
  EXPECT_EQ(P.checkSat(F), SatResult::Unknown);
  EXPECT_EQ(P.stats().BudgetExhaustions, 1u);
  // An ample budget never exhausts.
  Prover Big;
  EXPECT_EQ(Big.checkSat(F), SatResult::Sat);
  EXPECT_EQ(Big.stats().BudgetExhaustions, 0u);
}

TEST(ProverCache, CapacityBoundHolds) {
  ProverCache::Config C;
  C.MaxEntries = 64;
  C.Shards = 1;
  ProverCache Cache(C);
  QueryBudget B;
  for (int I = 0; I < 500; ++I) {
    FormulaRef F = ge(var("pc.cap").plusConstant(-I));
    Cache.insert(F, B, SatOutcome{SatResult::Sat, false});
  }
  ProverCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Insertions, 500u);
  EXPECT_LE(S.Entries, 64u);
  EXPECT_GT(S.Evictions, 0u);
}

TEST(ProverCache, RecentEntriesSurviveEviction) {
  ProverCache::Config C;
  C.MaxEntries = 64;
  C.Shards = 1;
  ProverCache Cache(C);
  QueryBudget B;
  FormulaRef Pinned = ge(var("pc.pinned"));
  Cache.insert(Pinned, B, SatOutcome{SatResult::Unsat, false});
  for (int I = 0; I < 500; ++I) {
    // Touch the pinned entry between fills: promotion must keep it
    // resident across generation flips.
    ASSERT_TRUE(Cache.lookup(Pinned, B).has_value()) << "lost at " << I;
    Cache.insert(ge(var("pc.fill").plusConstant(-I)), B,
                 SatOutcome{SatResult::Sat, false});
  }
  std::optional<SatOutcome> Hit = Cache.lookup(Pinned, B);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Result, SatResult::Unsat);
}

// Forcing two distinct formulas onto one key exercises the collision
// path: entries must be discriminated by Formula::equal, never by hash
// alone.
TEST(ProverCache, HashCollisionsDiscriminatedByFormulaEqual) {
  ProverCache Cache;
  QueryBudget B;
  const size_t Key = 0x1234567;
  FormulaRef F1 = ge(var("pc.col1"));
  FormulaRef F2 = ge(var("pc.col2"));

  Cache.insertHashed(Key, F1, B, SatOutcome{SatResult::Sat, false});
  // Same key, different formula: a miss, not F1's outcome.
  EXPECT_FALSE(Cache.lookupHashed(Key, F2, B).has_value());

  Cache.insertHashed(Key, F2, B, SatOutcome{SatResult::Unsat, false});
  std::optional<SatOutcome> O1 = Cache.lookupHashed(Key, F1, B);
  std::optional<SatOutcome> O2 = Cache.lookupHashed(Key, F2, B);
  ASSERT_TRUE(O1.has_value());
  ASSERT_TRUE(O2.has_value());
  EXPECT_EQ(O1->Result, SatResult::Sat);
  EXPECT_EQ(O2->Result, SatResult::Unsat);
}

TEST(ProverCache, SameFormulaDifferentBudgetIsAMiss) {
  ProverCache Cache;
  FormulaRef F = ge(var("pc.bud"));
  QueryBudget B1;
  B1.DnfMaxDisjuncts = 2;
  QueryBudget B2 = B1;
  B2.DnfMaxDisjuncts = 1024;
  const size_t Key = 42; // Force both budgets onto one key.
  Cache.insertHashed(Key, F, B1, SatOutcome{SatResult::Unknown, false});
  EXPECT_FALSE(Cache.lookupHashed(Key, F, B2).has_value());
  ASSERT_TRUE(Cache.lookupHashed(Key, F, B1).has_value());
}

// The slicing tag is part of the key: a per-component verdict must never
// answer a whole-query lookup, or vice versa. So is the congruence bit:
// mcsafe-serve's shared cache serves requests with and without the
// known-bits domain, and the two solver configurations can give up on
// different queries.
TEST(ProverCache, SlicingTagSeparatesEntries) {
  ProverCache Cache;
  FormulaRef F = ge(var("pc.slice"));
  QueryBudget Query;
  Query.SolverSlicing = QueryBudget::SlicingQuery;
  QueryBudget Comp = Query;
  Comp.SolverSlicing = QueryBudget::SlicingComponent;
  QueryBudget NoCongruence = Query;
  NoCongruence.SolverTiers = QueryBudget::TiersNoCongruence;

  Cache.insert(F, Comp, SatOutcome{SatResult::Unsat, false});
  EXPECT_FALSE(Cache.lookup(F, Query).has_value());
  ASSERT_TRUE(Cache.lookup(F, Comp).has_value());

  Cache.insert(F, Query, SatOutcome{SatResult::Sat, false});
  ASSERT_TRUE(Cache.lookup(F, Query).has_value());
  EXPECT_EQ(Cache.lookup(F, Query)->Result, SatResult::Sat);
  EXPECT_EQ(Cache.lookup(F, Comp)->Result, SatResult::Unsat);
  EXPECT_FALSE(Cache.lookup(F, NoCongruence).has_value());
}

// Hits and misses split by level: SlicingComponent traffic lands in the
// component counters, everything else in the query counters, and the
// totals reconcile. The split is what lets a benchmark report a
// component hit rate.
TEST(ProverCache, HitStatsSplitByLevel) {
  ProverCache Cache;
  FormulaRef F = ge(var("pc.split"));
  QueryBudget Query;
  Query.SolverSlicing = QueryBudget::SlicingQuery;
  QueryBudget Comp;
  Comp.SolverSlicing = QueryBudget::SlicingComponent;

  EXPECT_FALSE(Cache.lookup(F, Query).has_value()); // Query miss.
  EXPECT_FALSE(Cache.lookup(F, Comp).has_value());  // Component miss.
  Cache.insert(F, Query, SatOutcome{SatResult::Sat, false});
  Cache.insert(F, Comp, SatOutcome{SatResult::Sat, false});
  EXPECT_TRUE(Cache.lookup(F, Query).has_value()); // Query hit.
  EXPECT_TRUE(Cache.lookup(F, Comp).has_value());  // Component hit.
  EXPECT_TRUE(Cache.lookup(F, Comp).has_value());  // Component hit.

  ProverCache::Stats S = Cache.stats();
  EXPECT_EQ(S.QueryHits, 1u);
  EXPECT_EQ(S.QueryMisses, 1u);
  EXPECT_EQ(S.ComponentHits, 2u);
  EXPECT_EQ(S.ComponentMisses, 1u);
  EXPECT_EQ(S.Hits, S.QueryHits + S.ComponentHits);
  EXPECT_EQ(S.Misses, S.QueryMisses + S.ComponentMisses);
}

TEST(ProverCache, ClearEmptiesTheCache) {
  Prover P;
  FormulaRef F = ge(var("pc.clear"));
  P.checkSat(F);
  ASSERT_NE(P.cacheHandle(), nullptr);
  EXPECT_GT(P.cacheHandle()->stats().Entries, 0u);
  P.clearCache();
  EXPECT_EQ(P.cacheHandle()->stats().Entries, 0u);
  QueryBudget B = P.budget();
  EXPECT_FALSE(P.cacheHandle()->lookup(F, B).has_value());
}

} // namespace
