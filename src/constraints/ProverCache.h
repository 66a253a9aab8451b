//===- ProverCache.h - Shared formula-result cache --------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The satisfiability-result cache behind the prover — the Section 5.2.3
/// caching enhancement, grown into a shared, bounded, thread-safe memo
/// table so that a check's prover and its speculative VC workers can pool
/// their results.
///
/// Keys are node pointers, so a cache must never hold a key whose
/// formula generation (Formula.h) has ended: a new node at the reused
/// address would be a false hit. A cache is therefore bound to the
/// generation current when it is built, and admits only keys of that
/// generation or of the base. A check's own cache lives inside the
/// check's generation; a cache that outlives checks (a batch's, a
/// daemon's) is built outside every generation and so admits only base
/// keys — certificate formulas, in practice. A check's cache can be
/// backed by such a long-lived cache, to which it routes its base keys.
/// Checks never share anything else: each mints its own variables, so
/// the queries of two checks never coincide.
///
/// Entries are keyed by the formula's interned node id (hash-consing makes
/// the id a complete witness of structure), verified on key collision with
/// Formula::equal — an O(1) pointer compare — and additionally carry the
/// exact resource budgets the query ran under: an Unknown produced by
/// budget exhaustion under a small budget must never answer a query run
/// under a larger one.
///
/// Concurrency: the table is split into mutex-striped shards selected by
/// key hash. Capacity is bounded with segmented-LRU ("generational")
/// eviction: each shard keeps a hot and a cold generation; lookups
/// promote cold hits, and when the hot generation fills up the cold one
/// is discarded wholesale. Recently-used entries therefore survive at
/// least one generation flip, evictions are O(1), and the total entry
/// count never exceeds the configured maximum.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_PROVERCACHE_H
#define MCSAFE_CONSTRAINTS_PROVERCACHE_H

#include "constraints/Formula.h"
#include "constraints/OmegaTest.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mcsafe {

/// Outcome of one satisfiability query, as cached and returned by the
/// prover's internals. The ApproximatedForall flag must survive caching:
/// a Sat outcome recorded under a Forall approximation is a possibly
/// spurious model and can only ever justify "Unknown", never "NotProved".
struct SatOutcome {
  SatResult Result = SatResult::Unknown;
  bool ApproximatedForall = false;
  /// Diagnostic only (never serialized into certificates): the fresh
  /// computation of this outcome consulted the Omega tier. The slicing
  /// layer uses it to count how many Omega runs its component memo saved
  /// (prover/slice/omega_avoided).
  bool UsedOmega = false;
};

/// The resource budgets a query was answered under. Cache hits require an
/// exact match: results under different budgets are incomparable (a
/// larger budget can turn Unknown into a definite answer).
struct QueryBudget {
  uint64_t DnfMaxDisjuncts = 0;
  uint64_t DnfMaxAtoms = 0;
  uint64_t OmegaMaxSteps = 0;
  int64_t OmegaMaxNdivModulus = 0;
  /// Solver configuration: whether the congruence tier runs (it is off
  /// together with the known-bits domain under --no-knownbits). That tier
  /// can answer queries the Omega budgets give up on, so the two
  /// configurations must not exchange cache entries — and mcsafe-serve's
  /// shared cache serves requests of both.
  enum : uint64_t { TiersNoCongruence = 1, TiersWithCongruence = 2 };
  uint64_t SolverTiers = TiersWithCongruence;
  /// Entry level of the slicing layer (see Slice.h). SlicingQuery tags
  /// whole-query and whole-disjunct entries; SlicingComponent tags the
  /// per-component memo entries, which are keyed by a component
  /// sub-formula and must not collide with a whole-query entry for the
  /// structurally identical formula.
  enum : uint64_t { SlicingQuery = 1, SlicingComponent = 2 };
  uint64_t SolverSlicing = SlicingQuery;

  friend bool operator==(const QueryBudget &A, const QueryBudget &B) {
    return A.DnfMaxDisjuncts == B.DnfMaxDisjuncts &&
           A.DnfMaxAtoms == B.DnfMaxAtoms &&
           A.OmegaMaxSteps == B.OmegaMaxSteps &&
           A.OmegaMaxNdivModulus == B.OmegaMaxNdivModulus &&
           A.SolverTiers == B.SolverTiers &&
           A.SolverSlicing == B.SolverSlicing;
  }

  /// Stable 64-bit hash of the budget tuple (support/Digest.h mixer).
  uint64_t hash() const;
};

/// A bounded, sharded, thread-safe formula-result cache, shareable
/// between provers (results are pure functions of formula structure and
/// budget, so sharing across workers is sound).
class ProverCache {
public:
  struct Config {
    size_t MaxEntries = size_t(1) << 20;
    unsigned Shards = 64;
  };

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0; ///< Current resident entries.
    /// The hit/miss split by entry class — whole-query entries versus the
    /// slicing layer's per-component entries (discriminated by the
    /// budget's SolverSlicing tag), so component hit rates are observable
    /// per class instead of only as the blended aggregate above.
    /// Hits == QueryHits + ComponentHits, same for misses.
    uint64_t QueryHits = 0;
    uint64_t QueryMisses = 0;
    uint64_t ComponentHits = 0;
    uint64_t ComponentMisses = 0;
  };

  ProverCache() : ProverCache(Config()) {}
  /// A cache bound to this thread's current formula generation. Lookups
  /// and insertions of base keys go to \p Backing when it is set.
  explicit ProverCache(const Config &C,
                       std::shared_ptr<ProverCache> Backing = nullptr);

  /// The serial of the formula generation this cache is bound to (0: the
  /// base). It admits keys of that generation and of the base only.
  uint64_t generation() const { return Generation; }
  bool admits(const FormulaRef &F) const {
    return F->generation() == 0 || F->generation() == Generation;
  }

  /// Looks up the outcome cached for \p F under budget \p B. A key the
  /// cache does not admit always misses.
  std::optional<SatOutcome> lookup(const FormulaRef &F,
                                   const QueryBudget &B);
  /// Records the outcome of \p F under budget \p B; dropped when the
  /// cache does not admit \p F.
  void insert(const FormulaRef &F, const QueryBudget &B, SatOutcome O);

  /// Same, with a caller-computed key hash. Exposed so the prover can
  /// hash once per query, and so tests can force hash collisions onto
  /// the Formula::equal verification path.
  std::optional<SatOutcome> lookupHashed(uint64_t Key, const FormulaRef &F,
                                         const QueryBudget &B);
  void insertHashed(uint64_t Key, const FormulaRef &F, const QueryBudget &B,
                    SatOutcome O);

  /// Combines a formula hash and a budget into the cache key. Stable
  /// across platforms (the interner id is process-local, so keys are
  /// process-local too — only the mixing algorithm is portable).
  static uint64_t keyFor(const FormulaRef &F, const QueryBudget &B);

  void clear();
  /// Aggregated over all shards; the backing cache keeps its own.
  Stats stats() const;

private:
  struct Entry {
    FormulaRef Key;
    QueryBudget Budget;
    SatOutcome Outcome;
  };
  /// Hash-collision chain; entries are discriminated by Formula::equal
  /// plus exact budget comparison.
  using Bucket = std::vector<Entry>;
  using Table = std::unordered_map<uint64_t, Bucket>;

  struct Shard {
    mutable std::mutex M;
    Table Hot, Cold;        // Segmented-LRU generations.
    size_t HotEntries = 0;  // Entry counts (buckets hold >= 1 entry).
    size_t ColdEntries = 0;
    uint64_t Hits = 0, Misses = 0, Insertions = 0, Evictions = 0;
    // Hit/miss split by entry class (component vs whole-query).
    uint64_t QueryHits = 0, QueryMisses = 0;
    uint64_t ComponentHits = 0, ComponentMisses = 0;
  };

  Shard &shardFor(uint64_t Key);
  /// Finds \p F under \p B in \p T; null when absent.
  static Entry *findIn(Table &T, uint64_t Key, const FormulaRef &F,
                       const QueryBudget &B);
  /// Flips generations when the hot one is full. Caller holds S.M.
  void maybeFlipLocked(Shard &S);

  size_t PerShardCap; // Hot-generation capacity per shard.
  std::vector<std::unique_ptr<Shard>> Shards;
  uint64_t Generation;
  std::shared_ptr<ProverCache> Backing;
};

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_PROVERCACHE_H
