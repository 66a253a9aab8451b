//===- ProverCache.cpp ----------------------------------------------------===//

#include "constraints/ProverCache.h"

#include "support/Digest.h"

#include <algorithm>

using namespace mcsafe;
using support::combine64;
using support::mix64;

uint64_t QueryBudget::hash() const {
  uint64_t H = mix64(DnfMaxDisjuncts);
  H = combine64(H, DnfMaxAtoms);
  H = combine64(H, OmegaMaxSteps);
  H = combine64(H, support::signedBits(OmegaMaxNdivModulus));
  H = combine64(H, SolverTiers);
  H = combine64(H, SolverSlicing);
  return H;
}

uint64_t ProverCache::keyFor(const FormulaRef &F, const QueryBudget &B) {
  // Hash-consing makes the interner id a complete witness of formula
  // structure, so the key derives from it directly; no tree walk.
  return combine64(mix64(F->id()), B.hash());
}

ProverCache::ProverCache(const Config &C,
                         std::shared_ptr<ProverCache> Backing)
    : Generation(FormulaGeneration::currentSerial()),
      Backing(std::move(Backing)) {
  unsigned ShardCount = std::max(1u, C.Shards);
  // Per-shard hot capacity; hot + cold together stay within MaxEntries.
  PerShardCap = std::max<size_t>(1, C.MaxEntries / (2 * ShardCount));
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I < ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

ProverCache::Shard &ProverCache::shardFor(uint64_t Key) {
  return *Shards[mix64(Key) % Shards.size()];
}

ProverCache::Entry *ProverCache::findIn(Table &T, uint64_t Key,
                                        const FormulaRef &F,
                                        const QueryBudget &B) {
  auto It = T.find(Key);
  if (It == T.end())
    return nullptr;
  for (Entry &E : It->second)
    if (E.Budget == B && Formula::equal(E.Key, F))
      return &E;
  return nullptr;
}

void ProverCache::maybeFlipLocked(Shard &S) {
  if (S.HotEntries < PerShardCap)
    return;
  S.Evictions += S.ColdEntries;
  S.Cold = std::move(S.Hot);
  S.ColdEntries = S.HotEntries;
  S.Hot = Table();
  S.HotEntries = 0;
}

std::optional<SatOutcome> ProverCache::lookup(const FormulaRef &F,
                                              const QueryBudget &B) {
  return lookupHashed(keyFor(F, B), F, B);
}

std::optional<SatOutcome> ProverCache::lookupHashed(uint64_t Key,
                                                    const FormulaRef &F,
                                                    const QueryBudget &B) {
  if (Backing && F->generation() == 0)
    return Backing->lookupHashed(Key, F, B);
  const bool Component = B.SolverSlicing == QueryBudget::SlicingComponent;
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.M);
  // A key from another generation is never searched for: it could only
  // match a stale entry at a reused address.
  if (!admits(F)) {
    ++S.Misses;
    ++(Component ? S.ComponentMisses : S.QueryMisses);
    return std::nullopt;
  }
  if (const Entry *E = findIn(S.Hot, Key, F, B)) {
    ++S.Hits;
    ++(Component ? S.ComponentHits : S.QueryHits);
    return E->Outcome;
  }
  if (Entry *E = findIn(S.Cold, Key, F, B)) {
    ++S.Hits;
    ++(Component ? S.ComponentHits : S.QueryHits);
    // Promote into the hot generation so it survives the next flip.
    SatOutcome O = E->Outcome;
    S.Hot[Key].push_back(std::move(*E));
    ++S.HotEntries;
    auto It = S.Cold.find(Key);
    It->second.erase(It->second.begin() +
                     (E - It->second.data()));
    if (It->second.empty())
      S.Cold.erase(It);
    --S.ColdEntries;
    maybeFlipLocked(S);
    return O;
  }
  ++S.Misses;
  ++(Component ? S.ComponentMisses : S.QueryMisses);
  return std::nullopt;
}

void ProverCache::insert(const FormulaRef &F, const QueryBudget &B,
                         SatOutcome O) {
  insertHashed(keyFor(F, B), F, B, O);
}

void ProverCache::insertHashed(uint64_t Key, const FormulaRef &F,
                               const QueryBudget &B, SatOutcome O) {
  if (Backing && F->generation() == 0)
    return Backing->insertHashed(Key, F, B, O);
  if (!admits(F))
    return;
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.M);
  // Concurrent workers may race to compute the same query; keep the
  // first result (outcomes are pure, so they agree).
  if (findIn(S.Hot, Key, F, B) || findIn(S.Cold, Key, F, B))
    return;
  S.Hot[Key].push_back(Entry{F, B, O});
  ++S.HotEntries;
  ++S.Insertions;
  maybeFlipLocked(S);
}

void ProverCache::clear() {
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->M);
    S->Hot.clear();
    S->Cold.clear();
    S->HotEntries = S->ColdEntries = 0;
  }
}

ProverCache::Stats ProverCache::stats() const {
  Stats Total;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->M);
    Total.Hits += S->Hits;
    Total.Misses += S->Misses;
    Total.Insertions += S->Insertions;
    Total.Evictions += S->Evictions;
    Total.Entries += S->HotEntries + S->ColdEntries;
    Total.QueryHits += S->QueryHits;
    Total.QueryMisses += S->QueryMisses;
    Total.ComponentHits += S->ComponentHits;
    Total.ComponentMisses += S->ComponentMisses;
  }
  return Total;
}
