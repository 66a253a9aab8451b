//===- GlobalVerify.cpp ---------------------------------------------------===//

#include "checker/GlobalVerify.h"

#include "constraints/Eliminate.h"
#include "policy/Policy.h"
#include "support/Governor.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

using namespace mcsafe;
using namespace mcsafe::checker;
using mcsafe::cfg::CfgEdge;
using mcsafe::cfg::InvalidNode;
using mcsafe::cfg::Loop;
using mcsafe::cfg::NodeId;

namespace {

/// Debug tracing, per check via GlobalVerifyOptions::DebugTrace (the
/// macro expands inside Verifier methods, where Opts is in scope). The
/// old function-local-static std::getenv latch is gone: it froze the
/// setting at first use for the process lifetime, which a resident
/// daemon could never override per request.
#define MCSAFE_TRACE_LOG(...)                                              \
  do {                                                                     \
    if (Opts.DebugTrace)                                                   \
      std::fprintf(stderr, __VA_ARGS__);                                   \
  } while (0)

/// Is a formula variable flow-varying (register value, icc, or a memory
/// location's value), as opposed to a pure symbol (policy constants,
/// location addresses)?
bool isFlowVarying(VarId V) {
  const std::string &Name = varName(V);
  if (Name == "icc")
    return true;
  if (startsWith(Name, "val:"))
    return true;
  if (startsWith(Name, "h.")) // Havoc instances.
    return true;
  if (Name.size() > 2 && Name[0] == 'w' && Name.find(".%") != std::string::npos)
    return true;
  return false;
}

/// The global-verification engine for one program.
class Verifier {
public:
  Verifier(const CheckContext &Ctx, const PropagationResult &Prop,
           const AnnotationResult &Annot, Prover &TheProver,
           const GlobalVerifyOptions &Opts)
      : Ctx(Ctx), Prop(Prop), Annot(Annot), TheProver(TheProver),
        Opts(Opts), Gov(Ctx.Governor), Wlp(Ctx, Prop) {
    Rpo = Ctx.Graph.reversePostOrder();
    RpoIndex.assign(Ctx.Graph.size(), UINT32_MAX);
    for (uint32_t I = 0; I < Rpo.size(); ++I)
      RpoIndex[Rpo[I]] = I;
    // Each loop's reachable nodes in RPO order, so a back-substitution
    // over one loop walks that loop and nothing else.
    const std::vector<Loop> &Loops = Ctx.Loops->loops();
    LoopRpo.resize(Loops.size());
    for (size_t L = 0; L < Loops.size(); ++L) {
      for (NodeId N : Loops[L].Body)
        if (RpoIndex[N] != UINT32_MAX)
          LoopRpo[L].push_back(N);
      std::sort(LoopRpo[L].begin(), LoopRpo[L].end(),
                [this](NodeId A, NodeId B) {
                  return RpoIndex[A] < RpoIndex[B];
                });
    }
    computePureFacts();
  }

  GlobalVerifyStats run();

private:
  struct SynthesisResult {
    bool Success = false;
    FormulaRef Linv; ///< Conjunction of the trial invariants.
  };

  /// Does Q hold whenever control reaches node N?
  ProverResult proveAt(NodeId N, const FormulaRef &Q);
  /// Does Qh hold at L's header on every arrival?
  ProverResult proveAtHeaderAlways(int32_t LoopIdx, const FormulaRef &Qh);
  /// Does W hold at L's header when first entered from outside?
  ProverResult proveAtFirstArrival(int32_t LoopIdx, const FormulaRef &W);

  /// Induction-iteration for loop \p LoopIdx with per-iteration goal
  /// \p Qh. With \p CheckEntry, each admitted trial invariant is verified
  /// true on entry (the classic algorithm); without, entry obligations
  /// are deferred to the caller, which propagates Linv further backward.
  SynthesisResult synthesize(int32_t LoopIdx, const FormulaRef &Qh,
                             bool CheckEntry);

  /// Backward substitution over one region (LoopIdx = -1 for the whole
  /// graph). \p Need seeds per-node requirements that must hold on
  /// *every* visit (inside inner-loop units they feed invariant
  /// synthesis); \p FirstNeed seeds requirements that must hold only on
  /// the *first arrival* at an inner-loop unit's header (used by the
  /// inv.0 "true on entry" checks). \p BackEdgeF is plugged in at the
  /// region's own back edges. Returns the formula required at the region
  /// entry (header or program entry).
  FormulaRef backSubstRegion(int32_t LoopIdx,
                             const std::map<NodeId, FormulaRef> &Need,
                             const std::map<NodeId, FormulaRef> &FirstNeed,
                             const FormulaRef &BackEdgeF, bool &Failed);

  /// wlp of the loop body as a transformer: the formula required at the
  /// header so that \p X holds at the next arrival at the header.
  FormulaRef wlpAroundLoop(int32_t LoopIdx, const FormulaRef &X,
                           bool &Failed) {
    return backSubstRegion(LoopIdx, {}, {}, X, Failed);
  }

  /// Trial-invariant replacement candidates for W (generalizations and
  /// DNF disjuncts), ranked.
  std::vector<FormulaRef> candidates(int32_t LoopIdx, const FormulaRef &W);

  ProverResult implies(const FormulaRef &P, const FormulaRef &Q) {
    return TheProver.checkImplies(P, Q);
  }

  /// True when speculative VC-level parallelism is available: a pool
  /// with real workers (the prover's cache carries results back).
  bool canPrefetch() const {
    return Opts.Pool && Opts.Pool->workerCount() > 1;
  }

  /// Discharges the validity queries \p Queries concurrently on the
  /// pool, each on a per-worker prover over the shared cache. Purely a
  /// cache warmer: the sequential pass re-asks each query and hits. The
  /// queries are deduplicated by structural hash (dropping one by a
  /// hash collision only loses the prefetch, never correctness).
  void prefetchValidity(const std::vector<FormulaRef> &Queries);

  void computePureFacts();

  /// The innermost loop of a node, or -1.
  int32_t innermost(NodeId N) const { return Ctx.Loops->innermostLoop(N); }
  const Loop &loop(int32_t Idx) const { return Ctx.Loops->loops()[Idx]; }
  /// The unit of node N within region R: -1 when N is direct in R,
  /// otherwise the index of the outermost loop containing N whose parent
  /// is R.
  int32_t unitOf(int32_t Region, NodeId N) const {
    int32_t L = innermost(N);
    if (L == Region)
      return -1;
    while (L >= 0 && loop(L).Parent != Region)
      L = loop(L).Parent;
    return L;
  }

  /// Variables modified by the loop's body (cached), havoc instances
  /// aside — formulas free of these are invariant across the loop.
  const std::set<VarId> &modifiedIn(int32_t LoopIdx) {
    auto It = ModifiedCache.find(LoopIdx);
    if (It == ModifiedCache.end())
      It = ModifiedCache
               .emplace(LoopIdx, Wlp.modifiedVars(loop(LoopIdx).Body))
               .first;
    return It->second;
  }

  /// True when no free variable of \p F is modified by loop \p LoopIdx
  /// (havoc instances "h.*" count as unmodified: they are fixed unknowns).
  bool independentOfLoop(int32_t LoopIdx, const FormulaRef &F) {
    const std::set<VarId> &Modified = modifiedIn(LoopIdx);
    for (VarId V : F->freeVars())
      if (Modified.count(V))
        return false;
    return true;
  }

  const CheckContext &Ctx;
  const PropagationResult &Prop;
  const AnnotationResult &Annot;
  Prover &TheProver;
  GlobalVerifyOptions Opts;
  support::ResourceGovernor *Gov;
  WlpEngine Wlp;
  GlobalVerifyStats Stats;
  std::map<int32_t, std::set<VarId>> ModifiedCache;

  std::vector<NodeId> Rpo;
  std::vector<uint32_t> RpoIndex;
  /// LoopRpo[L]: loop L's reachable nodes in RPO order.
  std::vector<std::vector<NodeId>> LoopRpo;

  /// Entry-context facts that only involve pure symbols, usable as
  /// hypotheses anywhere in the program.
  FormulaRef PureFacts;

  /// Synthesized invariants per loop (the grouping enhancement).
  struct CachedInvariant {
    FormulaRef Qh;
    FormulaRef Linv;
    bool EntryEstablished;
  };
  std::map<int32_t, std::vector<CachedInvariant>> InvariantCache;

  unsigned RecursionDepth = 0;
  static constexpr unsigned MaxRecursionDepth = 24;
  /// A back-substituted formula larger than this fails its region.
  static constexpr size_t MaxFormulaSize = 20000;
};

void Verifier::prefetchValidity(const std::vector<FormulaRef> &Queries) {
  if (!canPrefetch() || (Gov && Gov->exhausted()))
    return;
  support::TraceSpan Span("global/prefetch");
  std::shared_ptr<ProverCache> SharedCache = TheProver.cacheHandle();
  Prover::Options ProverOpts = TheProver.options();
  // Speculative workers poll the governor but never charge prover
  // steps: the deterministic step sequence belongs to the sequential
  // pass alone (see Prover::Options::ChargeGovernorSteps).
  ProverOpts.ChargeGovernorSteps = false;
  // The check's formula generation, captured here: the thread that runs
  // a task may be a pool worker, or a thread helping another check.
  FormulaInterner *Gen = FormulaGeneration::current();
  std::unordered_set<size_t> Seen;
  support::TaskGroup Group(Opts.Pool);
  for (const FormulaRef &Q : Queries) {
    if (Q->isTrue() || !Seen.insert(Q->hash()).second)
      continue;
    ++Stats.SpeculativeQueries;
    Group.spawn([Q, SharedCache, ProverOpts, Gen] {
      // Pool tasks run outside the check's VarNamespace: names minted
      // while answering the query must not consume the check's
      // deterministic fresh-name counters. Their formulas still belong
      // to the check's generation, which outlives them (Group.wait()).
      // A throwing pool task would std::terminate the process, so the
      // speculative path absorbs everything (it is only a cache warmer;
      // the sequential pass recomputes whatever is missing).
      try {
        VarScopeSuspend NoScope;
        FormulaGenerationScope InCheck(Gen);
        Prover Local(ProverOpts, SharedCache);
        Local.checkValid(Q);
      } catch (...) {
      }
    });
  }
  Group.wait();
}

void Verifier::computePureFacts() {
  std::vector<FormulaRef> Pure;
  const FormulaRef &Entry = Ctx.EntryContext;
  auto Consider = [&Pure](const FormulaRef &F) {
    for (VarId V : F->freeVars())
      if (isFlowVarying(V))
        return;
    Pure.push_back(F);
  };
  if (Entry->kind() == FormulaKind::And) {
    for (const FormulaRef &Child : Entry->children())
      Consider(Child);
  } else {
    Consider(Entry);
  }
  PureFacts = Formula::conj(std::move(Pure));
}

FormulaRef
Verifier::backSubstRegion(int32_t LoopIdx,
                          const std::map<NodeId, FormulaRef> &Need,
                          const std::map<NodeId, FormulaRef> &FirstNeed,
                          const FormulaRef &BackEdgeF, bool &Failed) {
  NodeId EntryNode =
      LoopIdx < 0 ? Ctx.Graph.entry() : loop(LoopIdx).Header;
  auto InRegion = [&](NodeId N) {
    if (RpoIndex[N] == UINT32_MAX)
      return false;
    return LoopIdx < 0 || loop(LoopIdx).contains(N);
  };

  // phi[N]: the formula required when control reaches N (for unit
  // headers: at first arrival from outside the unit).
  std::map<NodeId, FormulaRef> Phi;
  auto NeedAt = [&Need](NodeId N) {
    auto It = Need.find(N);
    return It == Need.end() ? Formula::mkTrue() : It->second;
  };
  auto FirstNeedAt = [&FirstNeed](NodeId N) {
    auto It = FirstNeed.find(N);
    return It == FirstNeed.end() ? Formula::mkTrue() : It->second;
  };

  // Formula bytes charged against the governor while this region's phi
  // map is alive; released wholesale on every exit path.
  uint64_t ChargedBytes = 0;
  struct MemRelease {
    support::ResourceGovernor *Gov;
    uint64_t &Bytes;
    ~MemRelease() {
      if (Gov)
        Gov->releaseMemory(Bytes);
    }
  } Release{Gov, ChargedBytes};
  auto ChargePhi = [&](const FormulaRef &F) {
    if (!Gov)
      return true;
    uint64_t B = static_cast<uint64_t>(F->size()) * 48; // ~node footprint
    ChargedBytes += B;
    return Gov->noteMemory("global/phi", B);
  };

  // Process region nodes in reverse RPO (a reverse topological order of
  // the region DAG, since the graph is reducible).
  const std::vector<NodeId> &Order = LoopIdx < 0 ? Rpo : LoopRpo[LoopIdx];
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    NodeId N = *It;
    // Back-substitution is the checker's hottest unbounded loop (its
    // formulas can grow with every node): poll here so deadlines and
    // memory trips land promptly, failing the region rather than the
    // process.
    if (Gov && !Gov->poll("global/backsubst")) {
      Failed = true;
      return Formula::mkFalse();
    }
    int32_t Unit = unitOf(LoopIdx, N);

    if (Unit >= 0) {
      // Node inside an inner-loop unit: only its header produces a phi.
      if (N != loop(Unit).Header)
        continue;
      // Exit obligations of the unit: for each edge leaving the unit,
      // the successor's phi guarded by the edge condition, attached at
      // the edge source. Successor formulas that mention no variable the
      // unit modifies are invariant across it by construction and hoist
      // directly to the unit entry (the paper's observation that "the
      // tests in the inner loops will not contribute to the proof of a
      // condition of an outer loop").
      std::map<NodeId, FormulaRef> InnerNeed;
      std::vector<FormulaRef> Hoisted;
      for (NodeId X : loop(Unit).Body) {
        std::vector<FormulaRef> Terms;
        for (const CfgEdge &E : Ctx.Graph.node(X).Succs) {
          if (loop(Unit).contains(E.To))
            continue;
          FormulaRef Target = Formula::mkTrue();
          if (InRegion(E.To)) {
            auto PhiIt = Phi.find(E.To);
            // Reverse RPO guarantees forward targets are done.
            Target = PhiIt == Phi.end() ? Formula::mkTrue() : PhiIt->second;
          }
          if (Target->isTrue())
            continue;
          if (independentOfLoop(Unit, Target)) {
            Hoisted.push_back(Target);
            continue;
          }
          Terms.push_back(
              Formula::implies(Wlp.edgeCondition(E), Target));
        }
        // Obligations seeded inside the unit body join here as well.
        FormulaRef Seeded = NeedAt(X);
        if (!Seeded->isTrue())
          Terms.push_back(Seeded);
        if (!Terms.empty())
          InnerNeed[X] = Formula::conj(std::move(Terms));
      }
      FormulaRef UnitEntry = Formula::conj(std::move(Hoisted));
      if (!InnerNeed.empty()) {
        bool InnerFailed = false;
        FormulaRef Qh = backSubstRegion(Unit, InnerNeed, {},
                                        Formula::mkTrue(), InnerFailed);
        if (InnerFailed) {
          Failed = true;
          UnitEntry = Formula::mkFalse();
        } else {
          SynthesisResult R =
              synthesize(Unit, Qh, /*CheckEntry=*/false);
          if (R.Success) {
            UnitEntry = Formula::conj2(std::move(UnitEntry), R.Linv);
          } else {
            Failed = true;
            UnitEntry = Formula::mkFalse();
          }
        }
      }
      // First-arrival seeds (inv.0 checks) attach here, outside the
      // per-iteration synthesis.
      Phi[N] = Formula::conj2(FirstNeedAt(N), UnitEntry);
      ++Stats.BacksubstSteps;
      continue;
    }

    // Direct node of the region.
    std::vector<FormulaRef> Terms;
    for (const CfgEdge &E : Ctx.Graph.node(N).Succs) {
      FormulaRef Target;
      if (LoopIdx >= 0 && E.To == loop(LoopIdx).Header &&
          Ctx.Loops->isBackEdge(N, E.To)) {
        Target = BackEdgeF; // Around the loop.
      } else if (LoopIdx >= 0 && !loop(LoopIdx).contains(E.To)) {
        Target = Formula::mkTrue(); // Region exit.
      } else {
        NodeId SuccKey = E.To;
        int32_t SuccUnit = unitOf(LoopIdx, E.To);
        if (SuccUnit >= 0)
          SuccKey = loop(SuccUnit).Header;
        auto PhiIt = Phi.find(SuccKey);
        Target = PhiIt == Phi.end() ? Formula::mkTrue() : PhiIt->second;
      }
      if (Target->isTrue())
        continue;
      Terms.push_back(Formula::implies(Wlp.edgeCondition(E), Target));
    }
    FormulaRef Seeded = Formula::conj2(NeedAt(N), FirstNeedAt(N));
    // Nothing is required after N and nothing is seeded at it: its phi is
    // True, which an absent entry already reads as.
    if (Terms.empty() && Seeded->isTrue())
      continue;
    ++Stats.BacksubstSteps;
    FormulaRef Post = Formula::conj(std::move(Terms));
    FormulaRef Before =
        Formula::conj2(std::move(Seeded), Wlp.transformNode(N, Post));
    // Junction simplification (§5.2.2) keeps formulas from doubling at
    // every merge point.
    if (Ctx.Graph.node(N).Preds.size() != 1)
      Before = simplify(Before);
    if (Before->size() > MaxFormulaSize) {
      Failed = true;
      Before = Formula::mkFalse();
    }
    if (!ChargePhi(Before)) {
      Failed = true;
      return Formula::mkFalse();
    }
    Phi[N] = std::move(Before);
  }

  auto It = Phi.find(EntryNode);
  return It == Phi.end() ? Formula::mkTrue() : It->second;
}

std::vector<FormulaRef> Verifier::candidates(int32_t LoopIdx,
                                             const FormulaRef &W) {
  std::vector<FormulaRef> Result;
  std::set<VarId> Modified;
  {
    std::set<VarId> AllModified = Wlp.modifiedVars(loop(LoopIdx).Body);
    for (VarId V : W->freeVars()) {
      // Havoc instances ("h.*") denote arbitrary values chosen during one
      // symbolic traversal of the body; a useful invariant cannot mention
      // them, so they are always eliminated.
      if (AllModified.count(V) || startsWith(varName(V), "h."))
        Modified.insert(V);
    }
  }
  if (Opts.UseGeneralization && !Modified.empty()) {
    Stats.GeneralizationsTried++;
    for (FormulaRef &G : generalize(W, Modified))
      Result.push_back(std::move(G));
  }
  if (W->kind() == FormulaKind::Or) {
    // Each disjunct is a stronger candidate ("try each of its disjuncts
    // as W(i) in turn").
    for (const FormulaRef &D : W->children())
      Result.push_back(D);
  }
  // Rank: fewer free modified variables first, then smaller formulas —
  // loop-invariant-shaped candidates come first.
  auto Score = [this, LoopIdx](const FormulaRef &F) {
    std::set<VarId> AllModified = Wlp.modifiedVars(loop(LoopIdx).Body);
    size_t ModCount = 0;
    for (VarId V : F->freeVars())
      if (AllModified.count(V))
        ++ModCount;
    return std::make_pair(ModCount, F->size());
  };
  std::stable_sort(Result.begin(), Result.end(),
                   [&Score](const FormulaRef &A, const FormulaRef &B) {
                     return Score(A) < Score(B);
                   });
  // Deduplicate against W itself.
  std::vector<FormulaRef> Unique;
  for (FormulaRef &C : Result) {
    if (Formula::equal(C, W))
      continue;
    bool Dup = false;
    for (const FormulaRef &U : Unique)
      if (Formula::equal(U, C))
        Dup = true;
    if (!Dup)
      Unique.push_back(std::move(C));
  }
  return Unique;
}

Verifier::SynthesisResult Verifier::synthesize(int32_t LoopIdx,
                                               const FormulaRef &QhIn,
                                               bool CheckEntry) {
  support::TraceSpan Span("global/synthesize");
  SynthesisResult Result;
  FormulaRef Qh = simplify(QhIn);
  if (Qh->isTrue()) {
    Result.Success = true;
    Result.Linv = Formula::mkTrue();
    return Result;
  }

  // Independence shortcut: a goal that mentions nothing the loop
  // modifies is trivially invariant; only its truth on entry remains.
  if (independentOfLoop(LoopIdx, Qh)) {
    if (!CheckEntry ||
        proveAtFirstArrival(LoopIdx, Qh) == ProverResult::Proved) {
      Result.Success = true;
      Result.Linv = Qh;
      return Result;
    }
    return Result; // Not true on entry: cannot hold always.
  }

  // Forward-propagation shortcut (Section 6: "forward propagation of
  // information about array bounds ... eliminates the need to use
  // generalization"): the header's typestate assertions hold on every
  // arrival; if they already imply the goal, nothing needs synthesis and
  // nothing is required of the loop's entry.
  {
    NodeId Header = loop(LoopIdx).Header;
    FormulaRef HeaderFacts =
        Formula::conj2(Annot.Assertions[Header], PureFacts);
    if (implies(HeaderFacts, Qh) == ProverResult::Proved) {
      ++Stats.QuickDischarges;
      Result.Success = true;
      Result.Linv = Formula::mkTrue();
      return Result;
    }
  }

  // Grouping enhancement: reuse an invariant that subsumes this goal.
  if (Opts.ReuseInvariants) {
    for (const CachedInvariant &C : InvariantCache[LoopIdx]) {
      if (CheckEntry && !C.EntryEstablished)
        continue;
      if (implies(Formula::conj2(C.Linv, PureFacts), Qh) ==
          ProverResult::Proved) {
        ++Stats.InvariantReuses;
        Result.Success = true;
        Result.Linv = C.Linv;
        return Result;
      }
    }
  }

  if (++RecursionDepth > MaxRecursionDepth) {
    --RecursionDepth;
    return Result;
  }

  std::vector<FormulaRef> W = {Qh};
  std::vector<FormulaRef> Wlps; // Wlps[k] = wlpAround(W[k]).
  bool Failed = false;
  MCSAFE_TRACE_LOG("[synth L%d entry=%d] W0 = %s\n", LoopIdx,
                   int(CheckEntry), Qh->str().c_str());

  for (unsigned I = 0;; ++I) {
    // Induction iteration is the paper's potentially-unbounded search;
    // a governor trip abandons synthesis (FAILED → obligation Unknown).
    if (Gov && !Gov->poll("global/synthesize"))
      break;
    ++Stats.IterationsRun;
    // inv.1(I-1): (W(0) and ... and W(I-1)) => W(I).
    std::vector<FormulaRef> Prefix(W.begin(), W.begin() + I);
    FormulaRef LPrev = Formula::conj(std::move(Prefix));
    if (implies(Formula::conj2(LPrev, PureFacts), W[I]) ==
        ProverResult::Proved) {
      MCSAFE_TRACE_LOG("[synth L%d] inv1 proved at i=%u\n", LoopIdx, I);
      // SUCCESS: certify L = W(0..I-1) (or "true" if I == 0).
      FormulaRef Linv = LPrev;
      bool Certified = true;
      if (I > 0) {
        std::vector<FormulaRef> Body(Wlps.begin(), Wlps.begin() + I);
        FormulaRef Around = Formula::conj(std::move(Body));
        Certified = implies(Formula::conj2(Linv, PureFacts), Around) ==
                    ProverResult::Proved;
      }
      if (Certified) {
        --RecursionDepth;
        Result.Success = true;
        Result.Linv = Linv;
        ++Stats.InvariantsSynthesized;
        InvariantCache[LoopIdx].push_back({Qh, Linv, CheckEntry});
        return Result;
      }
      // Certification failed (a replacement broke the chain): give up.
      break;
    }

    if (I >= Opts.MaxIterations || Failed)
      break;

    // inv.1 failed. For I >= 1, try replacing W(I) with a stronger /
    // simpler candidate (generalization, DNF disjunct), breadth-first.
    // A candidate is acceptable only if it keeps the wlp chain intact
    // (L(I-1) and the candidate must still imply the original W(I), so
    // the final certification can succeed) and, when the loop entry is
    // known, holds on entry.
    if (I > 0) {
      std::vector<FormulaRef> Cands = candidates(LoopIdx, W[I]);
      if (Cands.size() > 1 && canPrefetch()) {
        // Discharge every candidate's chain implication concurrently;
        // the selection loop below re-asks them in ranked order and
        // reads the answers from the shared cache.
        std::vector<FormulaRef> Queries;
        Queries.reserve(Cands.size());
        for (const FormulaRef &C : Cands)
          Queries.push_back(Formula::implies(
              Formula::conj({LPrev, C, PureFacts}), W[I]));
        prefetchValidity(Queries);
      }
      for (const FormulaRef &C : Cands) {
        MCSAFE_TRACE_LOG("[synth L%d] candidate for W%u: %s\n", LoopIdx,
                         I, C->str().c_str());
        if (implies(Formula::conj({LPrev, C, PureFacts}), W[I]) !=
            ProverResult::Proved) {
          MCSAFE_TRACE_LOG("[synth L%d]   rejected (chain)\n", LoopIdx);
          continue;
        }
        if (CheckEntry) {
          if (proveAtFirstArrival(LoopIdx, C) != ProverResult::Proved) {
            MCSAFE_TRACE_LOG("[synth L%d]   rejected (entry)\n", LoopIdx);
            continue;
          }
        }
        MCSAFE_TRACE_LOG("[synth L%d]   accepted\n", LoopIdx);
        W[I] = C;
        break;
      }
    }
    // inv.0(I): W(I) must hold on entry to the loop.
    if (CheckEntry &&
        proveAtFirstArrival(LoopIdx, W[I]) != ProverResult::Proved) {
      MCSAFE_TRACE_LOG("[synth L%d] inv0 failed for W%u = %s\n", LoopIdx,
                       I, W[I]->str().c_str());
      break;
    }

    FormulaRef Next = simplify(wlpAroundLoop(LoopIdx, W[I], Failed));
    if (Failed)
      break;
    MCSAFE_TRACE_LOG("[synth L%d] W%u = %s\n", LoopIdx, I + 1,
                     Next->str().c_str());
    Wlps.push_back(Next);
    W.push_back(std::move(Next));
  }
  MCSAFE_TRACE_LOG("[synth L%d] FAILED\n", LoopIdx);
  --RecursionDepth;
  return Result;
}

ProverResult Verifier::proveAtFirstArrival(int32_t LoopIdx,
                                           const FormulaRef &W) {
  if (W->isTrue())
    return ProverResult::Proved;
  NodeId Header = loop(LoopIdx).Header;
  int32_t Parent = loop(LoopIdx).Parent;
  bool Failed = false;
  if (Parent < 0) {
    FormulaRef AtEntry = backSubstRegion(-1, {}, {{Header, W}},
                                         Formula::mkTrue(), Failed);
    if (Failed)
      return ProverResult::Unknown;
    return implies(Ctx.EntryContext, AtEntry);
  }
  FormulaRef Qh2 = backSubstRegion(Parent, {}, {{Header, W}},
                                   Formula::mkTrue(), Failed);
  if (Failed)
    return ProverResult::Unknown;
  return proveAtHeaderAlways(Parent, Qh2);
}

ProverResult Verifier::proveAtHeaderAlways(int32_t LoopIdx,
                                           const FormulaRef &Qh) {
  SynthesisResult R = synthesize(LoopIdx, Qh, /*CheckEntry=*/true);
  return R.Success ? ProverResult::Proved : ProverResult::Unknown;
}

ProverResult Verifier::proveAt(NodeId N, const FormulaRef &Q) {
  if (Q->isTrue())
    return ProverResult::Proved;
  // Quick discharge from the node's typestate assertions plus pure
  // facts — this is how null and alignment checks usually go through.
  FormulaRef Hypo = Formula::conj2(Annot.Assertions[N], PureFacts);
  if (implies(Hypo, Q) == ProverResult::Proved) {
    ++Stats.QuickDischarges;
    return ProverResult::Proved;
  }

  int32_t L = innermost(N);
  bool Failed = false;
  if (L < 0) {
    FormulaRef AtEntry = backSubstRegion(-1, {{N, Q}}, {},
                                         Formula::mkTrue(), Failed);
    if (Failed)
      return ProverResult::Unknown;
    return implies(Ctx.EntryContext, AtEntry);
  }
  FormulaRef Qh =
      backSubstRegion(L, {{N, Q}}, {}, Formula::mkTrue(), Failed);
  if (Failed)
    return ProverResult::Unknown;
  return proveAtHeaderAlways(L, Qh);
}

GlobalVerifyStats Verifier::run() {
  if (canPrefetch()) {
    // Corpus-level obligations mostly fall to the quick discharge from
    // node assertions; those queries are pairwise independent, so fire
    // them all concurrently before the sequential pass.
    std::vector<FormulaRef> Queries;
    for (const GlobalObligation &Ob : Annot.Obligations) {
      if (Prop.In[Ob.Node].isTop() || Ob.Q->isTrue())
        continue;
      Queries.push_back(Formula::implies(
          Formula::conj2(Annot.Assertions[Ob.Node], PureFacts), Ob.Q));
    }
    prefetchValidity(Queries);
  }
  // Records an obligation left undecided because the governor tripped:
  // a Global-phase CheckFailure (the program was never shown wrong), not
  // a violation diagnostic.
  auto RecordUnknown = [&](const GlobalObligation &Ob) {
    ++Stats.ObligationsUnknown;
    if (Ctx.Failures)
      Ctx.Failures->push_back(
          {CheckPhase::Global,
           Gov->exhaustedKind() == support::BudgetKind::Cancelled
               ? FailureKind::Cancelled
               : FailureKind::ResourceExhausted,
           Ob.Node, Ob.Description + ": undecided (" + Gov->reason() + ")"});
  };

  const std::vector<GlobalObligation> &Obs = Annot.Obligations;
  for (size_t I = 0; I < Obs.size(); ++I) {
    const GlobalObligation &Ob = Obs[I];
    if (Prop.In[Ob.Node].isTop())
      continue; // Unreachable node: vacuous.
    ProverResult R = ProverResult::Unknown;
    bool Decided = false;
    if (!Gov || Gov->poll("global/obligation")) {
      R = proveAt(Ob.Node, Ob.Q);
      // An Unknown produced while the governor is exhausted reflects the
      // interrupted search, not the obligation; only a completed query
      // (or a proof that landed before the trip) counts as an answer.
      Decided = R == ProverResult::Proved || !Gov || !Gov->exhausted();
    }
    if (R == ProverResult::Proved) {
      ++Stats.ObligationsProved;
      continue;
    }
    if (Decided) {
      ++Stats.ObligationsFailed;
      std::string Why = R == ProverResult::NotProved
                            ? "a counterexample exists"
                            : "the condition could not be proved";
      Ctx.Diags->report(DiagSeverity::Violation, Ob.Kind,
                        Ob.Description + ": " + Why + " [" + Ob.Q->str() +
                            "]",
                        Ob.Node, Ctx.Graph.sourceLine(Ob.Node));
      continue;
    }
    RecordUnknown(Ob);
    if (!Opts.FailSoft) {
      // Summarize the rest instead of enumerating every obligation the
      // budget will no longer reach.
      uint64_t Remaining = 0;
      for (size_t J = I + 1; J < Obs.size(); ++J)
        if (!Prop.In[Obs[J].Node].isTop())
          ++Remaining;
      Stats.ObligationsUnknown += Remaining;
      if (Remaining && Ctx.Failures)
        Ctx.Failures->push_back(
            {CheckPhase::Global, FailureKind::ResourceExhausted,
             std::nullopt,
             std::to_string(Remaining) +
                 " further obligation(s) undecided: " + Gov->reason()});
      break;
    }
  }
  if (Opts.InvariantSink)
    for (const auto &[LoopIdx, Cached] : InvariantCache)
      for (const CachedInvariant &CI : Cached)
        Opts.InvariantSink->push_back(
            {LoopIdx, CI.Qh, CI.Linv, CI.EntryEstablished});
  return Stats;
}

} // namespace

GlobalVerifyStats checker::verifyGlobal(const CheckContext &Ctx,
                                        const PropagationResult &Prop,
                                        const AnnotationResult &Annot,
                                        Prover &TheProver,
                                        const GlobalVerifyOptions &Opts) {
  Verifier V(Ctx, Prop, Annot, TheProver, Opts);
  return V.run();
}
