//===- GlobalVerify.h - Phase 5: global verification ------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 5 verifies the global safety preconditions by program-
/// verification techniques (paper Section 5.2): demand-driven VC
/// generation one condition at a time, backward substitution over regions
/// in reverse topological order with simplification at junction points,
/// and the induction-iteration method (Suzuki-Ishihata) for loop-
/// invariant synthesis, with the paper's enhancements:
///
///   - nested loops: obligations crossing an inner loop trigger invariant
///     synthesis for the exit obligation, whose entry condition then
///     continues outward;
///   - DNF disjunct trial and generalization (not(eliminate(not f))) as
///     trial-invariant candidates, ranked and explored breadth-first;
///   - formula grouping: invariants already synthesized for a loop are
///     reused when they subsume a new obligation;
///   - a bound of three iterations (Section 5.2.3).
///
/// One deliberate strengthening over the 1977 algorithm: on success the
/// final trial invariant is *certified* — L(j) => wlp(body, L(j)) is
/// re-checked as a whole — so candidate replacement by generalization can
/// never produce an unsound "SUCCESS".
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CHECKER_GLOBALVERIFY_H
#define MCSAFE_CHECKER_GLOBALVERIFY_H

#include "checker/Annotation.h"
#include "checker/CheckContext.h"
#include "checker/Propagation.h"
#include "checker/Wlp.h"
#include "constraints/Prover.h"

#include <map>
#include <string>
#include <vector>

namespace mcsafe {
namespace support {
class ThreadPool;
} // namespace support

namespace checker {

/// A loop invariant the induction-iteration engine synthesized and
/// certified, exported for certificate storage:
/// which loop, the header obligation it discharges, the invariant itself,
/// and whether its establishment at loop entry was proved.
struct SynthesizedInvariant {
  int32_t LoopIdx;
  FormulaRef Qh;
  FormulaRef Linv;
  bool EntryEstablished;
};

/// Verification options. The paper's other enhancements — trying each
/// DNF disjunct as a candidate (§5.2.1), simplifying at junctions
/// (§5.2.2) and certifying every synthesized invariant — always run;
/// EXPERIMENTS.md records their ablation.
struct GlobalVerifyOptions {
  unsigned MaxIterations = 3;   ///< Induction-iteration bound (paper: 3).
  bool UseGeneralization = true;
  bool ReuseInvariants = true;  ///< The grouping enhancement.
  /// When set, independent verification conditions — per-obligation
  /// quick-discharge queries and induction-iteration candidate-invariant
  /// implications — are discharged concurrently on the pool by
  /// per-worker provers sharing the main prover's cache. The sequential decision logic then reads
  /// every result back from the cache, so verdicts and reports are
  /// byte-identical with or without a pool (results are pure functions
  /// of formula structure and budget). Non-owning.
  support::ThreadPool *Pool = nullptr;
  /// When the governor trips mid-run, keep walking the remaining
  /// obligations and record each as its own Unknown failure (instead of
  /// one summary failure for the rest). Costs one pass over the
  /// obligation list; proves nothing further.
  bool FailSoft = false;
  /// When set, every invariant synthesized during the run is appended
  /// here at the end (certificate capture). Non-owning.
  std::vector<SynthesizedInvariant> *InvariantSink = nullptr;
  /// Debug-trace the induction-iteration search to stderr. Drivers set
  /// this from MCSAFE_TRACE (the CLI, once per invocation) or from the
  /// request header (mcsafe-serve, per request) — it is a per-check
  /// option, never a process-latched environment read, so a resident
  /// daemon can honor different settings on every request. Diagnostic
  /// output only: it never changes a verdict or a report byte, so it is
  /// deliberately NOT part of canonicalCheckConfig().
  bool DebugTrace = false;
};

/// Per-run statistics.
struct GlobalVerifyStats {
  uint64_t ObligationsProved = 0;
  uint64_t ObligationsFailed = 0;
  /// Obligations left undecided because a resource budget tripped (they
  /// are CheckFailures, not violations: the program was never shown
  /// wrong, the checker just ran out).
  uint64_t ObligationsUnknown = 0;
  uint64_t QuickDischarges = 0; ///< Proved from node assertions alone.
  uint64_t InvariantsSynthesized = 0;
  uint64_t InvariantReuses = 0;
  uint64_t IterationsRun = 0;
  uint64_t GeneralizationsTried = 0;
  /// Verification conditions discharged speculatively on the thread pool
  /// (their results are consumed through the shared prover cache).
  uint64_t SpeculativeQueries = 0;
  /// Nodes whose back-substitution formula was computed, summed over
  /// every region walk (machine-independent; pinned per corpus program).
  uint64_t BacksubstSteps = 0;
};

/// Runs phase 5 over the annotation result. Unproved obligations are
/// reported as violations into Ctx.Diags ("identify the places where the
/// safety conditions were violated").
GlobalVerifyStats verifyGlobal(const CheckContext &Ctx,
                               const PropagationResult &Prop,
                               const AnnotationResult &Annot,
                               Prover &TheProver,
                               const GlobalVerifyOptions &Opts = {});

} // namespace checker
} // namespace mcsafe

#endif // MCSAFE_CHECKER_GLOBALVERIFY_H
