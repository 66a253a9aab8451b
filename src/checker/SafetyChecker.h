//===- SafetyChecker.h - The five-phase safety checker ----------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: runs preparation, typestate
/// propagation, annotation, local verification, and global verification
/// over a piece of untrusted SPARC code and a host-provided safety
/// policy, and reports either "safe" or the places where safety
/// conditions are violated. Program characteristics are collected in
/// the same shape as the paper's Figure 9; per-phase wall-clock times go
/// to the metrics registry attached via Options::Metrics (reports hold
/// only deterministic data, so byte-comparing them is meaningful).
///
/// Typical use:
/// \code
///   mcsafe::checker::SafetyChecker Checker;
///   mcsafe::checker::CheckReport Report =
///       Checker.checkSource(AsmText, PolicyText);
///   if (!Report.Safe)
///     std::cout << Report.Diags.str();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CHECKER_SAFETYCHECKER_H
#define MCSAFE_CHECKER_SAFETYCHECKER_H

#include "checker/Failure.h"
#include "checker/GlobalVerify.h"
#include "constraints/Prover.h"
#include "policy/Policy.h"
#include "sparc/Module.h"
#include "support/Diagnostics.h"
#include "support/Governor.h"
#include "support/Metrics.h"

#include <string>
#include <string_view>
#include <vector>

namespace mcsafe {
namespace checker {

class CertStore;

/// Program characteristics, as in the upper half of Figure 9.
struct ProgramCharacteristics {
  uint32_t Instructions = 0;
  uint32_t Branches = 0;      ///< Conditional branches.
  uint32_t Loops = 0;         ///< Natural loops (on the inlined CFG).
  uint32_t InnerLoops = 0;    ///< Loops nested inside another loop.
  uint32_t Calls = 0;         ///< Call instructions.
  uint32_t TrustedCalls = 0;  ///< Calls to host (external) functions.
  uint64_t GlobalConditions = 0;

  // Phase-0 lint characteristics.
  uint32_t LintUninitUses = 0;  ///< Definite uninitialized-register uses.
  uint32_t DeadRegWrites = 0;   ///< Register writes no path reads again.
  uint32_t MisalignedAccesses = 0; ///< Provably misaligned accesses.
  int64_t MaxStackDelta = 0;    ///< Deepest constant %sp excursion, bytes.
  bool StackDeltaBounded = true; ///< All %sp deltas statically constant.
};

/// The result of checking one program against one policy.
struct CheckReport {
  /// False when the inputs were malformed or unsupported (assembly or
  /// policy errors, recursion, irreducible control flow).
  bool InputsOk = false;
  /// True when every safety condition was verified.
  bool Safe = false;

  /// The five-way outcome. Refines (InputsOk, Safe): Unknown means the
  /// checker gave up soundly (budget/cancellation) rather than proving
  /// anything; see Failure.h for the exit-code mapping.
  CheckVerdict Verdict = CheckVerdict::InternalError;

  /// Structured failures: every way this check fell short of a
  /// definitive verdict (malformed input, budget exhaustion,
  /// cancellation, internal errors), in the order encountered.
  std::vector<CheckFailure> Failures;

  /// The phase-0 lint proved a safety violation and the expensive
  /// phases were skipped (TypestateNodeVisits stays 0).
  bool LintRejected = false;

  DiagnosticEngine Diags;
  ProgramCharacteristics Chars;

  // Wall-clock values deliberately do NOT live here: every field of a
  // CheckReport is a deterministic function of the inputs, so reports
  // can be compared byte-for-byte across job counts and runs. Phase
  // times (Figure 9's time rows) are published to Options::Metrics as
  // "<scope>/phase/{prepare,lint,typestate,annotation,global,total}_us".

  /// Worklist visits of the typestate-propagation fixpoint (0 when the
  /// lint rejected first).
  uint64_t TypestateNodeVisits = 0;
  uint64_t LocalChecks = 0;
  uint64_t LocalViolations = 0;
  GlobalVerifyStats Global;
  Prover::Stats ProverStats;
  OmegaTest::Stats OmegaStats;
};

/// The safety checker.
class SafetyChecker {
public:
  struct Options {
    GlobalVerifyOptions Global;
    Prover::Options ProverOpts;
    /// When set, a cache that outlives the check (a batch's or a
    /// daemon's). The phase-5 prover and certificate revalidation keep
    /// the check's own queries in a private cache backed by this one,
    /// which sees only base-generation keys (certificate formulas); see
    /// ProverCache.h.
    std::shared_ptr<ProverCache> SharedProverCache;
    /// Run the phase-0 dataflow lint before typestate propagation.
    bool Lint = true;
    /// Track the known-bits (alignment) domain: propagate bit patterns
    /// through phase 2, emit divisibility atoms during annotation, run
    /// the lint's misaligned-access rule, and enable the prover's
    /// congruence tier. --no-knownbits in the driver.
    bool KnownBits = true;
    /// Let a definite lint violation skip the expensive phases.
    bool LintReject = true;
    /// Prune dead registers from propagated stores using lint liveness.
    bool PruneDeadRegs = true;
    /// Observability sink: when set, per-phase timings and all phase /
    /// prover / omega counters are published under
    /// "<MetricScope>/...". Null disables publication entirely.
    support::MetricsRegistry *Metrics = nullptr;
    /// Name prefix for this check's metrics, e.g. "program/Sum".
    std::string MetricScope = "check";
    /// Per-check resource limits. All-zero (the default) means
    /// unlimited, and the check runs with no governor at all — the
    /// poll points reduce to a null-pointer test.
    support::GovernorLimits Limits;
    /// External governor (overrides Limits). Lets a batch driver share
    /// one budget across many checks or cancel them cooperatively; the
    /// governor must outlive the check.
    support::ResourceGovernor *Governor = nullptr;
    /// On budget exhaustion in the global phase, keep enumerating the
    /// remaining obligations as individual Unknown failures instead of
    /// stopping at the first.
    bool FailSoft = false;
    /// Persistent certificate store (non-owning; see CertStore.h).
    /// checkSource() consults it: a validated hit replays the stored
    /// report without re-running the pipeline; a miss, stale entry, or
    /// failed revalidation falls back to a cold run that writes a fresh
    /// certificate. check() ignores it (keys are input-text digests).
    CertStore *Certs = nullptr;
    /// When set, the phase-5 prover appends its sat-query transcript
    /// here (certificate capture; set internally by the warm/cold
    /// wrapper, also usable by tests). Non-owning.
    std::vector<QueryRecord> *TranscriptSink = nullptr;
  };

  SafetyChecker() = default;
  explicit SafetyChecker(Options Opts) : Opts(Opts) {}

  /// Checks an assembled module against a parsed policy. Never throws:
  /// any exception escaping the pipeline becomes an InternalError
  /// verdict with a Driver-phase CheckFailure.
  CheckReport check(const sparc::Module &M, const policy::Policy &Pol);

  /// Convenience: assembles \p Asm, parses \p PolicyText, checks.
  /// Never throws; parse failures yield a MalformedInput verdict.
  CheckReport checkSource(std::string_view Asm,
                          std::string_view PolicyText);

private:
  void checkImpl(const sparc::Module &M, const policy::Policy &Pol,
                 CheckReport &Report);
  /// The certificate-store path of checkSource: warm hit -> revalidate
  /// and replay; otherwise run cold with capture and store the result.
  CheckReport checkWithCerts(std::string_view Asm,
                             std::string_view PolicyText);

  Options Opts;
};

} // namespace checker
} // namespace mcsafe

#endif // MCSAFE_CHECKER_SAFETYCHECKER_H
