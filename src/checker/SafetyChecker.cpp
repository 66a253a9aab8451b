//===- SafetyChecker.cpp --------------------------------------------------===//

#include "checker/SafetyChecker.h"

#include "analysis/Lint.h"
#include "checker/Annotation.h"
#include "checker/Automata.h"
#include "checker/CertStore.h"
#include "checker/CheckContext.h"
#include "checker/Propagation.h"
#include "policy/PolicyParser.h"
#include "sparc/AsmParser.h"
#include "support/Trace.h"

#include <chrono>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t usSince(Clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Start)
          .count());
}

/// Measures one checker phase: an RAII pair of a trace span and a
/// microsecond counter under "<scope>/phase/<name>_us", plus the
/// cross-program latency histogram "phase/<name>_us".
class PhaseTimer {
public:
  PhaseTimer(support::MetricsRegistry *Metrics, const std::string &Scope,
             const char *SpanName, const char *Phase)
      : Span(SpanName, Scope), Metrics(Metrics), Scope(Scope),
        Phase(Phase), Start(Clock::now()) {}
  ~PhaseTimer() {
    if (!Metrics)
      return;
    uint64_t Us = usSince(Start);
    Metrics->counter(Scope + "/phase/" + Phase + "_us").inc(Us);
    Metrics->histogram(std::string("phase/") + Phase + "_us").observe(Us);
  }

private:
  support::TraceSpan Span;
  support::MetricsRegistry *Metrics;
  const std::string &Scope;
  const char *Phase;
  Clock::time_point Start;
};

void publishCounters(support::MetricsRegistry &Reg, const std::string &Scope,
                     const CheckReport &Report) {
  auto Put = [&](const char *Name, uint64_t V) {
    Reg.counter(Scope + "/" + Name).inc(V);
  };
  Put("typestate/node_visits", Report.TypestateNodeVisits);
  Put("local/checks", Report.LocalChecks);
  Put("local/violations", Report.LocalViolations);
  Put("global/obligations_proved", Report.Global.ObligationsProved);
  Put("global/obligations_failed", Report.Global.ObligationsFailed);
  Put("global/quick_discharges", Report.Global.QuickDischarges);
  Put("global/invariants_synthesized", Report.Global.InvariantsSynthesized);
  Put("global/invariant_reuses", Report.Global.InvariantReuses);
  Put("global/iterations_run", Report.Global.IterationsRun);
  Put("global/generalizations_tried", Report.Global.GeneralizationsTried);
  Put("global/speculative_queries", Report.Global.SpeculativeQueries);
  Put("prover/validity_queries", Report.ProverStats.ValidityQueries);
  Put("prover/sat_queries", Report.ProverStats.SatQueries);
  Put("prover/cache_hits", Report.ProverStats.CacheHits);
  Put("prover/cache_evictions", Report.ProverStats.CacheEvictions);
  Put("prover/budget_exhaustions", Report.ProverStats.BudgetExhaustions);
  Put("prover/tier/congruence/hits",
      Report.ProverStats.Tiers.CongruenceHits);
  Put("prover/tier/congruence/misses",
      Report.ProverStats.Tiers.CongruenceMisses);
  Put("prover/tier/interval/hits", Report.ProverStats.Tiers.IntervalHits);
  Put("prover/tier/interval/misses", Report.ProverStats.Tiers.IntervalMisses);
  Put("prover/tier/dbm/hits", Report.ProverStats.Tiers.DbmHits);
  Put("prover/tier/dbm/misses", Report.ProverStats.Tiers.DbmMisses);
  Put("prover/tier/omega/hits", Report.ProverStats.Tiers.OmegaHits);
  Put("prover/tier/omega/misses", Report.ProverStats.Tiers.OmegaMisses);
  forEachSliceCounter(Report.ProverStats, Put);
  Formula::InternStats Intern = Formula::internStats();
  Reg.gauge("intern/formulas").set(int64_t(Intern.Nodes));
  Reg.gauge("intern/dedup_hits").set(int64_t(Intern.DedupHits));
  Reg.gauge("intern/bytes").set(int64_t(Intern.Bytes));
  Put("omega/calls", Report.OmegaStats.Calls);
  Put("omega/eq_eliminations", Report.OmegaStats.EqEliminations);
  Put("omega/ineq_eliminations", Report.OmegaStats.IneqEliminations);
  Put("omega/dark_shadow_hits", Report.OmegaStats.DarkShadowHits);
  Put("omega/splinters", Report.OmegaStats.Splinters);
}

/// Converts Fatal diagnostics added at or after \p From into structured
/// CheckFailures attributed to \p Phase.
void captureFatals(CheckReport &Report, size_t From, CheckPhase Phase,
                   FailureKind Kind) {
  const std::vector<Diagnostic> &Diags = Report.Diags.diagnostics();
  for (size_t I = From; I < Diags.size(); ++I) {
    if (Diags[I].Severity != DiagSeverity::Fatal)
      continue;
    Report.Failures.push_back(
        {Phase, Kind, Diags[I].InstIndex, Diags[I].Message});
  }
}

} // namespace

CheckReport SafetyChecker::check(const sparc::Module &M,
                                 const policy::Policy &Pol) {
  CheckReport Report;
  // The process-boundary guarantee: no exception (allocator failure, a
  // checker bug, an injected fault) escapes a check. Anything thrown
  // becomes an InternalError verdict — meaningless as an answer, but
  // structured and crash-free.
  try {
    checkImpl(M, Pol, Report);
  } catch (const std::exception &E) {
    Report.Safe = false;
    Report.Verdict = CheckVerdict::InternalError;
    Report.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                               std::nullopt,
                               std::string("unhandled exception: ") +
                                   E.what()});
  } catch (...) {
    Report.Safe = false;
    Report.Verdict = CheckVerdict::InternalError;
    Report.Failures.push_back({CheckPhase::Driver, FailureKind::InternalError,
                               std::nullopt,
                               "unhandled non-standard exception"});
  }
  return Report;
}

void SafetyChecker::checkImpl(const sparc::Module &M,
                              const policy::Policy &Pol,
                              CheckReport &Report) {
  support::TraceSpan CheckSpan("checker/check", Opts.MetricScope);
  Clock::time_point CheckStart = Clock::now();

  // The governor: external if the caller supplied one, local if limits
  // were configured, absent (null — zero overhead) otherwise.
  support::ResourceGovernor LocalGov(Opts.Limits);
  support::ResourceGovernor *Gov = Opts.Governor;
  if (!Gov && Opts.Limits.any())
    Gov = &LocalGov;

  // Static characteristics of the untrusted code.
  Report.Chars.Instructions = M.size();
  for (const sparc::Instruction &Inst : M.Insts) {
    if (sparc::isConditionalBranch(Inst.Op))
      ++Report.Chars.Branches;
    if (Inst.Op == sparc::Opcode::CALL) {
      ++Report.Chars.Calls;
      if (!Inst.CalleeName.empty())
        ++Report.Chars.TrustedCalls;
    }
  }

  // Phase 1: preparation.
  size_t DiagsBefore = Report.Diags.diagnostics().size();
  std::optional<CheckContext> Ctx;
  {
    PhaseTimer T(Opts.Metrics, Opts.MetricScope, "checker/prepare",
                 "prepare");
    Ctx = prepare(M, Pol, Report.Diags);
  }
  if (!Ctx) {
    Report.InputsOk = false;
    Report.Verdict = CheckVerdict::MalformedInput;
    captureFatals(Report, DiagsBefore, CheckPhase::Prepare,
                  FailureKind::MalformedAssembly);
    return;
  }
  Report.InputsOk = true;
  Ctx->Governor = Gov;
  Ctx->Failures = &Report.Failures;
  Ctx->KnownBits = Opts.KnownBits;
  Report.Chars.Loops = static_cast<uint32_t>(Ctx->Loops->loops().size());
  Report.Chars.InnerLoops = Ctx->Loops->innerLoopCount();

  auto Finish = [&] {
    if (Opts.Metrics) {
      Opts.Metrics->counter(Opts.MetricScope + "/phase/total_us")
          .inc(usSince(CheckStart));
      publishCounters(*Opts.Metrics, Opts.MetricScope, Report);
      if (Gov) {
        auto &Reg = *Opts.Metrics;
        Reg.counter(Opts.MetricScope + "/governor/prover_steps")
            .inc(Gov->stepsUsed());
        Reg.counter(Opts.MetricScope + "/governor/mem_high_water")
            .inc(Gov->memoryHighWater());
        if (Gov->exhausted()) {
          Reg.counter(Opts.MetricScope + "/governor/exhausted/" +
                      support::budgetKindName(Gov->exhaustedKind()))
              .inc();
          Reg.counter(Opts.MetricScope + "/governor/died_at/" +
                      Gov->exhaustedSite())
              .inc();
        }
      }
    }
  };

  // A phase ran out of budget: record where, mark the check Unknown
  // (unless a violation was already proved — that verdict is sound and
  // stands), and skip the remaining phases. Partial results collected so
  // far stay in the report.
  auto Degrade = [&](CheckPhase Phase) {
    support::TraceSpan Died("governor/exhausted", Opts.MetricScope);
    Report.Failures.push_back(
        {Phase,
         Gov->exhaustedKind() == support::BudgetKind::Cancelled
             ? FailureKind::Cancelled
             : FailureKind::ResourceExhausted,
         std::nullopt, Gov->reason()});
    Report.Safe = false;
    Report.Verdict = Report.Diags.hasViolations() ? CheckVerdict::Unsafe
                                                  : CheckVerdict::Unknown;
    Finish();
  };

  // Phase 0: bit-vector dataflow lint. Fast-rejects definite
  // violations and computes the liveness the propagation phase uses to
  // prune dead registers.
  std::optional<analysis::LintResult> Lint;
  if (Opts.Lint) {
    PhaseTimer T(Opts.Metrics, Opts.MetricScope, "checker/lint", "lint");
    Lint.emplace(analysis::runLint(Ctx->Graph, Pol, Ctx->EntryStore,
                                   Report.Diags, &Ctx->Locs,
                                   Opts.KnownBits));
    Report.Chars.LintUninitUses = Lint->Stats.UninitUses;
    Report.Chars.DeadRegWrites = Lint->Stats.DeadRegWrites;
    Report.Chars.MisalignedAccesses = Lint->Stats.MisalignedAccesses;
    Report.Chars.MaxStackDelta = Lint->Stats.MaxStackDelta;
    Report.Chars.StackDeltaBounded = Lint->Stats.StackDeltaBounded;
    if (Opts.LintReject && Lint->Rejected) {
      // Every finding is a violation on all executions; the expensive
      // phases cannot prove the program safe.
      Report.LintRejected = true;
      Report.Safe = false;
      Report.Verdict = CheckVerdict::Unsafe;
      Finish();
      return;
    }
  }
  if (Gov && !Gov->poll("checker/after-lint"))
    return Degrade(CheckPhase::Lint);

  // Phase 2: typestate propagation.
  PropagationResult Prop;
  {
    PhaseTimer T(Opts.Metrics, Opts.MetricScope, "checker/typestate",
                 "typestate");
    Prop =
        propagate(*Ctx, Lint && Opts.PruneDeadRegs ? &Lint->Live : nullptr);
  }
  Report.TypestateNodeVisits = Prop.NodeVisits;
  // A partial typestate fixpoint may be *smaller* than the true one, and
  // the later phases could then "prove" safety from facts that do not
  // hold on all paths. Fail sound: when the fixpoint did not converge,
  // nothing downstream may run.
  if (Gov && Gov->exhausted())
    return Degrade(CheckPhase::Typestate);

  // Phases 3 + 4: annotation and local verification (including the
  // security-automaton extension, which is typestate-level checking).
  AnnotationResult Annot;
  {
    PhaseTimer T(Opts.Metrics, Opts.MetricScope, "checker/annotation",
                 "annotation");
    Annot = annotateAndVerifyLocal(*Ctx, Prop);
    Annot.LocalViolations += checkAutomata(*Ctx);
  }
  Report.LocalChecks = Annot.LocalChecks;
  Report.LocalViolations = Annot.LocalViolations;
  Report.Chars.GlobalConditions = Annot.Obligations.size();
  // An interrupted annotation pass has an incomplete obligation set;
  // running global verification over it could certify a program whose
  // unvisited nodes hide violations.
  if (Gov && Gov->exhausted())
    return Degrade(CheckPhase::Annotation);

  // Phase 5: global verification.
  {
    PhaseTimer T(Opts.Metrics, Opts.MetricScope, "checker/global",
                 "global");
    Prover::Options ProverOpts = Opts.ProverOpts;
    if (!ProverOpts.Governor)
      ProverOpts.Governor = Gov;
    // The congruence tier exists to discharge the atoms the known-bits
    // domain emits; without the domain it only burns cycles.
    ProverOpts.EnableCongruence = ProverOpts.EnableCongruence && Opts.KnownBits;
    GlobalVerifyOptions GlobalOpts = Opts.Global;
    GlobalOpts.FailSoft = GlobalOpts.FailSoft || Opts.FailSoft;
    Prover TheProver(ProverOpts, Opts.SharedProverCache);
    if (Opts.TranscriptSink)
      TheProver.setTranscript(Opts.TranscriptSink);
    Report.Global = verifyGlobal(*Ctx, Prop, Annot, TheProver, GlobalOpts);
    Report.ProverStats = TheProver.stats();
    Report.OmegaStats = TheProver.omegaStats();
  }

  Report.Safe = !Report.Diags.hasViolations() && !Report.Diags.hasFatal();
  if (Report.Diags.hasViolations()) {
    Report.Verdict = CheckVerdict::Unsafe;
  } else if (Report.Diags.hasFatal()) {
    Report.Verdict = CheckVerdict::MalformedInput;
  } else if (Gov && Gov->exhausted()) {
    // The global phase ran out mid-way: obligations it never reached are
    // recorded as failures, and "no violations found" must not read as
    // Safe when the search was cut short.
    Report.Safe = false;
    Report.Verdict = CheckVerdict::Unknown;
    if (Report.Failures.empty())
      Report.Failures.push_back(
          {CheckPhase::Global,
           Gov->exhaustedKind() == support::BudgetKind::Cancelled
               ? FailureKind::Cancelled
               : FailureKind::ResourceExhausted,
           std::nullopt, Gov->reason()});
  } else {
    Report.Verdict = CheckVerdict::Safe;
  }
  Finish();
}

CheckReport SafetyChecker::checkSource(std::string_view Asm,
                                       std::string_view PolicyText) {
  if (Opts.Certs)
    return checkWithCerts(Asm, PolicyText);
  CheckReport Report;
  try {
    std::string Error;
    std::optional<sparc::Module> M = sparc::assemble(Asm, &Error);
    if (!M) {
      Report.Diags.fatal("assembly error: " + Error);
      Report.Verdict = CheckVerdict::MalformedInput;
      Report.Failures.push_back({CheckPhase::Input,
                                 FailureKind::MalformedAssembly, std::nullopt,
                                 "assembly error: " + Error});
      return Report;
    }
    std::optional<policy::Policy> Pol =
        policy::parsePolicy(PolicyText, &Error);
    if (!Pol) {
      Report.Diags.fatal("policy error: " + Error);
      Report.Verdict = CheckVerdict::MalformedInput;
      Report.Failures.push_back({CheckPhase::Input,
                                 FailureKind::MalformedPolicy, std::nullopt,
                                 "policy error: " + Error});
      return Report;
    }
    return check(*M, *Pol);
  } catch (const std::exception &E) {
    Report.Safe = false;
    Report.Verdict = CheckVerdict::InternalError;
    Report.Failures.push_back({CheckPhase::Input, FailureKind::InternalError,
                               std::nullopt,
                               std::string("unhandled exception: ") +
                                   E.what()});
    return Report;
  } catch (...) {
    Report.Safe = false;
    Report.Verdict = CheckVerdict::InternalError;
    Report.Failures.push_back({CheckPhase::Input, FailureKind::InternalError,
                               std::nullopt,
                               "unhandled non-standard exception"});
    return Report;
  }
}

CheckReport SafetyChecker::checkWithCerts(std::string_view Asm,
                                          std::string_view PolicyText) {
  const std::string Config = canonicalCheckConfig(Opts);
  const uint64_t Key = CertStore::procedureKey(Asm, PolicyText, Config);

  Certificate Cert;
  if (Opts.Certs->load(Key, Asm, PolicyText, Config, Cert) ==
      CertStore::LoadOutcome::Hit) {
    if (revalidateCertificate(Cert, Opts))
      return std::move(Cert.Report);
    Opts.Certs->noteRevalidationFailure();
  }

  // Cold path, with certificate capture. The inner checker has no store
  // attached, so this cannot recurse.
  Certificate Fresh;
  Fresh.Asm = Asm;
  Fresh.Policy = PolicyText;
  Fresh.Config = Config;
  std::vector<SynthesizedInvariant> Invariants;
  Options ColdOpts = Opts;
  ColdOpts.Certs = nullptr;
  ColdOpts.TranscriptSink = &Fresh.Witnesses;
  ColdOpts.Global.InvariantSink = &Invariants;
  CheckReport Report = SafetyChecker(ColdOpts).checkSource(Asm, PolicyText);

  // Only definitive, fully-resourced runs are worth certifying: an
  // Unknown/Malformed/InternalError verdict (or any recorded failure —
  // budget exhaustion, cancellation) is not a pure function of the
  // inputs alone, so replaying it later could misreport.
  if ((Report.Verdict == CheckVerdict::Safe ||
       Report.Verdict == CheckVerdict::Unsafe) &&
      Report.Failures.empty()) {
    Fresh.Report = Report;
    Fresh.Invariants = std::move(Invariants);
    Opts.Certs->save(Key, Fresh);
  }
  return Report;
}
