//===- main.cpp - The mcsafe-check command-line tool ----------------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
// Checks a piece of untrusted SPARC code against a host safety policy:
//
//   mcsafe-check prog.s policy.pol [-v] [--listing] [--conditions]
//                                  [--lint-only] [--no-lint]
//   mcsafe-check --corpus Sum [-v]
//   mcsafe-check --corpus all [--phase-table] [--metrics-json m.json]
//   mcsafe-check --list-corpus
//
// Exit status (see DESIGN.md section 8):
//   0 = safe, 1 = safety violations, 2 = malformed inputs,
//   3 = unknown (a resource budget expired first), 4 = internal error.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "checker/Annotation.h"
#include "checker/CertStore.h"
#include "checker/CheckContext.h"
#include "checker/Propagation.h"
#include "checker/ParallelCheck.h"
#include "checker/Report.h"
#include "checker/SafetyChecker.h"
#include "serve/Client.h"
#include "support/FaultInjection.h"
#include "support/Governor.h"
#include "support/Io.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "corpus/Corpus.h"
#include "policy/PolicyParser.h"
#include "sparc/AsmParser.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

/// Reads a file fully, in binary (inputs are untrusted bytes; text mode
/// would silently rewrite them on some platforms), retrying interrupted
/// syscalls. Missing/unreadable (with strerror) and empty files are
/// distinguished, not conflated.
std::optional<std::string> readFile(const std::string &Path,
                                    std::string &Error) {
  return support::readWholeFile(Path, Error);
}

void usage() {
  std::printf(
      "usage: mcsafe-check <prog.s> <policy.pol> [options]\n"
      "       mcsafe-check --corpus <name> [options]\n"
      "       mcsafe-check --corpus all [options]\n"
      "       mcsafe-check --list-corpus\n"
      "options:\n"
      "  -v             verbose: listing + conditions + statistics\n"
      "                 (statistics only with --corpus all)\n"
      "  --listing      print the per-instruction typestates (Figure 6)\n"
      "  --conditions   print the global safety preconditions (Figure 3)\n"
      "                 (--listing and --conditions need one program)\n"
      "  --lint-only    run only the phase-0 dataflow lint\n"
      "  --no-lint      disable the phase-0 lint (and dead-reg pruning)\n"
      "  --jobs N       verify with N worker threads (default: hardware\n"
      "                 concurrency); verdicts are identical for any N\n"
      "  --trace FILE   write a Chrome trace_event JSON span timeline\n"
      "                 (load at chrome://tracing or ui.perfetto.dev)\n"
      "  --metrics-json FILE\n"
      "                 write all collected metrics (per-phase timings,\n"
      "                 prover/cache/pool counters) as JSON\n"
      "  --phase-table  with --corpus all: per-program phase-time\n"
      "                 breakdown in the layout of the paper's Figure 9\n"
      "  --deadline-ms N\n"
      "                 give up with verdict UNKNOWN after N milliseconds\n"
      "  --prover-steps N\n"
      "                 give up with verdict UNKNOWN after N prover\n"
      "                 queries (deterministic, unlike --deadline-ms)\n"
      "  --fail-soft    keep verifying the remaining obligations after a\n"
      "                 budget expires instead of stopping at the first\n"
      "  --no-knownbits disable the known-bits (alignment) domain: no\n"
      "                 bit-pattern propagation, no divisibility atoms,\n"
      "                 no misaligned-access lint, no congruence tier\n"
      "  --fault-seed N enable the deterministic fault-injection plan\n"
      "                 with seed N (needs an MCSAFE_FAULT_INJECTION\n"
      "                 build; a no-op otherwise)\n"
      "  --cert-store DIR\n"
      "                 persistent certificate store: a check whose\n"
      "                 inputs and configuration match a stored\n"
      "                 certificate revalidates it instead of re-running\n"
      "                 the pipeline (identical verdicts and reports\n"
      "                 either way); misses and corrupt entries fall\n"
      "                 back to a cold run and write a fresh\n"
      "                 certificate (counters: cert/store/* in\n"
      "                 --metrics-json)\n"
      "  --connect SOCK check on a running mcsafe-serve daemon instead\n"
      "                 of in-process; the printed report is\n"
      "                 byte-identical to a local run (rendering flags\n"
      "                 like --listing are not available)\n"
      "  --connect-timeout-ms N\n"
      "                 with --connect: bound the connect and every\n"
      "                 server response wait; a wedged daemon fails\n"
      "                 with a structured driver/internal-error instead\n"
      "                 of hanging (default %u, 0 = wait forever)\n"
      "  --ping         with --connect: round-trip a ping and exit\n"
      "  --server-stats with --connect: print the daemon's metrics JSON\n"
      "  --shutdown     with --connect: stop the daemon\n"
      "exit codes: 0 safe, 1 unsafe, 2 malformed input, 3 unknown,\n"
      "            4 internal error\n",
      serve::Client::DefaultTimeoutMs);
}

enum class LintMode { On, Off, Only };

/// Observability state shared by the run modes: one registry for the
/// whole invocation, plus the output files requested on the command
/// line (written by main after the run).
struct Observability {
  support::MetricsRegistry Registry;
  std::string TracePath;
  std::string MetricsPath;
  bool PhaseTable = false;
};

/// Resource-governor settings from the command line, applied to every
/// check this invocation runs.
struct GovernorConfig {
  support::GovernorLimits Limits;
  bool FailSoft = false;
  /// --no-knownbits: switch off the known-bits domain everywhere it
  /// surfaces (typestate, annotation, lint, congruence tier).
  bool EnableKnownBits = true;
  /// MCSAFE_TRACE: stderr-trace the induction-iteration search. Read
  /// from the environment once per invocation here in the driver — the
  /// checker itself takes it as a plain per-check option.
  bool DebugTrace = false;
};

/// Reads a microsecond counter back out of the registry as seconds.
double scopeSeconds(const support::MetricsRegistry &Reg,
                    const std::string &Scope, const char *Phase) {
  return support::usToSeconds(
      Reg.value(Scope + "/phase/" + Phase + "_us").value_or(0));
}

/// Runs just the phase-0 lint and reports its findings.
int runLintOnly(const std::string &Asm, const std::string &Policy,
                bool Stats) {
  std::string Error;
  std::optional<sparc::Module> M = sparc::assemble(Asm, &Error);
  if (!M) {
    std::fprintf(stderr, "assembly error: %s\n", Error.c_str());
    return 2;
  }
  std::optional<policy::Policy> Pol = policy::parsePolicy(Policy, &Error);
  if (!Pol) {
    std::fprintf(stderr, "policy error: %s\n", Error.c_str());
    return 2;
  }
  DiagnosticEngine Diags;
  std::optional<CheckContext> Ctx = prepare(*M, *Pol, Diags);
  if (!Ctx) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }
  analysis::LintResult Lint =
      analysis::runLint(Ctx->Graph, *Pol, Ctx->EntryStore, Diags);
  std::printf("lint verdict: %s\n", Lint.Rejected ? "UNSAFE" : "PASSED");
  if (Lint.Rejected)
    std::printf("%s", Diags.str().c_str());
  if (Stats)
    std::printf("lint: uninit uses %u, dead writes %u, max stack delta "
                "%lld bytes (%s)\n",
                Lint.Stats.UninitUses, Lint.Stats.DeadRegWrites,
                static_cast<long long>(Lint.Stats.MaxStackDelta),
                Lint.Stats.StackDeltaBounded ? "bounded" : "unbounded");
  return Lint.Rejected ? 1 : 0;
}

int runCheck(const std::string &Asm, const std::string &Policy,
             bool Listing, bool Conditions, bool Stats, LintMode Lint,
             unsigned Jobs, const GovernorConfig &Gov, Observability &Obs,
             CertStore *Certs) {
  if (Lint == LintMode::Only)
    return runLintOnly(Asm, Policy, Stats);
  SafetyChecker::Options Opts;
  Opts.Metrics = &Obs.Registry;
  Opts.Certs = Certs;
  Opts.Limits = Gov.Limits;
  Opts.FailSoft = Gov.FailSoft;
  Opts.KnownBits = Gov.EnableKnownBits;
  Opts.Global.DebugTrace = Gov.DebugTrace;
  if (Lint == LintMode::Off) {
    Opts.Lint = false;
    Opts.PruneDeadRegs = false;
  }
  if (Jobs == 0)
    Jobs = support::ThreadPool::hardwareConcurrency();
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1) {
    Pool = std::make_unique<support::ThreadPool>(Jobs);
    Opts.Global.Pool = Pool.get();
  }
  SafetyChecker Checker(Opts);
  CheckReport R = Checker.checkSource(Asm, Policy);
  if (!R.InputsOk) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    for (const CheckFailure &F : R.Failures)
      std::fprintf(stderr, "failure: %s\n", F.str().c_str());
    return exitCode(R.Verdict);
  }

  if (Listing || Conditions) {
    // Re-run the front phases to render the intermediate views (the
    // checker API deliberately keeps CheckReport small).
    std::string Error;
    std::optional<sparc::Module> M = sparc::assemble(Asm, &Error);
    std::optional<policy::Policy> Pol = policy::parsePolicy(Policy, &Error);
    DiagnosticEngine Diags;
    if (M && Pol) {
      std::optional<CheckContext> Ctx = prepare(*M, *Pol, Diags);
      if (Ctx) {
        PropagationResult Prop = propagate(*Ctx);
        if (Listing) {
          std::printf("--- typestates (Figure 6 view) ---\n%s\n",
                      renderTypestateListing(*Ctx, Prop).c_str());
        }
        if (Conditions) {
          AnnotationResult Annot = annotateAndVerifyLocal(*Ctx, Prop);
          std::printf("--- global safety preconditions ---\n%s\n",
                      renderObligations(*Ctx, Annot).c_str());
        }
      }
    }
  }

  std::printf("verdict: %s%s\n", verdictName(R.Verdict),
              R.LintRejected ? " (rejected by phase-0 lint)" : "");
  if (!R.Safe)
    std::printf("%s", R.Diags.str().c_str());
  for (const CheckFailure &F : R.Failures)
    std::printf("failure: %s\n", F.str().c_str());
  if (Stats) {
    std::printf(
        "instructions: %u, branches: %u, loops: %u (%u inner), "
        "calls: %u (%u trusted)\n",
        R.Chars.Instructions, R.Chars.Branches, R.Chars.Loops,
        R.Chars.InnerLoops, R.Chars.Calls, R.Chars.TrustedCalls);
    if (Lint == LintMode::On)
      std::printf("lint: uninit uses %u, dead writes %u, max stack delta "
                  "%lld bytes (%s)\n",
                  R.Chars.LintUninitUses, R.Chars.DeadRegWrites,
                  static_cast<long long>(R.Chars.MaxStackDelta),
                  R.Chars.StackDeltaBounded ? "bounded" : "unbounded");
    std::printf(
        "global conditions: %llu (proved %llu, failed %llu, quick %llu), "
        "invariants: %llu (+%llu reused)\n",
        static_cast<unsigned long long>(R.Chars.GlobalConditions),
        static_cast<unsigned long long>(R.Global.ObligationsProved),
        static_cast<unsigned long long>(R.Global.ObligationsFailed),
        static_cast<unsigned long long>(R.Global.QuickDischarges),
        static_cast<unsigned long long>(R.Global.InvariantsSynthesized),
        static_cast<unsigned long long>(R.Global.InvariantReuses));
    std::printf(
        "prover: %llu validity + %llu sat queries, %llu cache hits, "
        "%llu evictions, %llu budget exhaustions, %llu speculative "
        "(jobs %u)\n",
        static_cast<unsigned long long>(R.ProverStats.ValidityQueries),
        static_cast<unsigned long long>(R.ProverStats.SatQueries),
        static_cast<unsigned long long>(R.ProverStats.CacheHits),
        static_cast<unsigned long long>(R.ProverStats.CacheEvictions),
        static_cast<unsigned long long>(R.ProverStats.BudgetExhaustions),
        static_cast<unsigned long long>(R.Global.SpeculativeQueries), Jobs);
    // Wall-clock values come from the registry — CheckReport holds only
    // deterministic data.
    const support::MetricsRegistry &Reg = Obs.Registry;
    const std::string Scope = "check";
    std::printf("times: lint %.4fs, typestate %.4fs (%llu visits), "
                "annotation+local %.4fs, global %.4fs, total %.4fs\n",
                scopeSeconds(Reg, Scope, "lint"),
                scopeSeconds(Reg, Scope, "typestate"),
                static_cast<unsigned long long>(R.TypestateNodeVisits),
                scopeSeconds(Reg, Scope, "annotation"),
                scopeSeconds(Reg, Scope, "global"),
                scopeSeconds(Reg, Scope, "total"));
  }
  return exitCode(R.Verdict);
}

/// Prints the per-program phase breakdown in the layout of the paper's
/// Figure 9: programs as columns; characteristics, then per-phase times,
/// as rows. All values come from the metrics registry.
void printPhaseTable(const support::MetricsRegistry &Reg,
                     const ParallelCheckResult &R) {
  std::vector<const ParallelCheckResult::Program *> Ps;
  for (const ParallelCheckResult::Program &P : R.Programs)
    if (P.Report.InputsOk)
      Ps.push_back(&P);
  if (Ps.empty())
    return;

  // Rows are collected first so every column's width can be computed
  // from the content actually rendered (a fixed width truncates or
  // misaligns once a program name, label, or counter outgrows it).
  std::vector<std::pair<std::string, std::vector<std::string>>> Rows;
  auto Row = [&](const char *Label, auto Cell) {
    std::vector<std::string> Cells;
    Cells.reserve(Ps.size());
    for (const auto *P : Ps)
      Cells.push_back(Cell(*P));
    Rows.emplace_back(Label, std::move(Cells));
  };
  auto Num = [](uint64_t V) { return std::to_string(V); };
  auto Sec = [&](const ParallelCheckResult::Program &P, const char *Ph) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.4f",
                  scopeSeconds(Reg, "program/" + P.Name, Ph));
    return std::string(Buf);
  };

  Row("program", [](const auto &P) { return P.Name; });
  Row("instructions",
      [&](const auto &P) { return Num(P.Report.Chars.Instructions); });
  Row("branches",
      [&](const auto &P) { return Num(P.Report.Chars.Branches); });
  Row("loops", [&](const auto &P) { return Num(P.Report.Chars.Loops); });
  Row("inner loops",
      [&](const auto &P) { return Num(P.Report.Chars.InnerLoops); });
  Row("trusted calls",
      [&](const auto &P) { return Num(P.Report.Chars.TrustedCalls); });
  Row("global conditions",
      [&](const auto &P) { return Num(P.Report.Chars.GlobalConditions); });
  auto Cnt = [&](const ParallelCheckResult::Program &P, const char *Name) {
    return Num(uint64_t(
        Reg.value("program/" + P.Name + "/" + Name).value_or(0)));
  };
  Row("tier congruence hits",
      [&](const auto &P) { return Cnt(P, "prover/tier/congruence/hits"); });
  Row("tier interval hits",
      [&](const auto &P) { return Cnt(P, "prover/tier/interval/hits"); });
  Row("tier dbm hits",
      [&](const auto &P) { return Cnt(P, "prover/tier/dbm/hits"); });
  Row("tier omega hits",
      [&](const auto &P) { return Cnt(P, "prover/tier/omega/hits"); });
  Row("slice components",
      [&](const auto &P) { return Cnt(P, "prover/slice/components"); });
  Row("slice cache hits",
      [&](const auto &P) { return Cnt(P, "prover/slice/cache_hits"); });
  Row("slice omega avoided",
      [&](const auto &P) { return Cnt(P, "prover/slice/omega_avoided"); });
  Row("lint (s)", [&](const auto &P) { return Sec(P, "lint"); });
  Row("typestate (s)", [&](const auto &P) { return Sec(P, "typestate"); });
  Row("annotation+local (s)",
      [&](const auto &P) { return Sec(P, "annotation"); });
  Row("global verify (s)", [&](const auto &P) { return Sec(P, "global"); });
  Row("total (s)", [&](const auto &P) { return Sec(P, "total"); });

  size_t LabelWidth = 0;
  for (const auto &[Label, Cells] : Rows) {
    (void)Cells;
    LabelWidth = std::max(LabelWidth, Label.size());
  }
  std::vector<size_t> ColWidth(Ps.size(), 0);
  for (const auto &[Label, Cells] : Rows) {
    (void)Label;
    for (size_t I = 0; I < Cells.size(); ++I)
      ColWidth[I] = std::max(ColWidth[I], Cells[I].size());
  }

  std::printf("--- phase breakdown (Figure 9 layout) ---\n");
  for (const auto &[Label, Cells] : Rows) {
    std::printf("%-*s", static_cast<int>(LabelWidth), Label.c_str());
    for (size_t I = 0; I < Cells.size(); ++I)
      std::printf("  %*s", static_cast<int>(ColWidth[I]), Cells[I].c_str());
    std::printf("\n");
  }
}

/// Checks the whole corpus, possibly in parallel. The non-verbose output
/// is the deterministic batch report — byte-identical for any job count.
int runCorpusAll(bool Stats, LintMode Lint, unsigned Jobs,
                 const GovernorConfig &Gov, Observability &Obs,
                 CertStore *Certs) {
  ParallelCheckOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Metrics = &Obs.Registry;
  Opts.Check.Certs = Certs;
  Opts.Check.Limits = Gov.Limits;
  Opts.Check.FailSoft = Gov.FailSoft;
  Opts.Check.KnownBits = Gov.EnableKnownBits;
  Opts.Check.Global.DebugTrace = Gov.DebugTrace;
  if (Lint == LintMode::Off) {
    Opts.Check.Lint = false;
    Opts.Check.PruneDeadRegs = false;
  }
  std::vector<CheckJob> Jobs2;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    Jobs2.push_back({P.Name, P.Asm, P.Policy});
  ParallelCheckResult R = checkJobs(Jobs2, Opts);

  std::printf("%s", renderParallelReport(R).c_str());
  unsigned Counts[5] = {0, 0, 0, 0, 0};
  for (const ParallelCheckResult::Program &P : R.Programs)
    ++Counts[exitCode(P.Report.Verdict)];
  std::printf("total: %zu programs, %u safe, %u unsafe, %u malformed, "
              "%u unknown, %u errors\n",
              R.Programs.size(), Counts[0], Counts[1], Counts[2], Counts[3],
              Counts[4]);

  const support::MetricsRegistry &Reg = Obs.Registry;
  if (Obs.PhaseTable)
    printPhaseTable(Reg, R);

  if (Stats) {
    double LintS = 0, Typestate = 0, Annotation = 0, Global = 0;
    uint64_t Validity = 0, Sat = 0, Hits = 0, Speculative = 0;
    for (const ParallelCheckResult::Program &P : R.Programs) {
      std::string Scope = "program/" + P.Name;
      LintS += scopeSeconds(Reg, Scope, "lint");
      Typestate += scopeSeconds(Reg, Scope, "typestate");
      Annotation += scopeSeconds(Reg, Scope, "annotation");
      Global += scopeSeconds(Reg, Scope, "global");
      Validity += P.Report.ProverStats.ValidityQueries;
      Sat += P.Report.ProverStats.SatQueries;
      Hits += P.Report.ProverStats.CacheHits;
      Speculative += P.Report.Global.SpeculativeQueries;
    }
    std::printf("jobs: %u, wall: %.4fs (cpu: lint %.4fs, typestate %.4fs, "
                "annotation+local %.4fs, global %.4fs)\n",
                R.JobsUsed,
                support::usToSeconds(Reg.value("parallel/wall_us").value_or(0)),
                LintS, Typestate, Annotation, Global);
    std::printf("prover: %llu validity + %llu sat queries, %llu per-prover "
                "cache hits, %llu speculative\n",
                static_cast<unsigned long long>(Validity),
                static_cast<unsigned long long>(Sat),
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Speculative));
    std::printf("shared cache: %lld hits, %lld misses, %lld insertions, "
                "%lld evictions, %lld entries\n",
                static_cast<long long>(
                    Reg.value("cache/shared/hits").value_or(0)),
                static_cast<long long>(
                    Reg.value("cache/shared/misses").value_or(0)),
                static_cast<long long>(
                    Reg.value("cache/shared/insertions").value_or(0)),
                static_cast<long long>(
                    Reg.value("cache/shared/evictions").value_or(0)),
                static_cast<long long>(
                    Reg.value("cache/shared/entries").value_or(0)));
    std::printf("pool: %lld tasks (%lld steals), idle %.4fs\n",
                static_cast<long long>(
                    Reg.value("pool/executed").value_or(0)),
                static_cast<long long>(Reg.value("pool/steals").value_or(0)),
                support::usToSeconds(Reg.value("pool/idle_us").value_or(0)));
  }
  // The most alarming verdict in the batch wins the exit status:
  // internal errors over malformed inputs over unknowns over violations.
  if (Counts[4])
    return 4;
  if (Counts[2])
    return 2;
  if (Counts[3])
    return 3;
  return Counts[1] ? 1 : 0;
}

/// The request-side image of this invocation's checking options. The
/// defaults mirror the local code paths exactly, which is what makes
/// daemon output byte-comparable to a local run.
serve::CheckRequestMsg makeRequest(uint64_t Id, std::string Name,
                                   std::string Asm, std::string Policy,
                                   LintMode Lint,
                                   const GovernorConfig &Gov) {
  serve::CheckRequestMsg Req;
  Req.ReqId = Id;
  Req.Name = std::move(Name);
  Req.Asm = std::move(Asm);
  Req.Policy = std::move(Policy);
  Req.DeadlineMs = Gov.Limits.DeadlineMs;
  Req.ProverSteps = Gov.Limits.ProverSteps;
  Req.Flags = 0;
  if (Lint != LintMode::Off)
    Req.Flags |= serve::ReqFlagLint;
  if (Gov.EnableKnownBits)
    Req.Flags |= serve::ReqFlagKnownBits;
  if (Gov.FailSoft)
    Req.Flags |= serve::ReqFlagFailSoft;
  if (Gov.DebugTrace)
    Req.Flags |= serve::ReqFlagTrace;
  return Req;
}

/// Renders a remote single-check report exactly as runCheck renders a
/// local one (minus the stats/listing extras, which are rejected with
/// --connect).
int renderRemoteSingle(const CheckReport &R) {
  if (!R.InputsOk) {
    std::fprintf(stderr, "%s", R.Diags.str().c_str());
    for (const CheckFailure &F : R.Failures)
      std::fprintf(stderr, "failure: %s\n", F.str().c_str());
    return exitCode(R.Verdict);
  }
  std::printf("verdict: %s%s\n", verdictName(R.Verdict),
              R.LintRejected ? " (rejected by phase-0 lint)" : "");
  if (!R.Safe)
    std::printf("%s", R.Diags.str().c_str());
  for (const CheckFailure &F : R.Failures)
    std::printf("failure: %s\n", F.str().c_str());
  return exitCode(R.Verdict);
}

/// Transport-level failures against the daemon (connection refused,
/// no response within --connect-timeout-ms, mid-stream disconnect) are
/// reported in the same structured form as in-report failures rather
/// than as a bare string, so scripted callers can parse them uniformly.
int transportFailure(const std::string &Error) {
  CheckFailure F{CheckPhase::Driver, FailureKind::InternalError,
                 std::nullopt, Error};
  std::fprintf(stderr, "failure: %s\n", F.str().c_str());
  return 4;
}

int runConnectSingle(serve::Client &Conn, std::string Name,
                     std::string Asm, std::string Policy, LintMode Lint,
                     const GovernorConfig &Gov) {
  serve::CheckRequestMsg Req =
      makeRequest(1, std::move(Name), std::move(Asm), std::move(Policy),
                  Lint, Gov);
  serve::CheckResponseMsg Resp;
  std::string Error;
  if (!Conn.check(Req, Resp, Error))
    return transportFailure(Error);
  return renderRemoteSingle(Resp.Report);
}

/// Checks the whole corpus on the daemon: every request is pipelined up
/// front, responses are matched by id (a shed response can overtake an
/// in-flight one), and the rendered batch report plus totals line are
/// byte-identical to a local `--corpus all` run.
int runConnectCorpusAll(serve::Client &Conn, LintMode Lint,
                        const GovernorConfig &Gov) {
  const std::vector<corpus::CorpusProgram> &Programs = corpus::corpus();
  std::string Error;
  for (size_t I = 0; I < Programs.size(); ++I) {
    serve::CheckRequestMsg Req =
        makeRequest(I, Programs[I].Name, Programs[I].Asm,
                    Programs[I].Policy, Lint, Gov);
    if (!Conn.sendCheck(Req, Error))
      return transportFailure(Error);
  }
  ParallelCheckResult R;
  R.Programs.resize(Programs.size());
  for (size_t I = 0; I < Programs.size(); ++I)
    R.Programs[I].Name = Programs[I].Name;
  for (size_t I = 0; I < Programs.size(); ++I) {
    serve::CheckResponseMsg Resp;
    if (!Conn.recvCheck(Resp, Error))
      return transportFailure(Error);
    if (Resp.ReqId >= R.Programs.size())
      return transportFailure("bogus response id from server");
    R.Programs[Resp.ReqId].Report = std::move(Resp.Report);
  }
  std::printf("%s", renderParallelReport(R).c_str());
  unsigned Counts[5] = {0, 0, 0, 0, 0};
  for (const ParallelCheckResult::Program &P : R.Programs)
    ++Counts[exitCode(P.Report.Verdict)];
  std::printf("total: %zu programs, %u safe, %u unsafe, %u malformed, "
              "%u unknown, %u errors\n",
              R.Programs.size(), Counts[0], Counts[1], Counts[2],
              Counts[3], Counts[4]);
  if (Counts[4])
    return 4;
  if (Counts[2])
    return 2;
  if (Counts[3])
    return 3;
  return Counts[1] ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Listing = false, Conditions = false, Stats = false;
  // The flag that asked for a per-program view, for the usage error when
  // --corpus all cannot render it (-v there means statistics only).
  const char *PerProgramFlag = nullptr;
  LintMode Lint = LintMode::On;
  std::string CorpusName;
  std::vector<std::string> Files;
  bool ListCorpus = false;
  unsigned Jobs = 0; // 0 = hardware concurrency.
  Observability Obs;
  GovernorConfig Gov;
  std::optional<uint64_t> FaultSeed;
  std::string CertDir;
  std::string ConnectPath;
  uint64_t ConnectTimeoutMs = serve::Client::DefaultTimeoutMs;
  bool Ping = false, Shutdown = false, ServerStats = false;

  // The trace switch is read from the environment once per invocation,
  // here in the driver; it reaches the verifier as a plain option (a
  // daemon gets it per request instead).
  if (const char *E = std::getenv("MCSAFE_TRACE"))
    Gov.DebugTrace = *E != '\0';

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    // Matches "--flag V" and "--flag=V"; nullopt when the value is
    // missing (caller prints usage).
    auto isFlag = [&](const char *Name) {
      return Arg == Name ||
             Arg.rfind(std::string(Name) + "=", 0) == 0;
    };
    auto flagValue = [&](const char *Name) -> std::optional<std::string> {
      if (Arg == Name) {
        if (I + 1 >= argc)
          return std::nullopt;
        return std::string(argv[++I]);
      }
      return Arg.substr(std::strlen(Name) + 1);
    };

    // Parses the value of a numeric flag into *Out; false (after its own
    // diagnostic) when the value is missing, non-numeric, or above Max.
    auto numericFlag = [&](const char *Name, uint64_t Max,
                           uint64_t *Out) -> bool {
      std::optional<std::string> Value = flagValue(Name);
      if (!Value) {
        usage();
        return false;
      }
      char *End = nullptr;
      unsigned long long N = std::strtoull(Value->c_str(), &End, 10);
      if (Value->empty() || *End != '\0' || N > Max) {
        std::fprintf(stderr, "invalid %s value '%s'\n", Name,
                     Value->c_str());
        return false;
      }
      *Out = N;
      return true;
    };

    if (isFlag("--deadline-ms")) {
      uint64_t Ms = 0;
      if (!numericFlag("--deadline-ms", UINT32_MAX, &Ms))
        return 2;
      Gov.Limits.DeadlineMs = static_cast<uint32_t>(Ms);
    } else if (isFlag("--prover-steps")) {
      if (!numericFlag("--prover-steps", UINT64_MAX,
                       &Gov.Limits.ProverSteps))
        return 2;
    } else if (Arg == "--fail-soft") {
      Gov.FailSoft = true;
    } else if (Arg == "--no-knownbits") {
      Gov.EnableKnownBits = false;
    } else if (isFlag("--fault-seed")) {
      uint64_t Seed = 0;
      if (!numericFlag("--fault-seed", UINT64_MAX, &Seed))
        return 2;
      FaultSeed = Seed;
    } else if (isFlag("--jobs")) {
      std::optional<std::string> Value = flagValue("--jobs");
      if (!Value) {
        usage();
        return 2;
      }
      char *End = nullptr;
      unsigned long N = std::strtoul(Value->c_str(), &End, 10);
      if (Value->empty() || *End != '\0' || N == 0 || N > 1024) {
        std::fprintf(stderr, "invalid --jobs value '%s'\n", Value->c_str());
        return 2;
      }
      Jobs = static_cast<unsigned>(N);
    } else if (isFlag("--cert-store")) {
      std::optional<std::string> Value = flagValue("--cert-store");
      if (!Value || Value->empty()) {
        usage();
        return 2;
      }
      CertDir = *Value;
    } else if (isFlag("--trace")) {
      std::optional<std::string> Value = flagValue("--trace");
      if (!Value || Value->empty()) {
        usage();
        return 2;
      }
      Obs.TracePath = *Value;
    } else if (isFlag("--metrics-json")) {
      std::optional<std::string> Value = flagValue("--metrics-json");
      if (!Value || Value->empty()) {
        usage();
        return 2;
      }
      Obs.MetricsPath = *Value;
    } else if (isFlag("--connect")) {
      std::optional<std::string> Value = flagValue("--connect");
      if (!Value || Value->empty()) {
        usage();
        return 2;
      }
      ConnectPath = *Value;
    } else if (isFlag("--connect-timeout-ms")) {
      if (!numericFlag("--connect-timeout-ms", UINT32_MAX,
                       &ConnectTimeoutMs))
        return 2;
    } else if (Arg == "--ping") {
      Ping = true;
    } else if (Arg == "--shutdown") {
      Shutdown = true;
    } else if (Arg == "--server-stats") {
      ServerStats = true;
    } else if (Arg == "--phase-table") {
      Obs.PhaseTable = true;
    } else if (Arg == "-v") {
      Listing = Conditions = Stats = true;
    } else if (Arg == "--listing") {
      Listing = true;
      PerProgramFlag = "--listing";
    } else if (Arg == "--conditions") {
      Conditions = true;
      PerProgramFlag = "--conditions";
    } else if (Arg == "--lint-only") {
      Lint = LintMode::Only;
    } else if (Arg == "--no-lint") {
      Lint = LintMode::Off;
    } else if (Arg == "--list-corpus") {
      ListCorpus = true;
    } else if (Arg == "--corpus") {
      if (I + 1 >= argc) {
        usage();
        return 2;
      }
      CorpusName = argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      Files.push_back(Arg);
    }
  }

  if (ListCorpus) {
    for (const corpus::CorpusProgram &P : corpus::corpus())
      std::printf("%-14s %s\n", P.Name.c_str(),
                  P.ExpectSafe ? "(verifies)" : "(has violations)");
    return 0;
  }

  // Install the tracer before any instrumented work runs.
  std::unique_ptr<support::Tracer> Tracer;
  if (!Obs.TracePath.empty()) {
    Tracer = std::make_unique<support::Tracer>();
    support::Tracer::setGlobal(Tracer.get());
  }

  // A --fault-seed installs the deterministic fault plan for the whole
  // run. The fault points compile to nothing unless the binary was built
  // with -DMCSAFE_FAULT_INJECTION=ON, so warn rather than surprise.
  std::unique_ptr<support::FaultPlan> Plan;
  if (FaultSeed) {
#if !defined(MCSAFE_FAULT_INJECTION)
    std::fprintf(stderr,
                 "warning: this build has no fault-injection points; "
                 "--fault-seed %llu is a no-op\n",
                 static_cast<unsigned long long>(*FaultSeed));
#endif
    Plan = std::make_unique<support::FaultPlan>(*FaultSeed);
    support::FaultPlan::install(Plan.get());
  }

  std::unique_ptr<CertStore> Certs;
  if (!CertDir.empty())
    Certs = std::make_unique<CertStore>(CertDir);

  // Pre-register the slicing counters (single-check scope) so a metrics
  // dump always carries the full set at zero — even when the check
  // bails before the prover runs.
  forEachSliceCounter(Prover::Stats(), [&](const char *Name, uint64_t) {
    Obs.Registry.counter(std::string("check/") + Name).inc(0);
  });

  auto Run = [&]() -> int {
    if (ConnectPath.empty() && (Ping || Shutdown || ServerStats)) {
      std::fprintf(stderr,
                   "--ping/--shutdown/--server-stats need --connect\n");
      return 2;
    }
    if (!ConnectPath.empty()) {
      // The daemon sends back report bytes, not intermediate views, so
      // everything that re-runs front phases locally is rejected rather
      // than silently ignored.
      if (Listing || Conditions || Stats || Lint == LintMode::Only ||
          Obs.PhaseTable || !CertDir.empty()) {
        std::fprintf(stderr,
                     "--listing/--conditions/-v/--lint-only/"
                     "--phase-table/--cert-store are not available with "
                     "--connect\n");
        return 2;
      }
      serve::Client Conn;
      Conn.setTimeoutMs(static_cast<unsigned>(ConnectTimeoutMs));
      std::string Error;
      if (!Conn.connect(ConnectPath, Error))
        return transportFailure(Error);
      if (Ping) {
        if (!Conn.ping(Error))
          return transportFailure(Error);
        std::printf("pong\n");
        return 0;
      }
      if (ServerStats) {
        std::string Json;
        if (!Conn.serverStats(Json, Error))
          return transportFailure(Error);
        std::printf("%s\n", Json.c_str());
        return 0;
      }
      if (Shutdown) {
        if (!Conn.shutdownServer(Error))
          return transportFailure(Error);
        std::printf("server stopped\n");
        return 0;
      }
      if (!CorpusName.empty()) {
        if (CorpusName == "all")
          return runConnectCorpusAll(Conn, Lint, Gov);
        for (const corpus::CorpusProgram &P : corpus::corpus())
          if (P.Name == CorpusName)
            return runConnectSingle(Conn, P.Name, P.Asm, P.Policy, Lint,
                                    Gov);
        std::fprintf(stderr, "unknown corpus program '%s'\n",
                     CorpusName.c_str());
        return 2;
      }
      if (Files.size() != 2) {
        usage();
        return 2;
      }
      std::string ReadError;
      std::optional<std::string> Asm = readFile(Files[0], ReadError);
      if (!Asm) {
        CheckFailure F{CheckPhase::Input, FailureKind::MalformedAssembly,
                       std::nullopt, ReadError};
        std::fprintf(stderr, "failure: %s\n", F.str().c_str());
        return exitCode(CheckVerdict::MalformedInput);
      }
      std::optional<std::string> Policy = readFile(Files[1], ReadError);
      if (!Policy) {
        CheckFailure F{CheckPhase::Input, FailureKind::MalformedPolicy,
                       std::nullopt, ReadError};
        std::fprintf(stderr, "failure: %s\n", F.str().c_str());
        return exitCode(CheckVerdict::MalformedInput);
      }
      return runConnectSingle(Conn, Files[0], std::move(*Asm),
                              std::move(*Policy), Lint, Gov);
    }
    if (!CorpusName.empty()) {
      if (CorpusName == "all") {
        if (PerProgramFlag) {
          std::fprintf(stderr,
                       "%s is not available with --corpus all; use "
                       "--corpus <name>\n",
                       PerProgramFlag);
          return 2;
        }
        return runCorpusAll(Stats, Lint, Jobs, Gov, Obs, Certs.get());
      }
      for (const corpus::CorpusProgram &P : corpus::corpus())
        if (P.Name == CorpusName)
          return runCheck(P.Asm, P.Policy, Listing, Conditions, Stats,
                          Lint, Jobs, Gov, Obs, Certs.get());
      std::fprintf(stderr, "unknown corpus program '%s'\n",
                   CorpusName.c_str());
      return 2;
    }
    if (Files.size() != 2) {
      usage();
      return 2;
    }
    // Unreadable inputs are reported as structured MalformedInput
    // failures (path + cause), not a bare usage dump: the command line
    // was well-formed, the input was not.
    std::string ReadError;
    std::optional<std::string> Asm = readFile(Files[0], ReadError);
    if (!Asm) {
      CheckFailure F{CheckPhase::Input, FailureKind::MalformedAssembly,
                     std::nullopt, ReadError};
      std::fprintf(stderr, "failure: %s\n", F.str().c_str());
      return exitCode(CheckVerdict::MalformedInput);
    }
    std::optional<std::string> Policy = readFile(Files[1], ReadError);
    if (!Policy) {
      CheckFailure F{CheckPhase::Input, FailureKind::MalformedPolicy,
                     std::nullopt, ReadError};
      std::fprintf(stderr, "failure: %s\n", F.str().c_str());
      return exitCode(CheckVerdict::MalformedInput);
    }
    return runCheck(*Asm, *Policy, Listing, Conditions, Stats, Lint, Jobs,
                    Gov, Obs, Certs.get());
  };
  // Everything input-reachable returns a structured verdict; anything
  // that still escapes as an exception is an internal error, reported on
  // stderr with the dedicated exit code rather than a terminate().
  int Ret;
  try {
    Ret = Run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "internal error: %s\n", E.what());
    Ret = 4;
  } catch (...) {
    std::fprintf(stderr, "internal error: non-standard exception\n");
    Ret = 4;
  }
  if (Certs)
    Certs->publish(Obs.Registry);
  if (Plan) {
    support::FaultPlan::install(nullptr);
    Obs.Registry.counter("fault/fired").inc(Plan->firedCount());
    Obs.Registry.gauge("fault/seed").set(
        static_cast<int64_t>(Plan->seed()));
  }

  if (Tracer) {
    support::Tracer::setGlobal(nullptr);
    std::ofstream Out(Obs.TracePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Obs.TracePath.c_str());
      return 2;
    }
    Tracer->writeJson(Out);
  }
  if (!Obs.MetricsPath.empty()) {
    std::ofstream Out(Obs.MetricsPath);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Obs.MetricsPath.c_str());
      return 2;
    }
    Obs.Registry.writeJson(Out);
  }
  return Ret;
}
