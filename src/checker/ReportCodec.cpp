//===- ReportCodec.cpp ----------------------------------------------------===//

#include "checker/ReportCodec.h"

using namespace mcsafe;
using namespace mcsafe::checker;

namespace {

void writeOpt32(ByteWriter &W, const std::optional<uint32_t> &V) {
  W.u8(V ? 1 : 0);
  W.u32(V ? *V : 0);
}

std::optional<uint32_t> readOpt32(ByteReader &R) {
  uint8_t Has = R.u8();
  uint32_t V = R.u32();
  if (Has > 1)
    R.fail();
  return Has == 1 ? std::optional<uint32_t>(V) : std::nullopt;
}

} // namespace

void checker::serializeCheckReport(ByteWriter &W, const CheckReport &Rep) {
  W.u8(Rep.InputsOk ? 1 : 0);
  W.u8(Rep.Safe ? 1 : 0);
  W.u8(static_cast<uint8_t>(Rep.Verdict));
  W.u8(Rep.LintRejected ? 1 : 0);

  W.u32(static_cast<uint32_t>(Rep.Failures.size()));
  for (const CheckFailure &F : Rep.Failures) {
    W.u8(static_cast<uint8_t>(F.Phase));
    W.u8(static_cast<uint8_t>(F.Kind));
    writeOpt32(W, F.Pc);
    W.str(F.Detail);
  }

  const std::vector<Diagnostic> &Diags = Rep.Diags.diagnostics();
  W.u32(static_cast<uint32_t>(Diags.size()));
  for (const Diagnostic &D : Diags) {
    W.u8(static_cast<uint8_t>(D.Severity));
    W.u8(static_cast<uint8_t>(D.Kind));
    writeOpt32(W, D.InstIndex);
    writeOpt32(W, D.SourceLine);
    W.str(D.Message);
  }

  const ProgramCharacteristics &C = Rep.Chars;
  W.u32(C.Instructions);
  W.u32(C.Branches);
  W.u32(C.Loops);
  W.u32(C.InnerLoops);
  W.u32(C.Calls);
  W.u32(C.TrustedCalls);
  W.u64(C.GlobalConditions);
  W.u32(C.LintUninitUses);
  W.u32(C.DeadRegWrites);
  W.u32(C.MisalignedAccesses);
  W.i64(C.MaxStackDelta);
  W.u8(C.StackDeltaBounded ? 1 : 0);

  W.u64(Rep.TypestateNodeVisits);
  W.u64(Rep.LocalChecks);
  W.u64(Rep.LocalViolations);

  const GlobalVerifyStats &G = Rep.Global;
  W.u64(G.ObligationsProved);
  W.u64(G.ObligationsFailed);
  W.u64(G.ObligationsUnknown);
  W.u64(G.QuickDischarges);
  W.u64(G.InvariantsSynthesized);
  W.u64(G.InvariantReuses);
  W.u64(G.IterationsRun);
  W.u64(G.GeneralizationsTried);
  W.u64(G.SpeculativeQueries);
  W.u64(G.BacksubstSteps);

  const Prover::Stats &P = Rep.ProverStats;
  W.u64(P.ValidityQueries);
  W.u64(P.SatQueries);
  W.u64(P.CacheHits);
  W.u64(P.CacheEvictions);
  W.u64(P.BudgetExhaustions);
  W.u64(P.Tiers.CongruenceHits);
  W.u64(P.Tiers.CongruenceMisses);
  W.u64(P.Tiers.IntervalHits);
  W.u64(P.Tiers.IntervalMisses);
  W.u64(P.Tiers.DbmHits);
  W.u64(P.Tiers.DbmMisses);
  W.u64(P.Tiers.OmegaHits);
  W.u64(P.Tiers.OmegaMisses);
  W.u64(P.Slice.DisjunctQueries);
  W.u64(P.Slice.DisjunctsDeduped);
  W.u64(P.Slice.Components);
  W.u64(P.Slice.MultiComponent);
  W.u64(P.Slice.CacheHits);
  W.u64(P.Slice.CacheMisses);
  W.u64(P.Slice.OmegaAvoided);

  const OmegaTest::Stats &Om = Rep.OmegaStats;
  W.u64(Om.Calls);
  W.u64(Om.EqEliminations);
  W.u64(Om.IneqEliminations);
  W.u64(Om.DarkShadowHits);
  W.u64(Om.Splinters);
}

bool checker::deserializeCheckReport(ByteReader &R, CheckReport &Rep) {
  // A decode fully overwrites \p Rep: Failures and Diags below are
  // appended field by field, and a caller reusing one report across
  // responses must not accumulate stale entries.
  Rep = CheckReport();
  Rep.InputsOk = R.u8() != 0;
  Rep.Safe = R.u8() != 0;
  uint8_t RawVerdict = R.u8();
  if (RawVerdict > static_cast<uint8_t>(CheckVerdict::InternalError))
    return false;
  Rep.Verdict = static_cast<CheckVerdict>(RawVerdict);
  Rep.LintRejected = R.u8() != 0;

  uint32_t NFailures = R.u32();
  if (!R.ok() || NFailures > R.remaining() / 10)
    return false;
  Rep.Failures.reserve(NFailures);
  for (uint32_t I = 0; I < NFailures; ++I) {
    uint8_t Phase = R.u8();
    uint8_t Kind = R.u8();
    std::optional<uint32_t> Pc = readOpt32(R);
    std::string_view Detail = R.str();
    if (!R.ok() || Phase > static_cast<uint8_t>(CheckPhase::Driver) ||
        Kind > static_cast<uint8_t>(FailureKind::Quarantined))
      return false;
    Rep.Failures.push_back({static_cast<CheckPhase>(Phase),
                            static_cast<FailureKind>(Kind), Pc,
                            std::string(Detail)});
  }

  uint32_t NDiags = R.u32();
  if (!R.ok() || NDiags > R.remaining() / 16)
    return false;
  for (uint32_t I = 0; I < NDiags; ++I) {
    uint8_t Severity = R.u8();
    uint8_t Kind = R.u8();
    std::optional<uint32_t> InstIndex = readOpt32(R);
    std::optional<uint32_t> SourceLine = readOpt32(R);
    std::string_view Message = R.str();
    if (!R.ok() || Severity > static_cast<uint8_t>(DiagSeverity::Fatal) ||
        Kind > static_cast<uint8_t>(SafetyKind::Protocol))
      return false;
    Rep.Diags.report(static_cast<DiagSeverity>(Severity),
                     static_cast<SafetyKind>(Kind), std::string(Message),
                     InstIndex, SourceLine);
  }

  ProgramCharacteristics &C = Rep.Chars;
  C.Instructions = R.u32();
  C.Branches = R.u32();
  C.Loops = R.u32();
  C.InnerLoops = R.u32();
  C.Calls = R.u32();
  C.TrustedCalls = R.u32();
  C.GlobalConditions = R.u64();
  C.LintUninitUses = R.u32();
  C.DeadRegWrites = R.u32();
  C.MisalignedAccesses = R.u32();
  C.MaxStackDelta = R.i64();
  C.StackDeltaBounded = R.u8() != 0;

  Rep.TypestateNodeVisits = R.u64();
  Rep.LocalChecks = R.u64();
  Rep.LocalViolations = R.u64();

  GlobalVerifyStats &G = Rep.Global;
  G.ObligationsProved = R.u64();
  G.ObligationsFailed = R.u64();
  G.ObligationsUnknown = R.u64();
  G.QuickDischarges = R.u64();
  G.InvariantsSynthesized = R.u64();
  G.InvariantReuses = R.u64();
  G.IterationsRun = R.u64();
  G.GeneralizationsTried = R.u64();
  G.SpeculativeQueries = R.u64();
  G.BacksubstSteps = R.u64();

  Prover::Stats &P = Rep.ProverStats;
  P.ValidityQueries = R.u64();
  P.SatQueries = R.u64();
  P.CacheHits = R.u64();
  P.CacheEvictions = R.u64();
  P.BudgetExhaustions = R.u64();
  P.Tiers.CongruenceHits = R.u64();
  P.Tiers.CongruenceMisses = R.u64();
  P.Tiers.IntervalHits = R.u64();
  P.Tiers.IntervalMisses = R.u64();
  P.Tiers.DbmHits = R.u64();
  P.Tiers.DbmMisses = R.u64();
  P.Tiers.OmegaHits = R.u64();
  P.Tiers.OmegaMisses = R.u64();
  P.Slice.DisjunctQueries = R.u64();
  P.Slice.DisjunctsDeduped = R.u64();
  P.Slice.Components = R.u64();
  P.Slice.MultiComponent = R.u64();
  P.Slice.CacheHits = R.u64();
  P.Slice.CacheMisses = R.u64();
  P.Slice.OmegaAvoided = R.u64();

  OmegaTest::Stats &Om = Rep.OmegaStats;
  Om.Calls = R.u64();
  Om.EqEliminations = R.u64();
  Om.IneqEliminations = R.u64();
  Om.DarkShadowHits = R.u64();
  Om.Splinters = R.u64();
  return R.ok();
}
