//===- FaultInjection.cpp - Deterministic fault plan ----------------------===//

#include "support/FaultInjection.h"

#include <atomic>

namespace mcsafe {
namespace support {

namespace {

std::atomic<FaultPlan *> GlobalPlan{nullptr};

// FNV-1a over the site name: stable across runs and platforms.
uint64_t hashSite(const char *Site) {
  uint64_t H = 1469598103934665603ull;
  for (const char *P = Site; *P; ++P) {
    H ^= static_cast<unsigned char>(*P);
    H *= 1099511628211ull;
  }
  return H;
}

// splitmix64: cheap, well-distributed mixer for (seed ^ site hash).
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

void FaultPlan::install(FaultPlan *Plan) {
  GlobalPlan.store(Plan, std::memory_order_release);
}

FaultPlan *FaultPlan::current() {
  return GlobalPlan.load(std::memory_order_acquire);
}

bool FaultPlan::shouldFail(const char *Site) {
  if (!OnlySite.empty() && OnlySite != Site)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  SiteState &S = Sites[Site];
  if (S.Period == 0) {
    uint64_t R = mix(Seed ^ hashSite(Site));
    // Fire roughly every 5..37 calls, phase-shifted per site, so faults
    // land in warmups, steady state, and shutdown paths alike.
    S.Period = 5 + (R % 33);
    S.Offset = (R >> 32) % S.Period;
  }
  uint64_t Call = S.Calls++;
  if (Call % S.Period == S.Offset) {
    ++S.Fired;
    return true;
  }
  return false;
}

uint64_t FaultPlan::firedCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const auto &[Name, S] : Sites)
    Total += S.Fired;
  return Total;
}

#if defined(MCSAFE_FAULT_INJECTION)
bool faultPoint(const char *Site) {
  FaultPlan *Plan = FaultPlan::current();
  return Plan && Plan->shouldFail(Site);
}
#endif

} // namespace support
} // namespace mcsafe
