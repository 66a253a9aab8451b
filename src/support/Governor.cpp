//===- Governor.cpp - Per-check resource governor -------------------------===//

#include "support/Governor.h"

namespace mcsafe {
namespace support {

namespace {
// Stride between deadline checks inside poll(). Reading a steady clock
// costs tens of nanoseconds; amortizing it keeps an untripped poll at a
// load and a non-atomic increment. Power of two so the modulo is a mask.
constexpr uint64_t DeadlineStride = 64;
} // namespace

const char *budgetKindName(BudgetKind Kind) {
  switch (Kind) {
  case BudgetKind::None:
    return "none";
  case BudgetKind::Deadline:
    return "deadline";
  case BudgetKind::ProverSteps:
    return "prover-steps";
  case BudgetKind::Memory:
    return "memory";
  case BudgetKind::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

ResourceGovernor::ResourceGovernor(const GovernorLimits &Limits)
    : Limits(Limits) {
  if (Limits.DeadlineMs) {
    HasDeadline = true;
    Deadline = Clock::now() + std::chrono::milliseconds(Limits.DeadlineMs);
  }
}

void ResourceGovernor::trip(BudgetKind Kind, const char *Where) {
  BudgetKind Expected = BudgetKind::None;
  if (Tripped.compare_exchange_strong(Expected, Kind,
                                      std::memory_order_acq_rel)) {
    const char *NoSite = nullptr;
    Site.compare_exchange_strong(NoSite, Where, std::memory_order_acq_rel);
  }
}

bool ResourceGovernor::deadlinePassed(const char *Where) {
  if (!HasDeadline)
    return false;
  if (Clock::now() < Deadline)
    return false;
  trip(BudgetKind::Deadline, Where);
  return true;
}

bool ResourceGovernor::poll(const char *Where) {
  if (exhausted())
    return false;
  if (HasDeadline) {
    // The stride counter is deliberately thread-local rather than a
    // member: a shared atomic counter would put a locked RMW on every
    // poll, which would be the whole cost of polling.
    // Sharing one counter across governors only perturbs *when* within
    // a stride the clock is read, never whether it is read.
    thread_local uint64_t PollCount = 0;
    if ((++PollCount & (DeadlineStride - 1)) == 0 && deadlinePassed(Where))
      return false;
  }
  return true;
}

bool ResourceGovernor::chargeProverStep(const char *Where) {
  if (exhausted())
    return false;
  uint64_t Used = Steps.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Limits.ProverSteps && Used > Limits.ProverSteps) {
    trip(BudgetKind::ProverSteps, Where);
    return false;
  }
  // Prover queries are the expensive unit of work: check the deadline on
  // every charge, not on the poll stride.
  if (deadlinePassed(Where))
    return false;
  return true;
}

bool ResourceGovernor::noteMemory(const char *Where, uint64_t Bytes) {
  uint64_t Live = MemLive.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  uint64_t High = MemHigh.load(std::memory_order_relaxed);
  while (Live > High &&
         !MemHigh.compare_exchange_weak(High, Live, std::memory_order_relaxed))
    ;
  if (Limits.MemoryBytes && Live > Limits.MemoryBytes) {
    trip(BudgetKind::Memory, Where);
    return false;
  }
  return !exhausted();
}

void ResourceGovernor::releaseMemory(uint64_t Bytes) {
  MemLive.fetch_sub(Bytes, std::memory_order_relaxed);
}

void ResourceGovernor::cancel(const char *Where) {
  trip(BudgetKind::Cancelled, Where);
}

std::string ResourceGovernor::reason() const {
  BudgetKind Kind = exhaustedKind();
  std::string At = exhaustedSite();
  if (At.empty())
    At = "unknown";
  switch (Kind) {
  case BudgetKind::None:
    return "";
  case BudgetKind::Deadline:
    return "deadline of " + std::to_string(Limits.DeadlineMs) +
           "ms exhausted at " + At;
  case BudgetKind::ProverSteps:
    return "prover-step budget of " + std::to_string(Limits.ProverSteps) +
           " exhausted at " + At;
  case BudgetKind::Memory:
    return "memory budget of " + std::to_string(Limits.MemoryBytes) +
           " bytes exhausted at " + At;
  case BudgetKind::Cancelled:
    return "check cancelled at " + At;
  }
  return "budget exhausted at " + At;
}

} // namespace support
} // namespace mcsafe
