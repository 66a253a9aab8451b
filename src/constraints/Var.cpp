//===- Var.cpp ------------------------------------------------------------===//

#include "constraints/Var.h"

#include "constraints/Formula.h"
#include "support/FaultInjection.h"

#include <array>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

using namespace mcsafe;

namespace {

// Published names live in fixed-capacity chunks so varName() can read
// them without a lock: a chunk pointer is set once (release) and never
// moves, and an id is only handed out after its name is fully
// constructed (the release store of Count publishes it).
constexpr size_t ChunkShift = 10;
constexpr size_t ChunkSize = size_t(1) << ChunkShift;   // Names per chunk.
constexpr size_t MaxChunks = size_t(1) << 14;           // ~16M names.

struct VarPool {
  std::mutex M; // Guards Ids, FreshCounter, chunk creation.
  std::unordered_map<std::string, uint32_t> Ids;
  uint64_t FreshCounter = 0;
  std::atomic<uint32_t> Count{0};
  std::array<std::atomic<std::array<std::string, ChunkSize> *>, MaxChunks>
      Chunks{};
};

VarPool &pool() {
  static VarPool P;
  return P;
}

/// Appends \p Name to the published storage and returns its new id.
/// Caller must hold pool().M. An exhausted pool throws std::bad_alloc
/// before touching anything: the check boundary turns that into an
/// InternalError verdict, and the process (a daemon) keeps serving.
uint32_t publishLocked(VarPool &P, std::string_view Name) {
  uint32_t Index = P.Count.load(std::memory_order_relaxed);
  size_t Chunk = Index >> ChunkShift;
  if (Chunk >= MaxChunks || support::faultPoint("alloc/var"))
    throw std::bad_alloc();
  auto *C = P.Chunks[Chunk].load(std::memory_order_relaxed);
  if (!C) {
    C = new std::array<std::string, ChunkSize>();
    P.Chunks[Chunk].store(C, std::memory_order_release);
  }
  (*C)[Index & (ChunkSize - 1)] = std::string(Name);
  P.Count.store(Index + 1, std::memory_order_release);
  return Index;
}

/// A per-check namespace frame: private name->id table, per-prefix
/// fresh counters, and the check's formula generation. Owned by
/// VarNamespace, used from one thread.
struct NamespaceFrame {
  std::unordered_map<std::string, uint32_t> Ids;
  std::unordered_map<std::string, uint64_t> FreshCounters;
  FormulaGeneration Formulas;
};

/// Active namespace stack of the current thread. A null entry marks a
/// suspension (VarScopeSuspend).
thread_local std::vector<NamespaceFrame *> ScopeStack;

NamespaceFrame *activeFrame() {
  return ScopeStack.empty() ? nullptr : ScopeStack.back();
}

} // namespace

VarId mcsafe::varId(std::string_view Name) {
  if (NamespaceFrame *F = activeFrame()) {
    auto It = F->Ids.find(std::string(Name));
    if (It != F->Ids.end())
      return VarId(It->second);
    VarPool &P = pool();
    uint32_t Index;
    {
      std::lock_guard<std::mutex> L(P.M);
      Index = publishLocked(P, Name);
    }
    F->Ids.emplace(std::string(Name), Index);
    return VarId(Index);
  }
  VarPool &P = pool();
  std::lock_guard<std::mutex> L(P.M);
  auto It = P.Ids.find(std::string(Name));
  if (It != P.Ids.end())
    return VarId(It->second);
  uint32_t Index = publishLocked(P, Name);
  P.Ids.emplace(std::string(Name), Index);
  return VarId(Index);
}

const std::string &mcsafe::varName(VarId Id) {
  assert(Id.isValid() && "invalid VarId");
  VarPool &P = pool();
  uint32_t Index = Id.index();
  assert(Index < P.Count.load(std::memory_order_acquire) &&
         "unknown VarId");
  auto *C = P.Chunks[Index >> ChunkShift].load(std::memory_order_acquire);
  return (*C)[Index & (ChunkSize - 1)];
}

VarId mcsafe::freshVar(std::string_view Prefix) {
  if (NamespaceFrame *F = activeFrame()) {
    uint64_t &Counter = F->FreshCounters[std::string(Prefix)];
    while (true) {
      std::string Name =
          std::string(Prefix) + "." + std::to_string(Counter++);
      if (!F->Ids.count(Name))
        return varId(Name);
    }
  }
  VarPool &P = pool();
  std::unique_lock<std::mutex> L(P.M);
  while (true) {
    std::string Name =
        std::string(Prefix) + "." + std::to_string(P.FreshCounter++);
    if (!P.Ids.count(Name)) {
      uint32_t Index = publishLocked(P, Name);
      P.Ids.emplace(std::move(Name), Index);
      return VarId(Index);
    }
  }
}

VarNamespace::VarNamespace() {
  auto F = std::make_unique<NamespaceFrame>();
  ScopeStack.push_back(F.get());
  Frame = F.release();
}

VarNamespace::~VarNamespace() {
  assert(!ScopeStack.empty() && ScopeStack.back() == Frame &&
         "VarNamespace destroyed out of order");
  ScopeStack.pop_back();
  delete static_cast<NamespaceFrame *>(Frame);
}

VarScopeSuspend::VarScopeSuspend() { ScopeStack.push_back(nullptr); }

VarScopeSuspend::~VarScopeSuspend() {
  assert(!ScopeStack.empty() && ScopeStack.back() == nullptr &&
         "VarScopeSuspend destroyed out of order");
  ScopeStack.pop_back();
}
