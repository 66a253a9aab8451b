//===- Var.h - Interned symbolic variables ----------------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic integer variables used by linear expressions and formulas.
/// Variables are interned strings: registers ("%o0"), symbolic constants
/// from annotations ("n"), abstract-location value variables ("val:e"),
/// and fresh variables minted during wlp computation and quantifier
/// elimination.
///
/// The intern pool is process-wide and thread-safe: ids are allocated
/// under a writer lock, while varName() reads the published name storage
/// lock-free (names are immutable once published). For the parallel
/// verification engine, a check can additionally run inside a
/// VarNamespace: name->id lookups then resolve in a private per-check
/// table, so the sequence of ids a check observes — and every fresh
/// variable name it mints — depends only on that check's own inputs,
/// never on what other checks running concurrently intern. That is what
/// makes reports byte-identical for any --jobs value. Ids stay globally
/// unique (they are allocated from the shared pool), so the formulas of
/// two namespaces never share a node. A namespace also opens the check's
/// formula generation (Formula.h), which frees the check's formula nodes
/// when the namespace ends.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_VAR_H
#define MCSAFE_CONSTRAINTS_VAR_H

#include "support/Digest.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace mcsafe {

/// An interned variable identifier. Comparable and hashable by value.
class VarId {
public:
  constexpr VarId() : Index(UINT32_MAX) {}
  constexpr explicit VarId(uint32_t Index) : Index(Index) {}

  constexpr bool isValid() const { return Index != UINT32_MAX; }
  constexpr uint32_t index() const { return Index; }

  friend constexpr bool operator==(VarId A, VarId B) {
    return A.Index == B.Index;
  }
  friend constexpr bool operator!=(VarId A, VarId B) {
    return A.Index != B.Index;
  }
  friend constexpr bool operator<(VarId A, VarId B) {
    return A.Index < B.Index;
  }

private:
  uint32_t Index;
};

/// Interns \p Name and returns its id (stable for the process lifetime).
/// Inside a VarNamespace the lookup is namespace-local: the same name
/// resolves to one id per namespace. Throws std::bad_alloc when the pool
/// of about 16M names is exhausted.
VarId varId(std::string_view Name);

/// The name a VarId was interned under. Lock-free; valid for ids from any
/// namespace for the process lifetime.
const std::string &varName(VarId Id);

/// Mints a fresh variable named "<prefix>.<counter>". Globally it has
/// never been returned before; inside a VarNamespace the counter is
/// namespace-local (deterministic per check) and the name is fresh within
/// that namespace.
VarId freshVar(std::string_view Prefix);

/// RAII: routes this thread's varId/freshVar calls into a private
/// namespace, and its formula interning into a private FormulaGeneration,
/// until destruction. One check = one namespace = one deterministic
/// id/name sequence = one generation. A namespace must be used from a
/// single thread; speculative pool tasks suspend its names with
/// VarScopeSuspend and install its generation with
/// FormulaGenerationScope. Every formula interned inside is freed at the
/// end, so nothing may hold one past it.
class VarNamespace {
public:
  VarNamespace();
  ~VarNamespace();
  VarNamespace(const VarNamespace &) = delete;
  VarNamespace &operator=(const VarNamespace &) = delete;

private:
  void *Frame;
};

/// RAII: temporarily deactivates the current thread's VarNamespace (if
/// any). The prover wraps its internal work in this so that speculative /
/// cached query evaluation can never perturb a check's deterministic
/// fresh-name sequence. It suspends names only: formulas still intern
/// into the check's generation.
class VarScopeSuspend {
public:
  VarScopeSuspend();
  ~VarScopeSuspend();
  VarScopeSuspend(const VarScopeSuspend &) = delete;
  VarScopeSuspend &operator=(const VarScopeSuspend &) = delete;
};

} // namespace mcsafe

template <> struct std::hash<mcsafe::VarId> {
  size_t operator()(mcsafe::VarId Id) const noexcept {
    // The stable mixer rather than std::hash<uint32_t> (which libstdc++
    // implements as the identity — poor bucket spread — and which is
    // implementation-defined everywhere else).
    return static_cast<size_t>(mcsafe::support::mix64(Id.index()));
  }
};

#endif // MCSAFE_CONSTRAINTS_VAR_H
