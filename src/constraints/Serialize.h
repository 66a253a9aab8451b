//===- Serialize.h - Formula pool serialization -----------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of interned formula DAGs, the foundation of the
/// persistent certificate store (checker/CertStore.h).
///
/// A FormulaPoolWriter collects any number of formulas into one pool:
/// every distinct node gets a dense pool-local index, assigned in
/// topological child-before-parent order, and variables are written by
/// *name* (a string table), never by VarId — ids are process-local, names
/// are the portable identity. Loading re-interns the nodes in one forward
/// pass through the ordinary smart constructors, so loaded formulas are
/// pointer-equal to any structurally equal formula already interned in
/// the process, and idempotent under re-serialization.
///
/// The byte format is little-endian, fixed-width, and versioned by the
/// certificate container around it. Readers never trust the input:
/// truncation, out-of-range indices, or non-canonical atom data fail the
/// load (ByteReader::ok() / loadFormulaPool returning nullopt) rather
/// than crashing or fabricating formulas.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CONSTRAINTS_SERIALIZE_H
#define MCSAFE_CONSTRAINTS_SERIALIZE_H

#include "constraints/Formula.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mcsafe {

/// Appends little-endian primitives to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// Length-prefixed byte string.
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S.data(), S.size());
  }
  /// Raw bytes, no length prefix (splicing a pre-built sub-buffer).
  void raw(std::string_view S) { Buf.append(S.data(), S.size()); }

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Reads little-endian primitives back out of a byte buffer. Any
/// overrun latches the fail flag and makes every later read return a
/// zero value — callers check ok() once at the end (or wherever a value
/// gates further reads).
class ByteReader {
public:
  explicit ByteReader(std::string_view Data) : Data(Data) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(Data[Pos++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string_view str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string_view S = Data.substr(Pos, N);
    Pos += N;
    return S;
  }

  bool ok() const { return !Failed; }
  /// Marks the stream failed (e.g. a semantic validation error).
  void fail() { Failed = true; }
  bool atEnd() const { return Pos == Data.size(); }
  size_t position() const { return Pos; }
  /// Bytes left; used to sanity-bound untrusted element counts before
  /// reserving memory for them.
  size_t remaining() const { return Failed ? 0 : Data.size() - Pos; }

private:
  bool need(size_t N) {
    if (Failed || Data.size() - Pos < N) {
      Failed = true;
      Pos = Data.size();
      return false;
    }
    return true;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Failed = false;
};

/// Collects formulas into a pool of dense node indices for serialization.
/// add() returns the pool index of the formula's root node; writeTo()
/// emits the variable-name table plus all nodes in child-before-parent
/// order.
class FormulaPoolWriter {
public:
  /// Registers \p F (and, recursively, every node under it) in the pool.
  /// Returns the root's pool index. Deduplicated: adding the same node
  /// twice returns the same index.
  uint32_t add(const FormulaRef &F);

  /// Emits the pool: a var-name string table, then the node table. Atom
  /// terms are written sorted by variable *name* (the loader re-sorts by
  /// its own VarIds), so the bytes depend only on names and structure —
  /// never on the order this process happened to intern variables. That
  /// is what makes stableFormulaDigest() process-independent.
  void writeTo(ByteWriter &W);

  size_t nodeCount() const { return Nodes.size(); }

private:
  uint32_t varIndex(VarId V);

  std::vector<FormulaRef> Nodes;                 ///< Pool order (topological).
  std::unordered_map<uint64_t, uint32_t> NodeIx; ///< Formula id -> pool index.
  std::vector<VarId> Vars;
  std::unordered_map<uint32_t, uint32_t> VarIx;  ///< VarId index -> table index.
};

/// Re-interns a serialized formula pool in one forward pass. Returns the
/// nodes in pool order (so stored root indices resolve by subscript), or
/// nullopt when the data is truncated or malformed in any way. Variables
/// are re-interned by name through varId() — run this under a
/// VarScopeSuspend when the caller must not perturb a check's namespace.
/// Nodes land in this thread's formula generation; install the base with a
/// FormulaGenerationScope when they must outlive the current check.
std::optional<std::vector<FormulaRef>> loadFormulaPool(ByteReader &R);

/// A platform- and process-independent structural digest of a formula:
/// the stable digest of its serialized pool form (variables by name).
/// This is the digest the golden tests pin; two formulas digest equal
/// iff they serialize identically.
uint64_t stableFormulaDigest(const FormulaRef &F);

} // namespace mcsafe

#endif // MCSAFE_CONSTRAINTS_SERIALIZE_H
