//===- Arena.h - Bump-pointer allocation ------------------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for the constraint kernel's two allocation
/// patterns that malloc serves poorly:
///
///  - the formula interner's node slabs: nodes die all at once, with
///    their generation (a check) or never (the base), so per-node malloc
///    headers and free-list bookkeeping are pure overhead;
///  - prover scratch (pre-solver bound tables, DBM distance matrices):
///    allocated per satisfiability query and discarded wholesale, so a
///    reset() that recycles the chunks beats thousands of small frees.
///
/// The arena is NOT thread-safe; callers that share one (the interner's
/// shards) serialize externally. Objects placement-constructed in arena
/// memory are never destroyed by the arena — it only recycles raw bytes —
/// so only trivially-destructible scratch or externally-destroyed nodes
/// belong here.
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_SUPPORT_ARENA_H
#define MCSAFE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace mcsafe {
namespace support {

/// A growable bump allocator. Chunks are retained across reset() so a
/// per-query scratch arena reaches a steady state with zero mallocs.
class Arena {
public:
  explicit Arena(size_t ChunkBytes = DefaultChunkBytes);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align (a power of two).
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t));

  /// Allocates and placement-constructs a T. The arena never runs the
  /// destructor; the caller owns that responsibility (or T is trivial).
  template <typename T, typename... Args> T *create(Args &&...A) {
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(A)...);
  }

  /// Allocates an uninitialized array of \p N T's (T trivial).
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk for reuse. Previously returned pointers become
  /// dangling; no destructors run.
  void reset();

  /// Total bytes handed out since construction or the last reset().
  size_t bytesAllocated() const { return Allocated; }
  /// Total chunk bytes reserved from the system (survives reset()).
  size_t bytesReserved() const { return Reserved; }

private:
  static constexpr size_t DefaultChunkBytes = 64 * 1024;

  struct Chunk {
    Chunk *Next = nullptr;
    size_t Size = 0; ///< Usable payload bytes following this header.
  };

  /// Makes \p Slot the current chunk, first inserting a fresh chunk of
  /// \p PayloadBytes in front of it when it is null or too small.
  void activate(Chunk *&Slot, size_t PayloadBytes);

  Chunk *Head = nullptr;    ///< First chunk in the reuse list.
  Chunk *Current = nullptr; ///< Chunk being bumped.
  char *Ptr = nullptr;      ///< Next free byte in Current.
  char *End = nullptr;      ///< One past Current's payload.
  size_t ChunkBytes;
  size_t Allocated = 0;
  size_t Reserved = 0;
};

} // namespace support
} // namespace mcsafe

#endif // MCSAFE_SUPPORT_ARENA_H
