//===- LoopInfo.h - Natural loops and reducibility --------------*- C++ -*-===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection over the dominator tree. The paper partitions
/// the control-flow graph into "code regions that are either cyclic
/// (natural loops) or acyclic" (Section 5.2); LoopInfo supplies the cyclic
/// regions, their nesting, and the reducibility test (every retreating
/// edge must be a back edge).
///
//===----------------------------------------------------------------------===//

#ifndef MCSAFE_CFG_LOOPINFO_H
#define MCSAFE_CFG_LOOPINFO_H

#include "cfg/Cfg.h"
#include "cfg/Dominators.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mcsafe {
namespace cfg {

/// One natural loop. Loops sharing a header are merged.
struct Loop {
  NodeId Header = InvalidNode;
  /// All nodes in the loop, header included, strictly ascending.
  std::vector<NodeId> Body;
  /// Sources of the back edges (latches).
  std::vector<NodeId> Latches;
  /// Index of the enclosing loop in LoopInfo::loops(), or -1.
  int32_t Parent = -1;
  /// Nesting depth: 1 for outermost loops.
  uint32_t Depth = 1;

  bool contains(NodeId Id) const {
    return std::binary_search(Body.begin(), Body.end(), Id);
  }
};

/// All natural loops of a CFG.
class LoopInfo {
public:
  LoopInfo(const Cfg &G, const DominatorTree &Dom);

  /// True when every retreating edge is a back edge. The checker refuses
  /// irreducible graphs (the induction-iteration method needs natural
  /// loops).
  bool isReducible() const { return Reducible; }

  const std::vector<Loop> &loops() const { return Loops; }

  /// Index of the innermost loop containing a node, or -1.
  int32_t innermostLoop(NodeId Id) const { return NodeLoop[Id]; }

  /// Is (From -> To) a back edge (To is a loop header dominating From)?
  bool isBackEdge(NodeId From, NodeId To) const;

  /// Number of loops nested strictly inside another loop.
  uint32_t innerLoopCount() const;

private:
  std::vector<Loop> Loops;
  std::vector<int32_t> NodeLoop;
  bool Reducible = true;
};

} // namespace cfg
} // namespace mcsafe

#endif // MCSAFE_CFG_LOOPINFO_H
