//===- LoopInfo.cpp -------------------------------------------------------===//

#include "cfg/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <set>

using namespace mcsafe;
using namespace mcsafe::cfg;

LoopInfo::LoopInfo(const Cfg &G, const DominatorTree &Dom) {
  NodeLoop.assign(G.size(), -1);

  // Find back edges: From -> To with To dominating From. A retreating
  // edge (target earlier in RPO) that is not a back edge makes the graph
  // irreducible.
  std::map<NodeId, std::set<NodeId>> HeaderToLatches;
  for (NodeId From = 0; From < G.size(); ++From) {
    if (Dom.rpoIndex(From) == UINT32_MAX)
      continue; // Unreachable.
    for (const CfgEdge &E : G.node(From).Succs) {
      bool Retreating = Dom.rpoIndex(E.To) <= Dom.rpoIndex(From);
      if (!Retreating)
        continue;
      if (Dom.dominates(E.To, From))
        HeaderToLatches[E.To].insert(From);
      else
        Reducible = false;
    }
  }

  // Build the natural loop of each header: the set of nodes that can reach
  // a latch without passing through the header.
  for (const auto &[Header, Latches] : HeaderToLatches) {
    Loop L;
    L.Header = Header;
    std::set<NodeId> Body = {Header};
    std::deque<NodeId> Worklist;
    for (NodeId Latch : Latches) {
      L.Latches.push_back(Latch);
      if (Body.insert(Latch).second)
        Worklist.push_back(Latch);
    }
    while (!Worklist.empty()) {
      NodeId Id = Worklist.front();
      Worklist.pop_front();
      for (NodeId Pred : G.node(Id).Preds)
        if (Body.insert(Pred).second)
          Worklist.push_back(Pred);
    }
    L.Body.assign(Body.begin(), Body.end()); // Ascending: contains() bisects.
    Loops.push_back(std::move(L));
  }

  // Sort loops by size ascending so that the innermost loop of a node is
  // the first one that contains it; establish parent links by smallest
  // strict superset.
  std::sort(Loops.begin(), Loops.end(), [](const Loop &A, const Loop &B) {
    if (A.Body.size() != B.Body.size())
      return A.Body.size() < B.Body.size();
    return A.Header < B.Header;
  });
  for (size_t I = 0; I < Loops.size(); ++I) {
    for (NodeId Id : Loops[I].Body)
      if (NodeLoop[Id] < 0)
        NodeLoop[Id] = static_cast<int32_t>(I);
    for (size_t J = I + 1; J < Loops.size(); ++J) {
      if (Loops[J].contains(Loops[I].Header) &&
          Loops[J].Body.size() > Loops[I].Body.size()) {
        Loops[I].Parent = static_cast<int32_t>(J);
        break;
      }
    }
  }
  for (Loop &L : Loops) {
    uint32_t Depth = 1;
    for (int32_t P = L.Parent; P >= 0; P = Loops[P].Parent)
      ++Depth;
    L.Depth = Depth;
  }
}

bool LoopInfo::isBackEdge(NodeId From, NodeId To) const {
  for (const Loop &L : Loops) {
    if (L.Header != To)
      continue;
    for (NodeId Latch : L.Latches)
      if (Latch == From)
        return true;
  }
  return false;
}

uint32_t LoopInfo::innerLoopCount() const {
  uint32_t N = 0;
  for (const Loop &L : Loops)
    if (L.Parent >= 0)
      ++N;
  return N;
}
