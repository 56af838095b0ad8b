#include "provenance/deletion.h"

#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/traverse.h"

namespace lipstick {

namespace {

/// The propagation walk: marks every deleted node in `deleted` (a bitmap
/// leased from the sealed `snap`) and returns them in propagation order.
std::vector<NodeId> DeletionWalk(const GraphSnapshot& snap,
                                 const std::vector<NodeId>& seeds,
                                 VisitedSet& deleted) {
  // Not a plain reachability: a node may be inspected several times before
  // its lost-edge count crosses the deletion threshold, so the propagation
  // keeps its own worklist on top of the pooled bitmap.
  std::vector<NodeId> order;  // deleted nodes, also the BFS worklist
  std::unordered_map<NodeId, size_t> lost_edges;

  for (NodeId s : seeds) {
    if (snap.Contains(s) && !deleted.TestAndSet(s)) order.push_back(s);
  }

  auto alive_parent_count = [&snap](NodeId id) {
    size_t n = 0;
    for (NodeId p : snap.ParentsOf(id)) n += snap.Contains(p) ? 1 : 0;
    return n;
  };

  size_t head = 0;
  while (head < order.size()) {
    NodeId dead = order[head++];
    for (NodeId child : snap.ChildrenOf(dead)) {
      if (deleted.Test(child)) continue;
      size_t lost = ++lost_edges[child];
      NodeLabel cl = snap.node(child).label();
      bool joint = cl == NodeLabel::kTimes || cl == NodeLabel::kTensor;
      if (joint || lost >= alive_parent_count(child)) {
        deleted.Set(child);
        order.push_back(child);
      }
    }
  }
  internal::RecordTraversal(TraverseDirection::kForward, order.size(), 1);
  return order;
}

}  // namespace

namespace internal {

Result<bool> DeletionReaches(const GraphSnapshot& snap,
                             const std::vector<NodeId>& seeds,
                             NodeId target) {
  LIPSTICK_RETURN_IF_ERROR(
      RequireSealed(snap.graph(), "deletion propagation"));
  VisitedLease deleted = snap.AcquireVisited();
  DeletionWalk(snap, seeds, *deleted);
  return deleted->Test(target);
}

}  // namespace internal

Result<std::vector<NodeId>> ComputeDeletionSet(
    const GraphSnapshot& snap, const std::vector<NodeId>& seeds) {
  LIPSTICK_RETURN_IF_ERROR(
      RequireSealed(snap.graph(), "deletion propagation"));
  VisitedLease deleted = snap.AcquireVisited();
  return DeletionWalk(snap, seeds, *deleted);
}

Result<size_t> PropagateDeletion(ProvenanceGraph* graph, NodeId seed) {
  obs::ObsSpan span("query", "delete");
  static const obs::MetricId kDeleteUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.delete_us");
  obs::ScopedHistTimer obs_timer(kDeleteUs);

  LIPSTICK_RETURN_IF_ERROR(RequireSealed(*graph, "deletion propagation"));
  std::vector<NodeId> dead;
  {
    // The snapshot borrows the graph's columns: drop it before mutating.
    LIPSTICK_ASSIGN_OR_RETURN(GraphSnapshot snap,
                              GraphSnapshot::Capture(*graph));
    LIPSTICK_ASSIGN_OR_RETURN(dead, ComputeDeletionSet(snap, {seed}));
  }
  for (NodeId id : dead) graph->SetAlive(id, false);
  graph->Seal();
  span.Arg("deleted_nodes", static_cast<uint64_t>(dead.size()));
  return dead.size();
}

Result<bool> DependsOn(const GraphSnapshot& snap, NodeId target,
                       NodeId source) {
  if (!snap.Contains(target) || !snap.Contains(source)) return false;
  if (target == source) return true;
  return internal::DeletionReaches(snap, {source}, target);
}

}  // namespace lipstick
