#include "provenance/subgraph.h"

#include <array>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/traverse.h"

namespace lipstick {

namespace {

/// Every alive node reachable from `start` (exclusive unless re-reached),
/// marked in `visited` and collected in unspecified order.
std::vector<NodeId> ReachFrom(const GraphSnapshot& snap, NodeId start,
                              TraverseDirection dir, int num_threads,
                              VisitedSet& visited) {
  std::array<NodeId, 1> seeds{start};
  return ParallelReach(snap, seeds, dir, num_threads, visited);
}

}  // namespace

std::vector<NodeId> Ancestors(const GraphSnapshot& snap, NodeId node) {
  VisitedLease visited = snap.AcquireVisited();
  return ReachFrom(snap, node, TraverseDirection::kBackward, 1, *visited);
}

Result<std::vector<NodeId>> Descendants(const GraphSnapshot& snap,
                                        NodeId node) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "descendant queries"));
  VisitedLease visited = snap.AcquireVisited();
  return ReachFrom(snap, node, TraverseDirection::kForward, 1, *visited);
}

Result<std::vector<NodeId>> SubgraphNodes(const GraphSnapshot& snap,
                                          NodeId node, int num_threads) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "subgraph queries"));
  obs::ObsSpan span("query", "subgraph");
  static const obs::MetricId kSubgraphUs =
      obs::MetricsRegistry::Global().RegisterHistogram("query.subgraph_us");
  obs::ScopedHistTimer obs_timer(kSubgraphUs);
  if (num_threads < 1) num_threads = 1;

  if (!snap.Contains(node)) return std::vector<NodeId>{};
  // One result bitmap accumulates ancestors, descendants, and siblings of
  // descendants.
  VisitedLease in_result = snap.AcquireVisited();
  std::vector<NodeId> result =
      ReachFrom(snap, node, TraverseDirection::kBackward, num_threads,
                *in_result);
  VisitedLease down_only = snap.AcquireVisited();
  std::vector<NodeId> down = ReachFrom(
      snap, node, TraverseDirection::kForward, num_threads, *down_only);
  if (num_threads <= 1) {
    for (NodeId d : down) {
      if (!in_result->TestAndSet(d)) result.push_back(d);
      // Siblings of descendants: every co-parent a descendant is derived
      // from.
      for (NodeId p : snap.ParentsOf(d)) {
        if (snap.Contains(p) && !in_result->TestAndSet(p)) {
          result.push_back(p);
        }
      }
    }
  } else {
    std::vector<std::vector<NodeId>> found(num_threads);
    ParallelFor(down.size(), num_threads,
                [&](size_t b, size_t e, int w) {
                  for (size_t i = b; i < e; ++i) {
                    NodeId d = down[i];
                    if (!in_result->TestAndSetAtomic(d)) {
                      found[w].push_back(d);
                    }
                    for (NodeId p : snap.ParentsOf(d)) {
                      if (snap.Contains(p) &&
                          !in_result->TestAndSetAtomic(p)) {
                        found[w].push_back(p);
                      }
                    }
                  }
                });
    for (const std::vector<NodeId>& v : found) {
      result.insert(result.end(), v.begin(), v.end());
    }
  }
  if (!in_result->TestAndSet(node)) result.push_back(node);
  span.Arg("result_nodes", static_cast<uint64_t>(result.size()));
  return result;
}

}  // namespace lipstick
