#ifndef LIPSTICK_PROVENANCE_SUBGRAPH_H_
#define LIPSTICK_PROVENANCE_SUBGRAPH_H_

#include <vector>

#include "common/result.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// All transitive ancestors of `node` (derivation inputs), excluding
/// itself, in unspecified order. Parent edges are always available, so a
/// CaptureForParents snapshot of an unsealed graph works too.
std::vector<NodeId> Ancestors(const GraphSnapshot& snap, NodeId node);

/// All transitive descendants of `node` (derived data), excluding itself,
/// in unspecified order. Fails with kInvalidArgument if the graph is not
/// sealed.
Result<std::vector<NodeId>> Descendants(const GraphSnapshot& snap,
                                        NodeId node);

/// The subgraph query of Section 5.1: the node itself, all its ancestors
/// and descendants, and all siblings of its descendants (the co-parents
/// needed to re-derive each descendant), in unspecified order. The up/down
/// reachability phases run on the parallel traversal engine when
/// `num_threads` > 1; the member *set* is identical at any thread count.
/// Empty if `node` is not alive. Fails with kInvalidArgument if the graph
/// is not sealed.
Result<std::vector<NodeId>> SubgraphNodes(const GraphSnapshot& snap,
                                          NodeId node, int num_threads = 1);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_SUBGRAPH_H_
