#ifndef LIPSTICK_PROVENANCE_QUERY_H_
#define LIPSTICK_PROVENANCE_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// A small ProQL-style query layer over provenance graphs (the paper
/// defers to ProQL [20] for graph querying; these primitives cover the
/// selections and reachability patterns used in its examples, composed
/// with the zoom / deletion transformations of Section 4).
///
/// Every query reads a GraphSnapshot — the unified read path — and is safe
/// for any number of concurrent callers over one snapshot. Capture one with
/// GraphSnapshot::Capture (or CaptureForParents for parent-only reads of an
/// unsealed graph).

/// Predicate over nodes (views into the columnar storage).
using NodePredicate = std::function<bool(NodeId, const NodeView&)>;

/// Common predicate constructors.
NodePredicate ByLabel(NodeLabel label);
NodePredicate ByRole(NodeRole role);
/// Payload contains `substring` (token names, module names, agg ops...).
NodePredicate ByPayload(const std::string& substring);
/// Node belongs to an invocation of the given module name.
NodePredicate ByModule(const GraphSnapshot& snap, std::string module);
NodePredicate And(NodePredicate a, NodePredicate b);
NodePredicate Or(NodePredicate a, NodePredicate b);
NodePredicate Not(NodePredicate p);

/// All alive nodes satisfying `pred`, in deterministic id order at any
/// thread count. The predicate must be thread-safe when `num_threads` > 1
/// (all the constructors above are).
std::vector<NodeId> FindNodes(const GraphSnapshot& snap,
                              const NodePredicate& pred,
                              int num_threads = 1);

/// True if an alive directed path `from -> ... -> to` exists (derivation
/// order: edges point from inputs to results). Fails with kInvalidArgument
/// if the graph is not sealed.
Result<bool> PathExists(const GraphSnapshot& snap, NodeId from, NodeId to);

/// One shortest derivation path from `from` to `to` (node ids, inclusive),
/// or empty if none. Fails with kInvalidArgument if the graph is not sealed.
Result<std::vector<NodeId>> ShortestDerivationPath(const GraphSnapshot& snap,
                                                   NodeId from, NodeId to);

/// Set-dependency query (Section 4.3, "extended to sets of nodes"): does
/// the existence of `target` depend on the *joint* existence of `sources`,
/// i.e. is `target` deleted when all of `sources` are deleted together?
/// Fails with kInvalidArgument if the graph is not sealed.
Result<bool> DependsOnSet(const GraphSnapshot& snap, NodeId target,
                          const std::vector<NodeId>& sources);

/// Summary statistics of the alive graph, for diagnostics and tests.
struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t tokens = 0;
  size_t invocations = 0;
  size_t max_fan_in = 0;   // largest parent count
  size_t max_fan_out = 0;  // largest child count (sealed graphs)
  size_t depth = 0;        // longest derivation path length (edges)
};
/// Fails with kInvalidArgument if the graph is not sealed.
Result<GraphStats> ComputeGraphStats(const GraphSnapshot& snap);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_QUERY_H_
