#ifndef LIPSTICK_PROVENANCE_VIEW_H_
#define LIPSTICK_PROVENANCE_VIEW_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "provenance/snapshot.h"

namespace lipstick {

/// A lazy result of a graph-transforming query (ZoomOut, subgraph,
/// restrict, deletion propagation): a node mask over an immutable
/// GraphSnapshot plus, for zoom, synthetic collapsed module nodes and
/// parent rewirings. Nothing is copied or mutated when a view is built —
/// the view materializes into a standalone ProvenanceGraph only on export,
/// and materialization is byte-identical (provio) to what the eager,
/// mutating operator produces.
///
/// Views compose: the plan executor (provenance/exec.h) starts from
/// MakeIdentity() and chains ApplyZoomOut / ApplySubgraph / ApplyRestrict
/// / ApplyDeleteProp on one view, so a whole pipeline runs against a
/// single mask with no intermediate materialization ("mask fusion").
/// Applying stage k over the composed state is equivalent to materializing
/// after stage k-1 and running stage k eagerly — the plan-equivalence
/// suite (tests/plan_test.cc) checks this byte-for-byte.
///
/// Thread-safety: composition (the Apply* methods) is single-threaded;
/// once composed, a GraphView is immutable and any number of threads may
/// read or Materialize() one view concurrently, under the same contract as
/// the snapshot it was built from.
class GraphView {
 public:
  /// A collapsed module p-node that exists only in the view. Its id
  /// (SyntheticId) continues shard 0's index space, exactly where the
  /// eager path's writer would have appended it.
  struct SyntheticNode {
    std::string module;            // payload of the zoom node
    uint32_t invocation = 0;       // owning invocation id
    NodeId m_node = kInvalidNode;  // the invocation's "m" node
    std::vector<NodeId> parents;   // the invocation's live input nodes
  };

  /// Node predicate over the facts a restrict stage can see. Synthetic
  /// zoom nodes evaluate as (kZoomedModule, kZoom, module-name).
  using FactPredicate =
      std::function<bool(NodeLabel, NodeRole, std::string_view)>;

  GraphView(GraphView&&) = default;
  GraphView& operator=(GraphView&&) = default;

  /// The all-visible view of a snapshot: the Scan leaf every composed plan
  /// starts from. Fails with kInvalidArgument on an unsealed graph.
  static Result<GraphView> MakeIdentity(const GraphSnapshot& snap);

  /// Deep copy (mask, synthetics, rewirings). The cacheable-subplan path
  /// clones a cached prefix view before extending it with further stages.
  GraphView Clone() const;

  const GraphSnapshot& snapshot() const { return *snap_; }

  /// True iff underlying node `id` is alive under this view. Synthetic ids
  /// are out of the snapshot's range and always report false here; they are
  /// enumerated separately via synthetic_nodes().
  bool Visible(NodeId id) const {
    return snap_->Contains(id) && !mask_->Test(id);
  }

  /// Visibility across both node populations: underlying nodes by mask,
  /// synthetic nodes by their alive flag.
  bool VisibleOrSynthetic(NodeId id) const {
    if (IsSynthetic(id)) return syn_alive_[SyntheticIndex(id)] != 0;
    return Visible(id);
  }

  /// Visible underlying nodes plus alive synthetic nodes.
  size_t num_visible() const {
    return num_visible_underlying_ + num_syn_alive_;
  }
  size_t num_synthetic() const { return synthetic_.size(); }
  const std::vector<SyntheticNode>& synthetic_nodes() const {
    return synthetic_;
  }
  NodeId SyntheticId(size_t k) const { return MakeNodeId(0, base0_ + k); }
  /// True iff `id` names one of this view's synthetic nodes.
  bool IsSynthetic(NodeId id) const {
    return NodeShard(id) == 0 && NodeIndex(id) >= base0_ &&
           NodeIndex(id) < base0_ + synthetic_.size();
  }
  size_t SyntheticIndex(NodeId id) const { return NodeIndex(id) - base0_; }
  /// Liveness of synthetic node `k` (a later pipeline stage may hide a
  /// zoom node created by an earlier one).
  bool SyntheticAlive(size_t k) const { return syn_alive_[k] != 0; }

  /// Parent list of a node under the view: synthetic nodes resolve to
  /// their input nodes, rewired module outputs to {zoom node, m node},
  /// everything else to the snapshot's parents. Callers filter for
  /// visibility themselves, as with ProvenanceGraph::ParentsOf.
  std::span<const NodeId> ParentsOf(NodeId id) const {
    if (IsSynthetic(id)) {
      return synthetic_[SyntheticIndex(id)].parents;
    }
    auto it = overrides_.find(id);
    if (it != overrides_.end()) {
      return std::span<const NodeId>(it->second.data(), it->second.size());
    }
    return snap_->ParentsOf(id);
  }

  /// The zoom rewirings: module output -> {zoom node, m node}.
  const std::unordered_map<NodeId, std::array<NodeId, 2>>& parent_overrides()
      const {
    return overrides_;
  }

  /// Every visible node in materialization order: shard 0's originals,
  /// then the alive synthetic zoom nodes, then the remaining shards. `fn`
  /// is called as fn(NodeId, const SyntheticNode*) with null for underlying
  /// nodes. This is exactly ForEachAliveNode order on the materialized
  /// graph, which keeps lazy exports byte-identical to eager ones.
  template <typename Fn>
  void ForEachVisibleNode(Fn&& fn) const {
    const SyntheticNode* none = nullptr;
    for (uint64_t i = 0; i < base0_; ++i) {
      NodeId id = MakeNodeId(0, i);
      if (Visible(id)) fn(id, none);
    }
    for (size_t k = 0; k < synthetic_.size(); ++k) {
      if (syn_alive_[k]) fn(SyntheticId(k), &synthetic_[k]);
    }
    for (uint32_t s = 1; s < snap_->num_shards(); ++s) {
      for (uint64_t i = 0; i < snap_->ShardSize(s); ++i) {
        NodeId id = MakeNodeId(s, i);
        if (Visible(id)) fn(id, none);
      }
    }
  }

  /// Extra child adjacency a composed view carries on top of the
  /// snapshot's CSR: edges into rewired module outputs and edges touching
  /// synthetic zoom nodes. Built on demand by the stages/terminals that
  /// traverse downward; see ForEachChild.
  using ChildOverlay = std::unordered_map<NodeId, std::vector<NodeId>>;
  ChildOverlay BuildChildOverlay() const;

  /// Visible children of `id` under the view: the snapshot's CSR edges
  /// minus edges into rewired outputs (their parents changed), plus the
  /// overlay's synthetic/rewired edges. Duplicate edges are preserved,
  /// like the CSR itself.
  template <typename Fn>
  void ForEachChild(NodeId id, const ChildOverlay& overlay, Fn&& fn) const {
    if (!IsSynthetic(id)) {
      for (NodeId c : snap_->ChildrenOf(id)) {
        if (Visible(c) && overrides_.find(c) == overrides_.end()) fn(c);
      }
    }
    auto it = overlay.find(id);
    if (it != overlay.end()) {
      for (NodeId c : it->second) fn(c);
    }
  }

  /// Deletion propagation (Definition 4.2) from `seeds` over the view's
  /// adjacency, without changing the view: a node dies when it is joint
  /// (· / ⊗) and loses any in-edge, or when it loses all of its visible
  /// in-edges. Returns the deleted nodes (visible seeds first) in
  /// propagation order — the walk behind ApplyDeleteProp and the view
  /// form of the dependency query.
  std::vector<NodeId> DeletionOrder(const std::vector<NodeId>& seeds) const;

  /// ------------------------------------------------------------------
  /// Composition stages. Each narrows visibility in place, starting from
  /// MakeIdentity(). Equivalent to materializing first and running the
  /// eager operator on the result.
  /// ------------------------------------------------------------------

  /// Collapses every named module (Definition 4.1) over the current
  /// visibility. Duplicate names collapse once. Fails with kNotFound when
  /// the graph holds no live invocation of a module.
  Status ApplyZoomOut(const std::vector<std::string>& modules,
                      int num_threads);

  /// Restricts visibility to the reachability neighborhood of `roots`:
  /// ancestors (`up`), descendants (`down`), plus co-parents of
  /// descendants when both directions are on (the legacy subgraph query).
  /// Invisible roots contribute nothing, like the eager query on a dead
  /// node.
  Status ApplySubgraph(const std::vector<NodeId>& roots, bool up, bool down);

  /// Hides every visible node whose (label, role, payload) facts fail
  /// `pred`.
  Status ApplyRestrict(const FactPredicate& pred);

  /// Deletion propagation (DeletionOrder) from `seeds`; the deleted set
  /// becomes hidden. `*removed` receives the deleted-node count (seeds
  /// included).
  Status ApplyDeleteProp(const std::vector<NodeId>& seeds, size_t* removed);

  /// Builds a standalone graph equal to what the eager operator would have
  /// produced by mutation: same string pool, same node ids, same liveness,
  /// same (rewired) parents, sealed. Byte-identical under provio.
  Result<ProvenanceGraph> Materialize() const;

 private:
  explicit GraphView(const GraphSnapshot& snap)
      : snap_(&snap),
        mask_(snap.AcquireVisited()),
        base0_(snap.ShardSize(0)) {}

  /// Appends a synthetic zoom node (alive).
  void PushSynthetic(SyntheticNode node) {
    synthetic_.push_back(std::move(node));
    syn_alive_.push_back(1);
    ++num_syn_alive_;
  }

  const GraphSnapshot* snap_;
  // The mask is a leased bitmap of hidden nodes, so a view costs no
  // full-graph scan to build.
  VisitedLease mask_;
  size_t num_visible_underlying_ = 0;
  uint64_t base0_;  // shard 0 size; synthetic ids start here
  std::vector<SyntheticNode> synthetic_;
  std::vector<uint8_t> syn_alive_;  // parallel to synthetic_
  size_t num_syn_alive_ = 0;
  std::unordered_map<NodeId, std::array<NodeId, 2>> overrides_;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_VIEW_H_
