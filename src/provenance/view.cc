#include "provenance/view.h"

#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"
#include "provenance/traverse.h"
#include "provenance/zoom.h"

namespace lipstick {

Result<GraphView> GraphView::MakeIdentity(const GraphSnapshot& snap) {
  LIPSTICK_RETURN_IF_ERROR(RequireSealed(snap.graph(), "plan execution"));
  GraphView view(snap);
  view.num_visible_underlying_ = snap.graph().num_alive();
  return view;
}

GraphView GraphView::Clone() const {
  GraphView copy(*snap_);
  copy.mask_->CopyFrom(*mask_);
  copy.num_visible_underlying_ = num_visible_underlying_;
  copy.synthetic_ = synthetic_;
  copy.syn_alive_ = syn_alive_;
  copy.num_syn_alive_ = num_syn_alive_;
  copy.overrides_ = overrides_;
  return copy;
}

GraphView::ChildOverlay GraphView::BuildChildOverlay() const {
  ChildOverlay overlay;
  // Rewired module outputs: their parents became {zoom node, m node}, so
  // the zoom node and the m node each gain the output as a child (the
  // output's original CSR in-edges are suppressed by ForEachChild).
  for (const auto& [out, parents] : overrides_) {
    if (!Visible(out)) continue;
    for (NodeId p : parents) {
      if (VisibleOrSynthetic(p)) overlay[p].push_back(out);
    }
  }
  // Synthetic zoom nodes are children of their (visible) input nodes.
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    if (!syn_alive_[k]) continue;
    NodeId zoom_id = SyntheticId(k);
    for (NodeId p : synthetic_[k].parents) {
      if (Visible(p)) overlay[p].push_back(zoom_id);
    }
  }
  return overlay;
}

Status GraphView::ApplyZoomOut(const std::vector<std::string>& modules,
                               int num_threads) {
  std::set<std::string> unique(modules.begin(), modules.end());
  // One shared mark set across modules makes earlier modules' removals
  // invisible to later planning passes, mirroring the eager path's
  // seal-between-modules behavior.
  for (const std::string& module : unique) {
    Result<internal::ZoomPlan> plan =
        internal::PlanZoomOut(*snap_, module, *mask_, num_threads);
    if (!plan.ok()) return plan.status();
    num_visible_underlying_ -= plan->removed.size();
    for (internal::ZoomInvocationPlan& ip : plan->invocations) {
      NodeId zoom_id = SyntheticId(synthetic_.size());
      for (NodeId out : ip.outputs) {
        overrides_[out] = {zoom_id, ip.m_node};
      }
      PushSynthetic(SyntheticNode{module, ip.invocation, ip.m_node,
                                  std::move(ip.zoom_parents)});
    }
  }
  return Status::OK();
}

Status GraphView::ApplySubgraph(const std::vector<NodeId>& roots, bool up,
                                bool down) {
  std::unordered_set<NodeId> members;
  std::vector<NodeId> work;
  for (NodeId r : roots) {
    if (VisibleOrSynthetic(r)) members.insert(r);
  }
  std::unordered_set<NodeId> seeds = members;
  if (up) {
    work.assign(seeds.begin(), seeds.end());
    size_t reached = 0;
    while (!work.empty()) {
      NodeId id = work.back();
      work.pop_back();
      for (NodeId p : ParentsOf(id)) {
        if (VisibleOrSynthetic(p) && members.insert(p).second) {
          work.push_back(p);
          ++reached;
        }
      }
    }
    internal::RecordTraversal(TraverseDirection::kBackward, reached, 1);
  }
  if (down) {
    ChildOverlay overlay = BuildChildOverlay();
    std::unordered_set<NodeId> down_set;
    std::unordered_set<NodeId> visited = seeds;
    work.assign(seeds.begin(), seeds.end());
    while (!work.empty()) {
      NodeId id = work.back();
      work.pop_back();
      ForEachChild(id, overlay, [&](NodeId c) {
        if (visited.insert(c).second) {
          down_set.insert(c);
          work.push_back(c);
        }
      });
    }
    internal::RecordTraversal(TraverseDirection::kForward, down_set.size(),
                              1);
    for (NodeId d : down_set) {
      members.insert(d);
      if (up) {
        // The legacy subgraph query also keeps co-parents of descendants:
        // every node a descendant is jointly derived from.
        for (NodeId p : ParentsOf(d)) {
          if (VisibleOrSynthetic(p)) members.insert(p);
        }
      }
    }
  }
  // Narrow visibility to the members.
  size_t kept = 0;
  for (uint32_t s = 0; s < snap_->num_shards(); ++s) {
    for (uint64_t i = 0; i < snap_->ShardSize(s); ++i) {
      NodeId id = MakeNodeId(s, i);
      if (!Visible(id)) continue;
      if (members.count(id)) {
        ++kept;
      } else {
        mask_->Set(id);
      }
    }
  }
  num_visible_underlying_ = kept;
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    if (syn_alive_[k] && !members.count(SyntheticId(k))) {
      syn_alive_[k] = 0;
      --num_syn_alive_;
    }
  }
  return Status::OK();
}

Status GraphView::ApplyRestrict(const FactPredicate& pred) {
  size_t kept = 0;
  for (uint32_t s = 0; s < snap_->num_shards(); ++s) {
    for (uint64_t i = 0; i < snap_->ShardSize(s); ++i) {
      NodeId id = MakeNodeId(s, i);
      if (!Visible(id)) continue;
      NodeView n = snap_->node(id);
      if (pred(n.label(), n.role(), n.payload())) {
        ++kept;
      } else {
        mask_->Set(id);
      }
    }
  }
  num_visible_underlying_ = kept;
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    if (syn_alive_[k] &&
        !pred(NodeLabel::kZoomedModule, NodeRole::kZoom,
              synthetic_[k].module)) {
      syn_alive_[k] = 0;
      --num_syn_alive_;
    }
  }
  return Status::OK();
}

std::vector<NodeId> GraphView::DeletionOrder(
    const std::vector<NodeId>& seeds) const {
  // ComputeDeletionSet (provenance/deletion.cc) re-read through the view:
  // Contains -> VisibleOrSynthetic, CSR children -> ForEachChild. Deleted
  // underlying nodes mark a leased bitmap; synthetic ids lie past the
  // snapshot's range and get a side column.
  ChildOverlay overlay = BuildChildOverlay();
  VisitedLease deleted = snap_->AcquireVisited();
  std::vector<uint8_t> syn_deleted(synthetic_.size(), 0);
  auto is_deleted = [&](NodeId id) {
    return IsSynthetic(id) ? syn_deleted[SyntheticIndex(id)] != 0
                           : deleted->Test(id);
  };
  // Marks `id` deleted; true if it was not already.
  auto mark = [&](NodeId id) {
    if (IsSynthetic(id)) {
      return std::exchange(syn_deleted[SyntheticIndex(id)], 1) == 0;
    }
    return !deleted->TestAndSet(id);
  };
  std::vector<NodeId> order;
  std::unordered_map<NodeId, size_t> lost_edges;
  for (NodeId s : seeds) {
    if (VisibleOrSynthetic(s) && mark(s)) order.push_back(s);
  }
  auto alive_parent_count = [this](NodeId id) {
    size_t n = 0;
    for (NodeId p : ParentsOf(id)) n += VisibleOrSynthetic(p) ? 1 : 0;
    return n;
  };
  size_t head = 0;
  while (head < order.size()) {
    NodeId dead = order[head++];
    ForEachChild(dead, overlay, [&](NodeId child) {
      if (is_deleted(child)) return;
      size_t lost = ++lost_edges[child];
      NodeLabel cl = IsSynthetic(child) ? NodeLabel::kZoomedModule
                                        : snap_->node(child).label();
      bool joint = cl == NodeLabel::kTimes || cl == NodeLabel::kTensor;
      if (joint || lost >= alive_parent_count(child)) {
        mark(child);
        order.push_back(child);
      }
    });
  }
  internal::RecordTraversal(TraverseDirection::kForward, order.size(), 1);
  return order;
}

Status GraphView::ApplyDeleteProp(const std::vector<NodeId>& seeds,
                                  size_t* removed) {
  std::vector<NodeId> order = DeletionOrder(seeds);
  for (NodeId id : order) {
    if (IsSynthetic(id)) {
      size_t k = SyntheticIndex(id);
      if (syn_alive_[k]) {
        syn_alive_[k] = 0;
        --num_syn_alive_;
      }
    } else {
      mask_->Set(id);
      --num_visible_underlying_;
    }
  }
  if (removed != nullptr) *removed = order.size();
  return Status::OK();
}

Result<ProvenanceGraph> GraphView::Materialize() const {
  obs::ObsSpan span("query", "view_materialize");
  const GraphSnapshot& snap = *snap_;
  ProvenanceGraph out;
  // Reproduce the source pool id-for-id, so every payload and invocation
  // name in the copied records resolves to the same StrId.
  const StringPool& pool = snap.strings();
  for (StrId i = 1; i < pool.size(); ++i) {
    out.InternString(pool.Get(i));
  }
  std::vector<ShardWriter> writers;
  writers.push_back(out.writer());
  for (uint32_t s = 1; s < snap.num_shards(); ++s) {
    writers.push_back(out.AddShard());
  }
  // Every underlying node is restored at its original (shard, index) with
  // the view's liveness and parents; hidden and originally-dead nodes stay
  // in place as dead records, exactly as the eager mutating operators
  // leave them.
  NodeRecord rec;
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    for (uint64_t i = 0; i < snap.ShardSize(s); ++i) {
      NodeId id = MakeNodeId(s, i);
      NodeView n = snap.node(id);
      rec.label = n.label();
      rec.role = n.role();
      rec.is_value_node = n.is_value_node();
      rec.alive = Visible(id);
      rec.invocation = n.invocation();
      auto ov = overrides_.find(id);
      if (ov != overrides_.end()) {
        rec.parents.assign(ov->second.begin(), ov->second.end());
      } else {
        std::span<const NodeId> ps = snap.ParentsOf(id);
        rec.parents.assign(ps.begin(), ps.end());
      }
      rec.payload = std::string(n.payload());
      rec.value = n.value();
      writers[s].Restore(rec);
    }
  }
  // Synthetic zoom nodes continue shard 0's index space, exactly where the
  // eager writer would have appended them; ones hidden by a later pipeline
  // stage are restored dead, like any other hidden node.
  for (size_t k = 0; k < synthetic_.size(); ++k) {
    const SyntheticNode& z = synthetic_[k];
    NodeRecord zrec;
    zrec.label = NodeLabel::kZoomedModule;
    zrec.role = NodeRole::kZoom;
    zrec.alive = syn_alive_[k] != 0;
    zrec.invocation = z.invocation;
    zrec.parents = z.parents;
    zrec.payload = z.module;
    writers[0].Restore(zrec);
  }
  for (const InvocationInfo& inv : snap.invocations()) {
    out.RestoreInvocation(inv);
  }
  out.Seal();
  span.Arg("nodes", static_cast<uint64_t>(out.num_nodes()));
  return out;
}

}  // namespace lipstick
