#include "provenance/exec.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "provenance/deletion.h"
#include "provenance/query.h"
#include "provenance/semiring.h"

namespace lipstick {

namespace {

/// snprintf into a std::string accumulator (query output is rendered to a
/// string so batch drivers and the wire protocol can ship it whole).
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

NodePredicate PatternPredicate(const PlanPattern& pattern) {
  return [pattern](NodeId, const NodeView& n) {
    return pattern.Matches(n.label(), n.role(), n.payload());
  };
}

std::string JoinIds(const std::vector<NodeId>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (NodeId id : ids) parts.push_back(StrCat(id));
  return Join(parts, ",");
}

void RenderStatsBlock(std::string* out, const GraphStats& stats,
                      const std::vector<std::pair<std::string, size_t>>&
                          histogram) {
  Appendf(out, "nodes:        %zu\n", stats.nodes);
  Appendf(out, "edges:        %zu\n", stats.edges);
  Appendf(out, "tokens:       %zu\n", stats.tokens);
  Appendf(out, "invocations:  %zu\n", stats.invocations);
  Appendf(out, "max fan-in:   %zu\n", stats.max_fan_in);
  Appendf(out, "max fan-out:  %zu\n", stats.max_fan_out);
  Appendf(out, "depth:        %zu\n", stats.depth);
  for (const auto& [label, count] : histogram) {
    Appendf(out, "  label %-10s %zu\n", label.c_str(), count);
  }
}

void RenderFindLine(std::string* out, NodeId id, NodeLabel label,
                    NodeRole role, std::string_view payload) {
  Appendf(out, "%llu  %-9s %-13s ", static_cast<unsigned long long>(id),
          NodeLabelToString(label), NodeRoleToString(role));
  out->append(payload);
  out->push_back('\n');
}

/// ------------------------------------------------------------------
/// Terminals on a bare snapshot (plans without view operators, and the
/// naive executor after it materialized every stage). These are the
/// historical single-op renderers, byte for byte.
/// ------------------------------------------------------------------

Result<std::string> RenderTerminalOnSnapshot(const GraphSnapshot& snap,
                                             const PlanOp& op, int threads) {
  std::string out;
  switch (op.kind) {
    case PlanOpKind::kStats: {
      Result<GraphStats> stats = ComputeGraphStats(snap);
      if (!stats.ok()) return stats.status();
      RenderStatsBlock(&out, *stats, snap.graph().LabelHistogram());
      return out;
    }
    case PlanOpKind::kFind: {
      std::vector<NodeId> found =
          FindNodes(snap, PatternPredicate(op.pattern), threads);
      for (NodeId id : found) {
        NodeView n = snap.node(id);
        RenderFindLine(&out, id, n.label(), n.role(), n.payload());
      }
      Appendf(&out, "(%zu nodes)\n", found.size());
      return out;
    }
    case PlanOpKind::kExpr:
      out = ProvExpressionString(snap, op.target, 12);
      out.push_back('\n');
      return out;
    case PlanOpKind::kDepends: {
      Result<bool> dep = DependsOn(snap, op.target, op.source);
      if (!dep.ok()) return dep.status();
      out = *dep ? "yes\n" : "no\n";
      return out;
    }
    default:
      return Status::InvalidArgument("not a terminal operation");
  }
}

/// ------------------------------------------------------------------
/// Terminals on a composed view: the same algorithms re-read through the
/// view's adjacency (mask + synthetic zoom nodes + parent rewirings), so
/// their output matches running the terminal on the materialized graph.
/// ------------------------------------------------------------------

Result<GraphStats> ComputeViewStats(const GraphView& view) {
  const GraphSnapshot& snap = view.snapshot();
  GraphStats stats;
  stats.invocations = snap.graph().num_live_invocations();
  // Depth fixpoint exactly as ComputeGraphStats, with a side column for
  // the synthetic zoom nodes.
  std::vector<std::vector<size_t>> depth(snap.num_shards());
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    depth[s].assign(snap.ShardSize(s), 0);
  }
  std::vector<size_t> syn_depth(view.num_synthetic(), 0);
  auto depth_at = [&](NodeId id) -> size_t& {
    if (view.IsSynthetic(id)) return syn_depth[view.SyntheticIndex(id)];
    return depth[NodeShard(id)][NodeIndex(id)];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
      size_t best = 0;
      for (NodeId p : view.ParentsOf(id)) {
        if (view.VisibleOrSynthetic(p)) {
          best = std::max(best, depth_at(p) + 1);
        }
      }
      if (best > depth_at(id)) {
        depth_at(id) = best;
        changed = true;
      }
    });
  }
  // Fan-out has no CSR to read (the view never seals), so accumulate it
  // from the parent side: every visible edge child->parent is one out-edge
  // of the parent.
  std::vector<std::vector<size_t>> fan_out(snap.num_shards());
  for (uint32_t s = 0; s < snap.num_shards(); ++s) {
    fan_out[s].assign(snap.ShardSize(s), 0);
  }
  std::vector<size_t> syn_fan_out(view.num_synthetic(), 0);
  auto fan_out_at = [&](NodeId id) -> size_t& {
    if (view.IsSynthetic(id)) return syn_fan_out[view.SyntheticIndex(id)];
    return fan_out[NodeShard(id)][NodeIndex(id)];
  };
  view.ForEachVisibleNode(
      [&](NodeId id, const GraphView::SyntheticNode* syn) {
        ++stats.nodes;
        size_t fan_in = 0;
        for (NodeId p : view.ParentsOf(id)) {
          if (!view.VisibleOrSynthetic(p)) continue;
          ++fan_in;
          ++fan_out_at(p);
        }
        stats.edges += fan_in;
        stats.max_fan_in = std::max(stats.max_fan_in, fan_in);
        if (syn == nullptr &&
            snap.node(id).label() == NodeLabel::kToken) {
          ++stats.tokens;
        }
        stats.depth = std::max(stats.depth, depth_at(id));
      });
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode*) {
    stats.max_fan_out = std::max(stats.max_fan_out, fan_out_at(id));
  });
  return stats;
}

std::vector<std::pair<std::string, size_t>> ViewLabelHistogram(
    const GraphView& view) {
  std::map<std::string, size_t> hist;
  view.ForEachVisibleNode(
      [&](NodeId id, const GraphView::SyntheticNode* syn) {
        NodeLabel label = syn != nullptr
                              ? NodeLabel::kZoomedModule
                              : view.snapshot().node(id).label();
        ++hist[NodeLabelToString(label)];
      });
  return {hist.begin(), hist.end()};
}

/// Mirror of semiring.cc's ExprString over the view adjacency.
std::string ViewExprString(const GraphView& view, NodeId id, int depth) {
  if (depth <= 0) return "...";
  auto join_parents = [&](const char* sep) {
    std::vector<std::string> parts;
    for (NodeId p : view.ParentsOf(id)) {
      if (view.VisibleOrSynthetic(p)) {
        parts.push_back(ViewExprString(view, p, depth - 1));
      }
    }
    return Join(parts, sep);
  };
  if (view.IsSynthetic(id)) {
    const GraphView::SyntheticNode& z =
        view.synthetic_nodes()[view.SyntheticIndex(id)];
    return StrCat("M<", z.module, ">(", join_parents(", "), ")");
  }
  NodeView n = view.snapshot().node(id);
  switch (n.label()) {
    case NodeLabel::kToken:
      return n.payload().empty() ? std::string("x?")
                                 : std::string(n.payload());
    case NodeLabel::kPlus:
      return StrCat("(", join_parents(" + "), ")");
    case NodeLabel::kTimes:
      return StrCat("(", join_parents(" * "), ")");
    case NodeLabel::kDelta:
      return StrCat("delta(", join_parents(" + "), ")");
    case NodeLabel::kTensor:
      return StrCat("(", join_parents(" (x) "), ")");
    case NodeLabel::kAggregate:
      return StrCat(n.payload(), "[", join_parents(", "), "]");
    case NodeLabel::kConstValue:
      return n.value().ToString();
    case NodeLabel::kBlackBox:
      return StrCat(n.payload(), "(", join_parents(", "), ")");
    case NodeLabel::kModuleInvocation:
      return StrCat("m<", n.payload(), ">");
    case NodeLabel::kZoomedModule:
      return StrCat("M<", n.payload(), ">(", join_parents(", "), ")");
  }
  return "?";
}

Result<std::string> RenderTerminalOnView(const GraphView& view,
                                         const PlanOp& op) {
  std::string out;
  switch (op.kind) {
    case PlanOpKind::kStats: {
      Result<GraphStats> stats = ComputeViewStats(view);
      if (!stats.ok()) return stats.status();
      RenderStatsBlock(&out, *stats, ViewLabelHistogram(view));
      return out;
    }
    case PlanOpKind::kFind: {
      size_t count = 0;
      view.ForEachVisibleNode(
          [&](NodeId id, const GraphView::SyntheticNode* syn) {
            NodeLabel label;
            NodeRole role;
            std::string_view payload;
            if (syn != nullptr) {
              label = NodeLabel::kZoomedModule;
              role = NodeRole::kZoom;
              payload = syn->module;
            } else {
              NodeView n = view.snapshot().node(id);
              label = n.label();
              role = n.role();
              payload = n.payload();
            }
            if (!op.pattern.Matches(label, role, payload)) return;
            ++count;
            RenderFindLine(&out, id, label, role, payload);
          });
      Appendf(&out, "(%zu nodes)\n", count);
      return out;
    }
    case PlanOpKind::kExpr:
      out = view.VisibleOrSynthetic(op.target)
                ? ViewExprString(view, op.target, 12)
                : "0";
      out.push_back('\n');
      return out;
    case PlanOpKind::kDepends: {
      if (!view.VisibleOrSynthetic(op.target) ||
          !view.VisibleOrSynthetic(op.source)) {
        return std::string("no\n");
      }
      if (op.target == op.source) return std::string("yes\n");
      std::vector<NodeId> deleted = view.DeletionOrder({op.source});
      bool dep = std::find(deleted.begin(), deleted.end(), op.target) !=
                 deleted.end();
      return std::string(dep ? "yes\n" : "no\n");
    }
    default:
      return Status::InvalidArgument("not a terminal operation");
  }
}

/// A pipeline ending in a view operator renders that operator's summary
/// line — for the single-op forms, the historical output byte for byte.
std::string RenderViewSummary(const PlanOp& op, size_t num_visible,
                              size_t last_removed) {
  std::string out;
  switch (op.kind) {
    case PlanOpKind::kZoomOut:
      Appendf(&out, "zoomed out of %zu module(s); %zu nodes remain\n",
              op.modules.size(), num_visible);
      return out;
    case PlanOpKind::kSubgraph:
      Appendf(&out, "subgraph of %s: %zu nodes\n", JoinIds(op.nodes).c_str(),
              num_visible);
      return out;
    case PlanOpKind::kRestrict:
      Appendf(&out, "restricted to %zu nodes\n", num_visible);
      return out;
    case PlanOpKind::kDeleteProp:
      Appendf(&out, "deleted %zu node(s); %zu nodes remain\n", last_removed,
              num_visible);
      return out;
    default:
      return out;
  }
}

/// Applies one view stage; returns the DeleteProp removal count (0 for the
/// other stage kinds).
Result<size_t> ApplyStage(GraphView* view, const PlanOp& op, int threads) {
  switch (op.kind) {
    case PlanOpKind::kZoomOut:
      LIPSTICK_RETURN_IF_ERROR(view->ApplyZoomOut(op.modules, threads));
      return size_t{0};
    case PlanOpKind::kSubgraph:
      LIPSTICK_RETURN_IF_ERROR(
          view->ApplySubgraph(op.nodes, op.dir != SubgraphDir::kDown,
                              op.dir != SubgraphDir::kUp));
      return size_t{0};
    case PlanOpKind::kRestrict: {
      const PlanPattern& pattern = op.pattern;
      LIPSTICK_RETURN_IF_ERROR(view->ApplyRestrict(
          [&pattern](NodeLabel l, NodeRole r, std::string_view p) {
            return pattern.Matches(l, r, p);
          }));
      return size_t{0};
    }
    case PlanOpKind::kDeleteProp: {
      size_t removed = 0;
      LIPSTICK_RETURN_IF_ERROR(view->ApplyDeleteProp(op.nodes, &removed));
      return removed;
    }
    default:
      return Status::InvalidArgument("not a view operation");
  }
}

}  // namespace

std::string PlanViewCache::Key(const std::string& scope,
                               const std::string& prefix) {
  std::string key = scope;
  key.push_back('\x1f');
  key.append(prefix);
  return key;
}

std::shared_ptr<const PlanViewCache::Entry> PlanViewCache::GetLongestPrefix(
    const std::string& scope, const std::vector<std::string>& prefixes,
    size_t* index) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = prefixes.size(); i-- > 0;) {
    auto it = index_.find(Key(scope, prefixes[i]));
    if (it == index_.end()) continue;
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    *index = i;
    return it->second->entry;
  }
  ++misses_;
  return nullptr;
}

void PlanViewCache::Put(const std::string& scope, const std::string& prefix,
                        Entry entry) {
  if (capacity_ == 0) return;
  std::string key = Key(scope, prefix);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::make_shared<const Entry>(std::move(entry));
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::make_shared<const Entry>(std::move(entry))});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

size_t PlanViewCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t PlanViewCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t PlanViewCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

Result<std::string> ExecutePlan(const GraphSnapshot& snap,
                                const OptimizedPlan& opt,
                                const ExecOptions& opts) {
  const Plan& plan = opt.plan;
  if (plan.ops.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  int threads = opts.threads < 1 ? 1 : opts.threads;
  size_t view_ops = plan.NumViewOps();
  if (view_ops == 0) {
    return RenderTerminalOnSnapshot(snap, plan.ops.back(), threads);
  }
  std::optional<GraphView> view;
  size_t start = 0;
  size_t last_removed = 0;
  if (opts.cache != nullptr) {
    size_t idx = 0;
    std::shared_ptr<const PlanViewCache::Entry> hit =
        opts.cache->GetLongestPrefix(opts.scope, opt.view_prefixes, &idx);
    if (hit != nullptr) {
      view = hit->view.Clone();
      last_removed = hit->last_stage_removed;
      start = idx + 1;
    }
  }
  if (!view.has_value()) {
    Result<GraphView> identity = GraphView::MakeIdentity(snap);
    if (!identity.ok()) return identity.status();
    view = std::move(*identity);
  }
  for (size_t i = start; i < view_ops; ++i) {
    Result<size_t> removed = ApplyStage(&*view, plan.ops[i], threads);
    if (!removed.ok()) return removed.status();
    last_removed = *removed;
    if (opts.cache != nullptr) {
      opts.cache->Put(
          opts.scope, opt.view_prefixes[i],
          PlanViewCache::Entry{view->Clone(), last_removed, opts.pin});
    }
  }
  if (plan.HasTerminal()) {
    return RenderTerminalOnView(*view, plan.ops.back());
  }
  return RenderViewSummary(plan.ops[view_ops - 1], view->num_visible(),
                           last_removed);
}

Result<std::string> ExecutePlanNaive(const GraphSnapshot& snap,
                                     const Plan& plan, int threads) {
  if (plan.ops.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  if (threads < 1) threads = 1;
  size_t view_ops = plan.NumViewOps();
  const GraphSnapshot* cur = &snap;
  std::optional<GraphSnapshot> owned_snap;
  size_t last_removed = 0;
  size_t final_visible = 0;
  for (size_t i = 0; i < view_ops; ++i) {
    Result<GraphView> view = GraphView::MakeIdentity(*cur);
    if (!view.ok()) return view.status();
    Result<size_t> removed = ApplyStage(&*view, plan.ops[i], threads);
    if (!removed.ok()) return removed.status();
    last_removed = *removed;
    final_visible = view->num_visible();
    Result<ProvenanceGraph> graph = view->Materialize();
    if (!graph.ok()) return graph.status();
    auto owner =
        std::make_shared<const ProvenanceGraph>(std::move(*graph));
    Result<GraphSnapshot> next = GraphSnapshot::Capture(owner);
    if (!next.ok()) return next.status();
    owned_snap = std::move(*next);
    cur = &*owned_snap;
  }
  if (plan.HasTerminal()) {
    return RenderTerminalOnSnapshot(*cur, plan.ops.back(), threads);
  }
  return RenderViewSummary(plan.ops[view_ops - 1], final_visible,
                           last_removed);
}

Result<GraphView> BuildPlanView(const GraphSnapshot& snap, const Plan& plan,
                                int threads, std::string* summary) {
  if (threads < 1) threads = 1;
  Result<GraphView> identity = GraphView::MakeIdentity(snap);
  if (!identity.ok()) return identity.status();
  GraphView view = std::move(*identity);
  size_t view_ops = plan.NumViewOps();
  size_t last_removed = 0;
  for (size_t i = 0; i < view_ops; ++i) {
    Result<size_t> removed = ApplyStage(&view, plan.ops[i], threads);
    if (!removed.ok()) return removed.status();
    last_removed = *removed;
  }
  if (summary != nullptr && view_ops > 0) {
    *summary = RenderViewSummary(plan.ops[view_ops - 1], view.num_visible(),
                                 last_removed);
  }
  return view;
}

}  // namespace lipstick
