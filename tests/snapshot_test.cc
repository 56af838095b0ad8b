// Tests for the unified read path: GraphSnapshot, the shared traversal
// engine, lazy GraphViews, and their equivalence with the eager mutating
// operators — including byte-identity of materialized views under provio
// and a multi-threaded stress run (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "provenance/deletion.h"
#include "common/str_util.h"
#include "provenance/dot.h"
#include "provenance/exec.h"
#include "provenance/graph.h"
#include "provenance/provio.h"
#include "provenance/plan.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "provenance/traverse.h"
#include "provenance/view.h"
#include "provenance/zoom.h"
#include "test_util.h"
#include "workflowgen/arctic.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

std::string SaveBytes(const ProvenanceGraph& graph) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraph(graph, os).ok());
  return os.str();
}

/// Clones a graph through the provio round trip (node ids, string-pool
/// order, and bytes are all stable across Save/Load).
ProvenanceGraph CloneSealed(const ProvenanceGraph& graph) {
  std::istringstream is(SaveBytes(graph));
  Result<ProvenanceGraph> copy = LoadGraph(is);
  EXPECT_TRUE(copy.ok()) << copy.status().ToString();
  copy->Seal();
  return std::move(*copy);
}

/// Lazy ZoomOut over a snapshot: the identity view with one zoom stage.
Result<GraphView> ZoomView(const GraphSnapshot& snap,
                           const std::vector<std::string>& modules,
                           int threads) {
  LIPSTICK_ASSIGN_OR_RETURN(GraphView view, GraphView::MakeIdentity(snap));
  LIPSTICK_RETURN_IF_ERROR(view.ApplyZoomOut(modules, threads));
  return view;
}

/// The underlying nodes a view keeps visible (synthetics excluded).
std::set<NodeId> VisibleIds(const GraphView& view) {
  std::set<NodeId> ids;
  view.ForEachVisibleNode([&](NodeId id, const GraphView::SyntheticNode* syn) {
    if (syn == nullptr) ids.insert(id);
  });
  return ids;
}

ProvenanceGraph BuildDealershipGraph() {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 3;
  cfg.seed = 11;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  EXPECT_TRUE(wf.ok());
  ProvenanceGraph graph;
  EXPECT_TRUE((*wf)->Run(&graph).ok());
  graph.Seal();
  return graph;
}

ProvenanceGraph BuildArcticGraph() {
  workflowgen::ArcticConfig cfg;
  cfg.topology = workflowgen::ArcticTopology::kSerial;
  cfg.num_stations = 4;
  cfg.history_years = 5;
  auto wf = workflowgen::ArcticWorkflow::Create(cfg);
  EXPECT_TRUE(wf.ok());
  ProvenanceGraph graph;
  EXPECT_TRUE((*wf)->RunSeries(3, &graph).ok());
  graph.Seal();
  return graph;
}

// ---------------------------------------------------------------------
// GraphSnapshot basics.
// ---------------------------------------------------------------------

TEST(SnapshotTest, CaptureRequiresSealedGraph) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId a = w.Token("a");
  (void)a;
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  EXPECT_FALSE(snap.ok());
  g.Seal();
  snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  EXPECT_TRUE(snap->sealed());
  EXPECT_EQ(snap->num_nodes(), g.num_nodes());
}

TEST(SnapshotTest, CaptureForParentsWorksUnsealed) {
  ProvenanceGraph g;
  auto w = g.writer();
  NodeId a = w.Token("a");
  NodeId p = w.Plus({a});
  GraphSnapshot snap = GraphSnapshot::CaptureForParents(g);
  EXPECT_FALSE(snap.sealed());
  EXPECT_TRUE(snap.Contains(a));
  ASSERT_EQ(snap.ParentsOf(p).size(), 1u);
  EXPECT_EQ(snap.ParentsOf(p)[0], a);
}

TEST(SnapshotTest, VisitedBitmapPoolReusesAndClears) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  NodeId some = *g.AllNodeIds().begin();
  const VisitedSet* first = nullptr;
  {
    VisitedLease lease = snap->AcquireVisited();
    first = &*lease;
    EXPECT_FALSE(lease->Test(some));
    lease->Set(some);
    EXPECT_TRUE(lease->Test(some));
  }
  // Returned to the pool cleared; the next acquire reuses the allocation.
  VisitedLease again = snap->AcquireVisited();
  EXPECT_EQ(&*again, first);
  EXPECT_FALSE(again->Test(some));
}

// ---------------------------------------------------------------------
// Traversal engine.
// ---------------------------------------------------------------------

TEST(TraverseTest, ParallelReachMatchesSequentialTraverse) {
  ProvenanceGraph g = BuildArcticGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  // Seed with every workflow-input token: a wide frontier.
  std::vector<NodeId> seeds =
      FindNodes(*snap, ByLabel(NodeLabel::kToken), 1);
  ASSERT_FALSE(seeds.empty());
  for (TraverseDirection dir :
       {TraverseDirection::kForward, TraverseDirection::kBackward}) {
    std::vector<NodeId> sequential;
    {
      VisitedLease visited = snap->AcquireVisited();
      Traverse(*snap, seeds, dir, *visited, [&](NodeId n, NodeId) {
        sequential.push_back(n);
        return Visit::kExpand;
      });
    }
    VisitedLease visited = snap->AcquireVisited();
    std::vector<NodeId> parallel =
        ParallelReach(*snap, seeds, dir, 4, *visited);
    std::sort(sequential.begin(), sequential.end());
    std::sort(parallel.begin(), parallel.end());
    EXPECT_EQ(sequential, parallel);
    // The visited bitmap marks exactly the result.
    for (NodeId id : parallel) EXPECT_TRUE(visited->Test(id));
  }
}

TEST(TraverseTest, ParallelForCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(10007);
  ParallelFor(hits.size(), 4, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TraverseTest, SnapshotQueriesAgreeWithEachOther) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  GraphStats ss = *ComputeGraphStats(*snap);
  EXPECT_EQ(ss.nodes, g.num_alive());
  EXPECT_EQ(ss.edges, g.num_edges());
  std::vector<NodeId> tokens = FindNodes(*snap, ByLabel(NodeLabel::kToken), 1);
  // Parallel find returns the same ids in the same (scan) order.
  EXPECT_EQ(tokens, FindNodes(*snap, ByLabel(NodeLabel::kToken), 4));
  ASSERT_GE(tokens.size(), 2u);
  // The ancestors of a node are exactly the nodes with a path to it.
  std::vector<NodeId> outputs =
      FindNodes(*snap, ByRole(NodeRole::kModuleOutput));
  ASSERT_FALSE(outputs.empty());
  NodeId out = outputs.back();
  std::set<NodeId> ancestors = testing::IdSet(Ancestors(*snap, out));
  EXPECT_FALSE(ancestors.empty());
  for (NodeId t : tokens) {
    EXPECT_EQ(ancestors.count(t) > 0, *PathExists(*snap, t, out)) << t;
  }
  // The bitmap-tested dependency queries agree with the deletion set they
  // are defined by.
  std::vector<NodeId> pair = {tokens.front(), tokens.back()};
  std::vector<NodeId> deleted = *ComputeDeletionSet(*snap, pair);
  for (NodeId t : tokens) {
    EXPECT_EQ(*DependsOnSet(*snap, t, pair), testing::Has(deleted, t));
    EXPECT_EQ(*DependsOnSet(*snap, t, {pair[0]}),
              *DependsOn(*snap, t, pair[0]));
  }
}

// ---------------------------------------------------------------------
// Lazy views vs eager operators: byte-identity.
// ---------------------------------------------------------------------

TEST(ViewTest, ZoomViewMaterializesByteIdenticalToEagerZoom) {
  ProvenanceGraph original = BuildDealershipGraph();
  for (const std::set<std::string>& modules :
       {std::set<std::string>{"dealer"},
        std::set<std::string>{"dealer", "aggregate"}}) {
    // Eager: mutate a clone with the Zoomer and save it.
    ProvenanceGraph eager = CloneSealed(original);
    Zoomer zoomer(&eager);
    LIPSTICK_ASSERT_OK(zoomer.ZoomOut(modules));
    std::string eager_bytes = SaveBytes(eager);

    // Lazy: plan a view over an untouched clone and materialize.
    ProvenanceGraph base = CloneSealed(original);
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(base);
    LIPSTICK_ASSERT_OK(snap.status());
    Result<GraphView> view =
        ZoomView(*snap, {modules.begin(), modules.end()}, 4);
    LIPSTICK_ASSERT_OK(view.status());
    Result<ProvenanceGraph> materialized = view->Materialize();
    LIPSTICK_ASSERT_OK(materialized.status());
    EXPECT_EQ(SaveBytes(*materialized), eager_bytes)
        << "zoom view bytes diverge for " << modules.size() << " module(s)";
    // The base graph itself is untouched by the lazy path.
    EXPECT_EQ(SaveBytes(base), SaveBytes(original));
    // Node-count bookkeeping agrees with the eager result.
    EXPECT_EQ(view->num_visible(), eager.num_alive());
  }
}

TEST(ViewTest, ZoomViewDotMatchesEagerDot) {
  ProvenanceGraph original = BuildDealershipGraph();
  ProvenanceGraph eager = CloneSealed(original);
  Zoomer zoomer(&eager);
  LIPSTICK_ASSERT_OK(zoomer.ZoomOut({"dealer"}));
  std::ostringstream eager_dot;
  LIPSTICK_ASSERT_OK(WriteDot(testing::Snap(eager), eager_dot));

  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  Result<GraphView> view = ZoomView(*snap, {"dealer"}, 2);
  LIPSTICK_ASSERT_OK(view.status());
  std::ostringstream view_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*view, view_dot));
  EXPECT_EQ(view_dot.str(), eager_dot.str());

  // And rendering the materialized view is identical to rendering the view.
  Result<ProvenanceGraph> materialized = view->Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  std::ostringstream mat_dot;
  LIPSTICK_ASSERT_OK(WriteDot(testing::Snap(*materialized), mat_dot));
  EXPECT_EQ(view_dot.str(), mat_dot.str());
}

TEST(ViewTest, SubgraphPlanViewMatchesEagerRestriction) {
  ProvenanceGraph original = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(original);
  LIPSTICK_ASSERT_OK(snap.status());
  std::vector<NodeId> tokens = FindNodes(*snap, ByLabel(NodeLabel::kToken));
  ASSERT_FALSE(tokens.empty());
  NodeId node = tokens.front();

  std::set<NodeId> members =
      testing::IdSet(*SubgraphNodes(*snap, node, 4));
  Result<Plan> plan = ParsePlan(StrCat("subgraph ", node), {});
  LIPSTICK_ASSERT_OK(plan.status());
  Result<GraphView> view = BuildPlanView(*snap, *plan, 4);
  LIPSTICK_ASSERT_OK(view.status());
  EXPECT_EQ(view->num_visible(), members.size());
  EXPECT_EQ(VisibleIds(*view), members);

  // Eager restriction: kill every non-member on a clone and save.
  ProvenanceGraph eager = CloneSealed(original);
  for (NodeId id : eager.AllNodeIds()) {
    if (!members.count(id)) eager.SetAlive(id, false);
  }
  eager.Seal();
  Result<ProvenanceGraph> materialized = view->Materialize();
  LIPSTICK_ASSERT_OK(materialized.status());
  EXPECT_EQ(SaveBytes(*materialized), SaveBytes(eager));

  // Dot of the view == dot of the full graph restricted to the subgraph.
  DotOptions options;
  options.subset = {members.begin(), members.end()};
  std::ostringstream restricted_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*snap, restricted_dot, options));
  std::ostringstream view_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*view, view_dot));
  EXPECT_EQ(view_dot.str(), restricted_dot.str());
}

TEST(ViewTest, ZoomViewOfUnknownModuleFails) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap.status());
  EXPECT_FALSE(ZoomView(*snap, {"nonexistent_module"}, 1).ok());
}

// ---------------------------------------------------------------------
// Concurrency stress: N reader threads over one snapshot must agree with
// the single-threaded baseline. Runs under TSan in CI.
// ---------------------------------------------------------------------

TEST(SnapshotStressTest, ConcurrentMixedReadersMatchBaseline) {
  ProvenanceGraph g = BuildDealershipGraph();
  Result<GraphSnapshot> snap_or = GraphSnapshot::Capture(g);
  LIPSTICK_ASSERT_OK(snap_or.status());
  const GraphSnapshot& snap = *snap_or;

  std::vector<NodeId> tokens = FindNodes(snap, ByLabel(NodeLabel::kToken), 1);
  ASSERT_GE(tokens.size(), 2u);
  NodeId probe = tokens.front();
  NodeId other = tokens.back();

  // Single-threaded baselines.
  const std::string baseline_zoom_bytes = [&] {
    Result<GraphView> view = ZoomView(snap, {"dealer"}, 1);
    EXPECT_TRUE(view.ok());
    return SaveBytes(*view->Materialize());
  }();
  const std::set<NodeId> baseline_members =
      testing::IdSet(*SubgraphNodes(snap, probe));
  const auto baseline_depends = *DependsOn(snap, other, probe);
  const auto baseline_stats = *ComputeGraphStats(snap);

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        switch ((t + round) % 4) {
          case 0: {
            Result<GraphView> view = ZoomView(snap, {"dealer"}, 2);
            if (!view.ok() ||
                SaveBytes(*view->Materialize()) != baseline_zoom_bytes) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto members = SubgraphNodes(snap, probe);
            if (!members.ok() || testing::IdSet(*members) != baseline_members) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 2: {
            auto dep = DependsOn(snap, other, probe);
            if (!dep.ok() || *dep != baseline_depends) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 3: {
            auto stats = ComputeGraphStats(snap);
            if (!stats.ok() || stats->edges != baseline_stats.edges ||
                stats->depth != baseline_stats.depth) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lipstick
