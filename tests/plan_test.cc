// Plan algebra tests: parser + canonicalization, optimizer rewrites, the
// plan-equivalence suite (the fused executor must render byte-identically
// to materializing a standalone graph between every stage, including dot
// and provio exports), and the composed-view prefix cache.

#include <gtest/gtest.h>

#include <sstream>

#include "common/str_util.h"
#include "provenance/dot.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/provio.h"
#include "provenance/query.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"
#include "test_util.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

// ---------------------------------------------------------------------
// Parser + canonicalization
// ---------------------------------------------------------------------

Plan MustParse(const std::string& op,
               const std::vector<std::string>& args = {}) {
  Result<Plan> plan = ParsePlan(op, args);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : Plan{};
}

std::string ParseError(const std::string& op,
                       const std::vector<std::string>& args = {}) {
  Result<Plan> plan = ParsePlan(op, args);
  EXPECT_FALSE(plan.ok()) << "parsed: " << plan->Canonical();
  return plan.ok() ? "" : std::string(plan.status().message());
}

TEST(PlanParseTest, SingleOpsCanonicalize) {
  EXPECT_EQ(MustParse("stats").Canonical(), "stats");
  EXPECT_EQ(MustParse("zoomout", {"b", "a"}).Canonical(), "zoomout(a,b)");
  EXPECT_EQ(MustParse("subgraph", {"42"}).Canonical(), "subgraph(42)");
  EXPECT_EQ(MustParse("expr", {"7"}).Canonical(), "expr(7)");
  EXPECT_EQ(MustParse("depends", {"7", "9"}).Canonical(), "depends(7,9)");
}

TEST(PlanParseTest, EquivalentRequestsShareOneCanonicalString) {
  // Module order and comma-vs-whitespace spelling don't matter.
  EXPECT_EQ(MustParse("zoomout", {"b", "a"}).Canonical(),
            MustParse("zoomout", {"a,b"}).Canonical());
  // Conjunction order in find/restrict doesn't matter.
  EXPECT_EQ(
      MustParse("find", {"--payload", "x", "--label", "token"}).Canonical(),
      MustParse("find", {"--label", "token", "--payload", "x"}).Canonical());
}

TEST(PlanParseTest, FindTrailingOddFlagIgnored) {
  // The legacy parser consumed flags in pairs and silently dropped a
  // trailing odd flag; the plan parser reproduces that.
  EXPECT_EQ(MustParse("find", {"--label", "token", "--payload"}).Canonical(),
            "find(label=token)");
}

TEST(PlanParseTest, PipelineSplitsOnPipes) {
  Plan plan = MustParse("zoomout m1,m2 | subgraph 42 | stats");
  ASSERT_EQ(plan.ops.size(), 3u);
  EXPECT_EQ(plan.ops[0].kind, PlanOpKind::kZoomOut);
  EXPECT_EQ(plan.ops[1].kind, PlanOpKind::kSubgraph);
  EXPECT_EQ(plan.ops[2].kind, PlanOpKind::kStats);
  EXPECT_EQ(plan.Canonical(), "zoomout(m1,m2)|subgraph(42)|stats");
  EXPECT_EQ(plan.NumViewOps(), 2u);
  EXPECT_TRUE(plan.HasTerminal());
  // Glued pipes split the same way, and args tokens join the op string.
  EXPECT_EQ(MustParse("zoomout a|stats").Canonical(),
            MustParse("zoomout", {"a", "|", "stats"}).Canonical());
}

TEST(PlanParseTest, SubgraphDirectionAndDeleteStage) {
  EXPECT_EQ(MustParse("subgraph", {"9,7", "up"}).Canonical(),
            "subgraph(7,9;up)");
  // delete is only a pipeline view stage; bare `delete` stays the CLI's
  // mutating subcommand.
  EXPECT_EQ(MustParse("delete 42 | stats").Canonical(), "delete(42)|stats");
  EXPECT_EQ(ParseError("delete", {"42"}),
            "unknown query operation 'delete'");
}

TEST(PlanParseTest, ErrorsMatchLegacyStrings) {
  EXPECT_EQ(ParseError("badop"), "unknown query operation 'badop'");
  EXPECT_EQ(ParseError("expr", {"notanid"}), "bad node id 'notanid'");
  EXPECT_EQ(ParseError("zoomout"), "zoomout needs at least one module");
  EXPECT_EQ(ParseError("subgraph", {"1", "2"}), "subgraph needs one node id");
  EXPECT_EQ(ParseError("find", {"--label", "nope"}), "unknown label 'nope'");
  EXPECT_EQ(ParseError("find", {"--role", "state"}), "unknown role 'state'");
}

TEST(PlanParseTest, PipelineShapeErrors) {
  EXPECT_EQ(ParseError("zoomout a | | stats"), "empty pipeline stage");
  EXPECT_EQ(ParseError("stats | zoomout a"),
            "terminal operation 'stats' must be last in pipeline");
  EXPECT_EQ(ParseError(""), "unknown query operation ''");
}

// ---------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------

bool HasRewrite(const OptimizedPlan& opt, const std::string& rule) {
  for (const PlanRewrite& rw : opt.rewrites) {
    if (rw.rule == rule) return true;
  }
  return false;
}

TEST(OptimizerTest, EmptyRestrictDroppedUnlessFinal) {
  OptimizedPlan opt = OptimizePlan(MustParse("restrict | stats"));
  EXPECT_EQ(opt.plan.Canonical(), "stats");
  EXPECT_TRUE(HasRewrite(opt, "noop_elimination"));
  // As the final op it renders the "restricted to N nodes" summary, so it
  // must survive.
  OptimizedPlan last = OptimizePlan(MustParse("restrict"));
  EXPECT_EQ(last.plan.Canonical(), "restrict()");
}

TEST(OptimizerTest, AdjacentRestrictsFuse) {
  OptimizedPlan opt = OptimizePlan(
      MustParse("restrict --label token | restrict --payload x | stats"));
  EXPECT_EQ(opt.plan.Canonical(), "restrict(label=token,payload=x)|stats");
  EXPECT_TRUE(HasRewrite(opt, "restrict_fusion"));
}

TEST(OptimizerTest, FusionPushdownAndPrefixesReported) {
  OptimizedPlan opt =
      OptimizePlan(MustParse("zoomout a | subgraph 42 | find --label token"));
  EXPECT_TRUE(HasRewrite(opt, "mask_fusion"));
  EXPECT_TRUE(HasRewrite(opt, "predicate_pushdown"));
  EXPECT_TRUE(HasRewrite(opt, "cache_split"));
  ASSERT_EQ(opt.view_prefixes.size(), 2u);
  EXPECT_EQ(opt.view_prefixes[0], "zoomout(a)");
  EXPECT_EQ(opt.view_prefixes[1], "zoomout(a)|subgraph(42)");
}

TEST(OptimizerTest, TerminalOnlyPlanHasNoPrefixes) {
  OptimizedPlan opt = OptimizePlan(MustParse("stats"));
  EXPECT_TRUE(opt.view_prefixes.empty());
  EXPECT_TRUE(opt.rewrites.empty());
}

// ---------------------------------------------------------------------
// Plan equivalence: fused executor vs materialize-between-stages
// ---------------------------------------------------------------------

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workflowgen::DealershipConfig cfg;
    cfg.num_cars = 240;
    cfg.num_executions = 3;
    cfg.seed = 11;
    cfg.accept_probability = 0;
    auto wf = workflowgen::DealershipWorkflow::Create(cfg);
    ASSERT_TRUE(wf.ok()) << wf.status().ToString();
    graph_ = new ProvenanceGraph();
    ASSERT_TRUE((*wf)->Run(graph_).ok());
    graph_->Seal();
    auto snap = GraphSnapshot::Capture(*graph_);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    snap_ = new GraphSnapshot(std::move(*snap));
    auto tokens = FindNodes(*snap_, ByLabel(NodeLabel::kToken));
    ASSERT_FALSE(tokens.empty());
    token_ = tokens.front();
    auto outs = FindNodes(*snap_, And(ByRole(NodeRole::kModuleOutput),
                                      ByModule(*snap_, "aggregate")));
    ASSERT_FALSE(outs.empty());
    agg_out_ = outs.front();
  }

  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static std::string Fused(const std::string& query, int threads = 1) {
    Result<Plan> plan = ParsePlan(query, {});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    ExecOptions opts;
    opts.threads = threads;
    Result<std::string> out = ExecutePlan(*snap_, OptimizePlan(*plan), opts);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : "";
  }

  static std::string Naive(const std::string& query, int threads = 1) {
    Result<Plan> plan = ParsePlan(query, {});
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Result<std::string> out = ExecutePlanNaive(*snap_, *plan, threads);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : "";
  }

  static ProvenanceGraph* graph_;
  static GraphSnapshot* snap_;
  static NodeId token_;
  static NodeId agg_out_;
};

ProvenanceGraph* PlanEquivalenceTest::graph_ = nullptr;
GraphSnapshot* PlanEquivalenceTest::snap_ = nullptr;
NodeId PlanEquivalenceTest::token_ = kInvalidNode;
NodeId PlanEquivalenceTest::agg_out_ = kInvalidNode;

TEST_F(PlanEquivalenceTest, PipelineMatrixRendersIdentically) {
  const std::vector<std::string> queries = {
      "zoomout dealer | stats",
      "zoomout dealer | find --label token",
      "zoomout dealer,aggregate | stats",
      StrCat("zoomout dealer | subgraph ", agg_out_, " | stats"),
      StrCat("subgraph ", agg_out_, " | find --label token"),
      StrCat("subgraph ", token_, " down | stats"),
      StrCat("subgraph ", agg_out_, " up | stats"),
      "restrict --label token | stats",
      "zoomout dealer | restrict --label token | find --payload Honda",
      StrCat("delete ", token_, " | stats"),
      StrCat("delete ", token_, " | find --label token"),
      StrCat("zoomout dealer | expr ", agg_out_),
      StrCat("zoomout dealer | depends ", agg_out_, " ", token_),
      StrCat("depends ", agg_out_, " ", agg_out_),
  };
  for (const std::string& q : queries) {
    EXPECT_EQ(Fused(q), Naive(q)) << "query: " << q;
    EXPECT_FALSE(Fused(q).empty()) << "query: " << q;
  }
}

TEST_F(PlanEquivalenceTest, ViewFinalPipelinesRenderSummaries) {
  // A chain ending in a view op renders that op's legacy summary line.
  const std::vector<std::string> queries = {
      "zoomout dealer",
      StrCat("zoomout dealer | subgraph ", agg_out_),
      "zoomout dealer | restrict --label token",
      StrCat("subgraph ", agg_out_, " | delete ", token_),
  };
  for (const std::string& q : queries) {
    std::string fused = Fused(q);
    EXPECT_EQ(fused, Naive(q)) << "query: " << q;
    EXPECT_NE(fused.find("nodes"), std::string::npos) << fused;
  }
}

TEST_F(PlanEquivalenceTest, ThreadCountDoesNotChangeOutput) {
  const std::string q =
      StrCat("zoomout dealer | subgraph ", agg_out_, " | find --label token");
  EXPECT_EQ(Fused(q, 1), Fused(q, 4));
  EXPECT_EQ(Fused(q, 4), Naive(q, 4));
}

TEST_F(PlanEquivalenceTest, SingleOpsMatchLegacyRenderers) {
  // Plans without view ops render straight off the snapshot; plans with a
  // single view op go through the composed view. Both must agree with the
  // naive executor (which uses the legacy renderers verbatim).
  const std::vector<std::string> queries = {
      "stats",
      "find --label token",
      StrCat("expr ", agg_out_),
      StrCat("depends ", agg_out_, " ", token_),
      StrCat("subgraph ", agg_out_),
      "zoomout dealer",
  };
  for (const std::string& q : queries) {
    EXPECT_EQ(Fused(q), Naive(q)) << "query: " << q;
  }
}

TEST_F(PlanEquivalenceTest, ErrorsPropagateThroughBothExecutors) {
  Result<Plan> plan = ParsePlan("zoomout nosuchmodule | stats", {});
  ASSERT_TRUE(plan.ok());
  Result<std::string> fused = ExecutePlan(*snap_, OptimizePlan(*plan));
  Result<std::string> naive = ExecutePlanNaive(*snap_, *plan);
  ASSERT_FALSE(fused.ok());
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(fused.status().code(), naive.status().code());
  EXPECT_EQ(std::string(fused.status().message()),
            std::string(naive.status().message()));
}

TEST_F(PlanEquivalenceTest, UnknownNodeIdsAreNotFoundInBothExecutors) {
  // Ids never created in the graph: one with no valid shard field, and one
  // far past the end of shard 0 (beyond any synthetic zoom id too).
  const NodeId missing = MakeNodeId(0, graph_->ShardSize(0) + 100000);
  for (const std::string& q :
       {std::string("subgraph 999999"), std::string("expr 999999"),
        StrCat("depends ", agg_out_, " 999999"),
        StrCat("depends 999999 ", agg_out_),
        StrCat("subgraph ", agg_out_, " | delete ", missing),
        StrCat("delete ", missing, " | stats"),
        StrCat("subgraph ", agg_out_, " | expr ", missing),
        StrCat("zoomout dealer | subgraph ", token_, ",", missing)}) {
    Result<Plan> plan = ParsePlan(q, {});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Result<std::string> fused = ExecutePlan(*snap_, OptimizePlan(*plan));
    Result<std::string> naive = ExecutePlanNaive(*snap_, *plan);
    ASSERT_FALSE(fused.ok()) << q << " -> " << *fused;
    ASSERT_FALSE(naive.ok()) << q << " -> " << *naive;
    EXPECT_EQ(fused.status().code(), StatusCode::kNotFound) << q;
    EXPECT_EQ(fused.status().ToString(), naive.status().ToString()) << q;
    EXPECT_NE(fused.status().message().find("is not in the graph"),
              std::string::npos)
        << fused.status().ToString();
    if (!plan->HasTerminal()) {
      EXPECT_EQ(BuildPlanView(*snap_, *plan).status().code(),
                StatusCode::kNotFound)
          << q;
    }
  }
}

TEST_F(PlanEquivalenceTest, HiddenDeadAndSyntheticIdsKeepTheirAnswers) {
  // A node hidden by an earlier stage is known, just not visible.
  EXPECT_EQ(Fused(StrCat("delete ", token_, " | expr ", token_)), "0\n");
  EXPECT_EQ(Fused(StrCat("delete ", token_, " | depends ", agg_out_, " ",
                         token_)),
            "no\n");
  // Naive materializes the first deletion as dead nodes, fused hides them:
  // both answer the second deletion the same way.
  const std::string twice = StrCat("delete ", token_, " | delete ", token_);
  EXPECT_EQ(Fused(twice), Naive(twice));
  // The first synthetic zoom node continues shard 0's index space.
  const NodeId zoomed = MakeNodeId(0, graph_->ShardSize(0));
  const std::string q = StrCat("zoomout dealer | expr ", zoomed);
  EXPECT_EQ(Fused(q), Naive(q));
  EXPECT_EQ(Fused(q).rfind("M<dealer>", 0), 0u) << Fused(q);
}

TEST_F(PlanEquivalenceTest, DotAndProvioExportsMatchNaiveMaterialization) {
  Result<Plan> plan = ParsePlan(
      StrCat("zoomout dealer | subgraph ", agg_out_), {});
  ASSERT_TRUE(plan.ok());

  // Fused: one composed view, rendered / materialized once.
  Result<GraphView> view = BuildPlanView(*snap_, *plan);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Naive: materialize a standalone graph after every stage.
  Result<ProvenanceGraph> stage1 = [&]() -> Result<ProvenanceGraph> {
    Plan first;
    first.ops.push_back(plan->ops[0]);
    LIPSTICK_ASSIGN_OR_RETURN(GraphView v, BuildPlanView(*snap_, first));
    return v.Materialize();
  }();
  ASSERT_TRUE(stage1.ok()) << stage1.status().ToString();
  stage1->Seal();
  Result<GraphSnapshot> snap1 = GraphSnapshot::Capture(*stage1);
  ASSERT_TRUE(snap1.ok());
  Result<ProvenanceGraph> naive_final = [&]() -> Result<ProvenanceGraph> {
    Plan second;
    second.ops.push_back(plan->ops[1]);
    LIPSTICK_ASSIGN_OR_RETURN(GraphView v, BuildPlanView(*snap1, second));
    return v.Materialize();
  }();
  ASSERT_TRUE(naive_final.ok()) << naive_final.status().ToString();
  naive_final->Seal();

  // Dot: rendering the composed view directly == rendering the
  // stage-by-stage materialized graph.
  std::ostringstream fused_dot, naive_dot;
  LIPSTICK_ASSERT_OK(WriteDot(*view, fused_dot));
  LIPSTICK_ASSERT_OK(WriteDot(testing::Snap(*naive_final), naive_dot));
  EXPECT_EQ(fused_dot.str(), naive_dot.str());

  // Provio: materializing the composed view == the naive chain.
  Result<ProvenanceGraph> fused_mat = view->Materialize();
  ASSERT_TRUE(fused_mat.ok());
  fused_mat->Seal();
  std::ostringstream fused_pg, naive_pg;
  LIPSTICK_ASSERT_OK(SaveGraph(*fused_mat, fused_pg));
  LIPSTICK_ASSERT_OK(SaveGraph(*naive_final, naive_pg));
  EXPECT_EQ(fused_pg.str(), naive_pg.str());
}

// ---------------------------------------------------------------------
// PlanViewCache: composed-view prefix reuse
// ---------------------------------------------------------------------

TEST_F(PlanEquivalenceTest, CachedExecutionMatchesUncached) {
  PlanViewCache cache(8);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";

  const std::string q1 = "zoomout dealer | stats";
  const std::string q2 =
      StrCat("zoomout dealer | subgraph ", agg_out_, " | stats");

  Result<Plan> p1 = ParsePlan(q1, {});
  Result<Plan> p2 = ParsePlan(q2, {});
  ASSERT_TRUE(p1.ok() && p2.ok());

  // Cold: miss, publishes the "zoomout(dealer)" prefix.
  Result<std::string> r1 = ExecutePlan(*snap_, OptimizePlan(*p1), opts);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GE(cache.entries(), 1u);

  // q2 shares the zoomout prefix: hit, and output still byte-identical to
  // the uncached run.
  Result<std::string> r2 = ExecutePlan(*snap_, OptimizePlan(*p2), opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(*r2, Fused(q2));

  // Re-running q2 hits its own longest prefix.
  Result<std::string> r3 = ExecutePlan(*snap_, OptimizePlan(*p2), opts);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(*r3, *r2);

  // Re-running q1 also hits; outputs stay stable.
  Result<std::string> r4 = ExecutePlan(*snap_, OptimizePlan(*p1), opts);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(*r4, *r1);
}

TEST_F(PlanEquivalenceTest, CacheCapacityZeroDisables) {
  PlanViewCache cache(0);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";
  Result<Plan> plan = ParsePlan("zoomout dealer | stats", {});
  ASSERT_TRUE(plan.ok());
  for (int i = 0; i < 2; ++i) {
    Result<std::string> out = ExecutePlan(*snap_, OptimizePlan(*plan), opts);
    ASSERT_TRUE(out.ok());
  }
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(PlanEquivalenceTest, CacheEvictsLeastRecentlyUsed) {
  PlanViewCache cache(1);
  ExecOptions opts;
  opts.cache = &cache;
  opts.scope = "test";
  Result<Plan> pa = ParsePlan("zoomout dealer | stats", {});
  Result<Plan> pb = ParsePlan("zoomout aggregate | stats", {});
  ASSERT_TRUE(pa.ok() && pb.ok());
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pa), opts).ok());
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pb), opts).ok());
  EXPECT_EQ(cache.entries(), 1u);
  // pa's prefix was evicted by pb's: running pa again misses.
  uint64_t misses_before = cache.misses();
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*pa), opts).ok());
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST_F(PlanEquivalenceTest, CacheScopesAreIsolated) {
  PlanViewCache cache(8);
  Result<Plan> plan = ParsePlan("zoomout dealer | stats", {});
  ASSERT_TRUE(plan.ok());
  ExecOptions a;
  a.cache = &cache;
  a.scope = "graph-a";
  ExecOptions b;
  b.cache = &cache;
  b.scope = "graph-b";
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*plan), a).ok());
  // Same prefix under a different scope must not hit.
  ASSERT_TRUE(ExecutePlan(*snap_, OptimizePlan(*plan), b).ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

}  // namespace
}  // namespace lipstick
