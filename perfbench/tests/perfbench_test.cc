// Tests of the benchmark's own helpers: the tail-percentile rule, self time
// from nested spans, and the independent subgraph BFS the query workload
// checks the engine against. Run: lipstick_perfbench_test (exit 0 = pass),
// or `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "provenance/subgraph.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2));
  EXPECT(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(perfbench::Median({}), 0));
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it.
  EXPECT(Near(perfbench::Quantile(OneTo(1000), 0.99), 990));
  EXPECT(Near(perfbench::Quantile(OneTo(100), 0.9), 90));
  EXPECT(Near(perfbench::Quantile(OneTo(10), 0.75), 8));
  EXPECT(Near(perfbench::Quantile(OneTo(7), 0), 1));
  EXPECT(Near(perfbench::Quantile(OneTo(7), 1), 7));
  EXPECT(Near(perfbench::Quantile({}, 0.9), 0));
}

void TestSelfTime() {
  // top(100) -> {b(30), c(50) -> s1(20)}; s2(7) is a second root on
  // another category that sums by category.
  const std::string json =
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{}},)"
      R"({"name":"top","cat":"bench","ph":"X","pid":1,"tid":1,"ts":0,"dur":100,"args":{"span":1,"parent":0}},)"
      R"({"name":"b","cat":"bench","ph":"X","pid":1,"tid":1,"ts":5,"dur":30,"args":{"span":2,"parent":1}},)"
      R"({"name":"c","cat":"bench","ph":"X","pid":1,"tid":1,"ts":40,"dur":50,"args":{"span":3,"parent":1}},)"
      R"({"name":"s1","cat":"pig","ph":"X","pid":1,"tid":1,"ts":45,"dur":20,"args":{"span":4,"parent":3}},)"
      R"({"name":"s2","cat":"pig","ph":"X","pid":1,"tid":1,"ts":200,"dur":7,"args":{"span":5,"parent":0}}]})";
  lipstick::Result<std::vector<perfbench::SpanRecord>> spans =
      perfbench::ParseTraceSpans(json);
  EXPECT(spans.ok());
  if (!spans.ok()) return;
  EXPECT(spans->size() == 5);  // the metadata event is skipped
  auto totals = perfbench::AggregateSpans(*spans, {"pig"});
  EXPECT(Near(totals["bench/top"].total_us, 100));
  EXPECT(Near(totals["bench/top"].self_us, 20));  // 100 - 30 - 50
  EXPECT(Near(totals["bench/b"].self_us, 30));
  EXPECT(Near(totals["bench/c"].self_us, 30));  // 50 - 20
  EXPECT(Near(totals["pig"].total_us, 27));
  EXPECT(Near(totals["pig"].self_us, 27));
  EXPECT(totals["pig"].count == 2);
  EXPECT(totals.count("pig/s1") == 0);
}

void TestReferenceSubgraph() {
  // a  b     c        d
  //  \ /      \      /
  //   x ------ y    /
  //   x ------------ z          w (unrelated)
  lipstick::ProvenanceGraph graph;
  lipstick::ShardWriter w = graph.writer();
  lipstick::NodeId a = w.Token("a"), b = w.Token("b"), c = w.Token("c"),
                   d = w.Token("d");
  lipstick::NodeId x = w.Times({a, b});
  lipstick::NodeId y = w.Plus({x, c});
  lipstick::NodeId z = w.Times({x, d});
  lipstick::NodeId lone = w.Token("w");
  graph.Seal();
  lipstick::Result<lipstick::GraphSnapshot> snap =
      lipstick::GraphSnapshot::Capture(graph);
  EXPECT(snap.ok());
  if (!snap.ok()) return;

  // By hand: x + ancestors {a, b} + descendants {y, z} + their co-parents
  // {c, d} = 7.
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, x) == 7);
  // a + descendants {x, y, z} + co-parents {b, c, d} = 7.
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, a) == 7);
  // c + {y} + y's co-parent x; x's own ancestors are not members = 3.
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, c) == 3);
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, lone) == 1);
  // A dead leaf drops out of every subgraph.
  graph.SetAlive(z, false);
  graph.Seal();
  snap = lipstick::GraphSnapshot::Capture(graph);
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, x) == 5);  // x a b y c
  EXPECT(perfbench::ReferenceSubgraphSize(*snap, z) == 0);

  // The library agrees on every node.
  for (lipstick::NodeId n : {a, b, c, d, x, y, lone}) {
    lipstick::Result<std::vector<lipstick::NodeId>> nodes =
        lipstick::SubgraphNodes(*snap, n);
    EXPECT(nodes.ok() &&
           nodes->size() == perfbench::ReferenceSubgraphSize(*snap, n));
  }

  std::vector<lipstick::NodeId> up =
      perfbench::ReferenceAncestors(*snap, y, 10);
  EXPECT(up.size() == 4);  // x c a b
  EXPECT(perfbench::ReferenceAncestors(*snap, y, 1).size() == 2);  // limit+1
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestReferenceSubgraph();
  if (failures == 0) std::printf("perfbench tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
