// query_arctic: one Arctic-stations graph (dense topology, Fig. 7c) built
// during set-up, then one thread runs a fixed, seeded mix of read plans in
// process through ParseQuery -> ExecuteParsedQuery, with no view cache.
// Long derivation chains make snapshot/traverse/view/exec do most of the
// work, with no tracking, wire or cache in the timed path.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "common/rng.h"
#include "common/str_util.h"
#include "harness.h"
#include "lifecycle.h"
#include "provenance/exec.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "service/ops.h"
#include "workflowgen/arctic.h"

namespace perfbench {

using lipstick::GraphSnapshot;
using lipstick::NodeId;
using lipstick::ProvenanceGraph;
using lipstick::Result;
using lipstick::Status;
using lipstick::workflowgen::ArcticConfig;
using lipstick::workflowgen::ArcticTopology;
using lipstick::workflowgen::ArcticWorkflow;
using lipstick::workflowgen::Selectivity;

namespace {

constexpr int kStations = 24;
constexpr int kFanOut = 3;          // 8 layers of 3 stations
constexpr int kHistoryYears = 20;   // observations 1981-2000 per station
constexpr int kExecutions = 12;     // a year of monthly queries
// Plans per pass: 12 times the 20-plan pattern, so every class visits each
// of the 12 GlobalMin outputs equally often whatever the seed.
constexpr size_t kMixSize = 240;

enum class PlanClass {
  kSubgraph,
  kZoomOut,
  kPipeline,
  kPoint,
  kScan,
  kExplain
};
constexpr size_t kNumClasses = 6;

struct MixEntry {
  std::string text;  // the request, exactly as a client would send it
  PlanClass cls;
  NodeId subgraph_root = lipstick::kInvalidNode;  // plain subgraph plans
};

/// The graph of one set-up and everything derived from it.
struct ArcticState {
  std::string dir;
  std::unique_ptr<ArcticWorkflow> workflow;
  std::unique_ptr<ProvenanceGraph> graph;
  std::optional<GraphSnapshot> snapshot;
  std::vector<double> global_min;  // per execution, as the workflow output
  std::vector<MixEntry> mix;
};

std::string Id(NodeId id) { return std::to_string(id); }

/// The plan mix. Shares per 20 plans: 5 subgraph on GlobalMin outputs, 3
/// zoomout, 4 "zoomout | subgraph | stats" pipelines, 2 depends and 2 expr
/// point lookups, 3 find/stats scans and 1 explain. Roots and variants go
/// round-robin from a seeded start, so every seed runs the same amount of
/// work; the seed picks the starts and the point-lookup nodes.
std::vector<MixEntry> BuildMix(const GraphSnapshot& snap, uint64_t seed) {
  std::vector<NodeId> outputs;  // GlobalMin "o" nodes, one per execution
  for (const lipstick::InvocationInfo& inv : snap.invocations()) {
    if (snap.str(inv.module_name) != "arctic_out") continue;
    for (NodeId out : inv.output_nodes) {
      if (snap.Contains(out)) outputs.push_back(out);
    }
  }
  std::vector<NodeId> alive;
  snap.ForEachAliveNode([&alive](NodeId id) { alive.push_back(id); });

  lipstick::Rng rng(seed);
  static const std::vector<std::string> kZooms = {
      "zoomout station", "zoomout arctic_in", "zoomout arctic_in,station"};
  static const std::vector<std::string> kScans = {
      "stats", "find --role I", "find --label agg --role o"};
  static const std::vector<PlanClass> kPattern = {
      PlanClass::kSubgraph, PlanClass::kZoomOut,  PlanClass::kPipeline,
      PlanClass::kPoint,    PlanClass::kScan,     PlanClass::kSubgraph,
      PlanClass::kPipeline, PlanClass::kPoint,    PlanClass::kSubgraph,
      PlanClass::kZoomOut,  PlanClass::kScan,     PlanClass::kPipeline,
      PlanClass::kPoint,    PlanClass::kSubgraph, PlanClass::kExplain,
      PlanClass::kPipeline, PlanClass::kZoomOut,  PlanClass::kPoint,
      PlanClass::kScan,     PlanClass::kSubgraph};
  // Per-class round-robin cursors, started at seeded offsets.
  size_t cursor[kNumClasses];
  for (size_t& c : cursor) c = rng.Next() % 64;
  auto next = [&cursor](PlanClass c) {
    return cursor[static_cast<size_t>(c)]++;
  };
  auto output = [&outputs](size_t k) { return outputs[k % outputs.size()]; };

  std::vector<MixEntry> mix;
  for (size_t i = 0; i < kMixSize; ++i) {
    MixEntry e;
    e.cls = kPattern[i % kPattern.size()];
    const size_t k = next(e.cls);
    switch (e.cls) {
      case PlanClass::kSubgraph:
        e.subgraph_root = output(k);
        e.text = "subgraph " + Id(e.subgraph_root);
        break;
      case PlanClass::kZoomOut:
        e.text = kZooms[k % kZooms.size()];
        break;
      case PlanClass::kPipeline:
        e.text = lipstick::StrCat("zoomout station | subgraph ", Id(output(k)),
                                  " | stats");
        break;
      case PlanClass::kPoint:
        if (k % 2 == 0) {
          // Does a GlobalMin output depend on a node near it?
          NodeId target = output(k / 2);
          std::vector<NodeId> near = ReferenceAncestors(snap, target, 2000);
          e.text = lipstick::StrCat("depends ", Id(target), " ",
                                    Id(near.empty() ? target : rng.Pick(near)));
        } else {
          // The semiring expression of a node with a small derivation.
          NodeId target = rng.Pick(alive);
          for (int tries = 0;
               tries < 100 && ReferenceAncestors(snap, target, 64).size() > 64;
               ++tries) {
            target = rng.Pick(alive);
          }
          e.text = "expr " + Id(target);
        }
        break;
      case PlanClass::kScan:
        e.text = kScans[k % kScans.size()];
        break;
      case PlanClass::kExplain:
        e.text = lipstick::StrCat("explain zoomout station | subgraph ",
                                  Id(output(k)), " | stats");
        break;
    }
    mix.push_back(std::move(e));
  }
  return mix;
}

/// The lowest temperature the workflow must report for execution `e`
/// (0-based): the month's observations of every station, from the first
/// year of history through the execution's year, computed straight from
/// the synthetic generator.
double ExpectedGlobalMin(int e, uint64_t seed) {
  const int year = 2001 + e / 12;
  const int month = 1 + e % 12;
  double best = std::numeric_limits<double>::infinity();
  for (int station = 1; station <= kStations; ++station) {
    for (int y = 2001 - kHistoryYears; y <= year; ++y) {
      best = std::min(best, ArcticWorkflow::SyntheticTemperature(
                                station, y, month, seed));
    }
  }
  return best;
}

uint64_t ArcticSeed(uint64_t seed) { return MixSeed(seed, 0xa7c71c); }

/// Measurements of one pass over the mix, or of several.
struct QueryPass {
  Samples latency_us;  // ParseQuery + ExecuteParsedQuery, every query
  Samples by_class[kNumClasses];
  // Traced pass only.
  Samples parse_us, optimize_us, compose_us, execute_us, explain_us;
  uint64_t rules_fired = 0;
  uint64_t output_bytes = 0;
  Samples view_nodes;  // nodes kept by each composed view
};

class QueryWorkload {
 public:
  QueryWorkload(const Options& options, Report* report)
      : options_(options), report_(report) {}

  /// Builds the graph: create the workflow, track every execution with
  /// the WAL attached, seal, capture, derive the plan mix and run it once.
  std::unique_ptr<ArcticState> Setup(int attempt, Samples* create_ms) {
    auto state = std::make_unique<ArcticState>();
    state->dir = lipstick::StrCat(options_.work_dir, "/arctic-", attempt);
    std::filesystem::remove_all(state->dir);
    std::filesystem::create_directories(state->dir);

    ArcticConfig config;
    config.topology = ArcticTopology::kDense;
    config.num_stations = kStations;
    config.fan_out = kFanOut;
    config.selectivity = Selectivity::kMonth;
    config.history_years = kHistoryYears;
    config.seed = ArcticSeed(options_.seed);
    double us = 0;
    Result<std::unique_ptr<ArcticWorkflow>> wf =
        Timed("workflowgen.create", &us,
              [&] { return ArcticWorkflow::Create(config); });
    if (!report_->Op(wf.status(), "create arctic workflow")) return nullptr;
    create_ms->Add(us / 1000.0);
    state->workflow = std::move(*wf);

    state->graph = std::make_unique<ProvenanceGraph>();
    Result<std::unique_ptr<lipstick::Wal>> wal = AttachWal(
        state->dir + "/wal", state->graph.get(), &state->workflow->executor());
    if (!report_->Op(wal.status(), "open WAL")) return nullptr;
    for (int e = 0; e < kExecutions; ++e) {
      Result<lipstick::WorkflowOutputs> out =
          state->workflow->ExecuteOnce(state->graph.get());
      if (!report_->Op(out.status(), "tracked execution")) return nullptr;
      const lipstick::Bag& bag = out->at("out").at("GlobalMin").bag;
      state->global_min.push_back(
          bag.size() == 1 ? bag.at(0).tuple.at(0).AsDouble()
                          : std::numeric_limits<double>::quiet_NaN());
    }
    if (!report_->Op((*wal)->Close(), "close WAL")) return nullptr;
    state->graph->Seal();
    Result<GraphSnapshot> snap = GraphSnapshot::Capture(*state->graph);
    if (!report_->Op(snap.status(), "capture snapshot")) return nullptr;
    state->snapshot = *snap;
    state->mix = BuildMix(*state->snapshot, MixSeed(options_.seed, 0x9e11));
    // One untimed pass over the mix, so lazily pooled bitmaps and the
    // allocator are warm before timing.
    QueryPass warmup;
    Pass(*state, /*traced=*/false, &warmup);
    return state;
  }

  /// One round: a pass over the mix, then a save, a recovery and a load
  /// of the graph, so the persistence medians are taken across the run.
  void Round(const ArcticState& state, bool traced, QueryPass* pass,
             PersistStats* persist) {
    Pass(state, traced, pass);
    PersistOnce(*state.graph, state.dir + "/graph.pg", state.dir + "/wal",
                traced, /*count_sizes=*/persist->save_ms.size() == 0, report_,
                persist);
  }

  /// One pass over the mix. Each query is timed as ParseQuery +
  /// ExecuteParsedQuery; the traced pass times the two apart and then, off
  /// the query's clock, ParsePlan, OptimizePlan and BuildPlanView on their
  /// own for the parse, optimize and composition shares.
  void Pass(const ArcticState& state, bool traced, QueryPass* pass) {
    const GraphSnapshot& snap = *state.snapshot;
    for (const MixEntry& entry : state.mix) {
      double us = 0;
      Result<std::string> text =
          traced ? TracedQuery(snap, entry, pass, &us)
                 : Timed("query", &us, [&]() -> Result<std::string> {
                     LIPSTICK_ASSIGN_OR_RETURN(
                         lipstick::service::ParsedQuery parsed,
                         lipstick::service::ParseQuery(entry.text, {}));
                     return lipstick::service::ExecuteParsedQuery(snap, parsed,
                                                                  1);
                   });
      if (!report_->Op(text.status(), entry.text)) continue;
      pass->latency_us.Add(us);
      pass->by_class[static_cast<size_t>(entry.cls)].Add(us);
      auto [it, inserted] = first_output_.emplace(entry.text, *text);
      if (!inserted && it->second != *text) unstable_.insert(entry.text);
    }
  }

  /// Output checks, after the timed passes.
  void CheckOutputs(const ArcticState& state) {
    const uint64_t seed = ArcticSeed(options_.seed);
    for (int e = 0; e < kExecutions; ++e) {
      report_->Check(state.global_min[e] == ExpectedGlobalMin(e, seed),
                     lipstick::StrCat("GlobalMin of execution ", e,
                                      " equals the direct minimum"));
    }
    const GraphSnapshot& snap = *state.snapshot;
    std::set<std::string> checked;
    for (const MixEntry& entry : state.mix) {
      auto first = first_output_.find(entry.text);
      if (first == first_output_.end()) continue;  // the query failed
      if (!checked.insert(entry.text).second) continue;
      report_->Check(!unstable_.count(entry.text),
                     entry.text + ": same output on every pass");
      const std::string& fused = first->second;
      if (entry.cls == PlanClass::kSubgraph) {
        std::string want =
            lipstick::StrCat("subgraph of ", Id(entry.subgraph_root), ": ",
                             ReferenceSubgraphSize(snap, entry.subgraph_root),
                             " nodes\n");
        report_->Check(fused == want,
                       entry.text + ": node count equals the reference BFS");
      }
      if (entry.cls == PlanClass::kExplain) continue;
      Result<lipstick::Plan> plan = lipstick::ParsePlan(entry.text, {});
      Result<std::string> naive =
          plan.ok() ? lipstick::ExecutePlanNaive(snap, *plan, 1)
                    : Result<std::string>(plan.status());
      report_->Check(naive.ok() && *naive == fused,
                     entry.text + ": fused output equals ExecutePlanNaive");
    }
  }

 private:
  Result<std::string> TracedQuery(const GraphSnapshot& snap,
                                  const MixEntry& entry, QueryPass* pass,
                                  double* total_us) {
    double parse_us = 0, exec_us = 0, us = 0;
    Result<lipstick::service::ParsedQuery> parsed =
        Timed("service.parse_query", &parse_us,
              [&] { return lipstick::service::ParseQuery(entry.text, {}); });
    if (!parsed.ok()) return parsed.status();
    Result<std::string> text = Timed("exec.execute", &exec_us, [&] {
      return lipstick::service::ExecuteParsedQuery(snap, *parsed, 1);
    });
    if (!text.ok()) return text;
    *total_us = parse_us + exec_us;
    pass->output_bytes += text->size();
    if (parsed->is_explain) {
      pass->explain_us.Add(exec_us);
      return text;
    }
    pass->execute_us.Add(exec_us);

    // The same query's parse and optimize halves, and its view
    // composition, each on its own (outside the query's time).
    Result<lipstick::Plan> plan = Timed(
        "plan.parse", &us, [&] { return lipstick::ParsePlan(entry.text, {}); });
    if (!plan.ok()) return plan.status();
    pass->parse_us.Add(us);
    lipstick::OptimizedPlan optimized =
        Timed("optimizer.optimize", &us,
              [&] { return lipstick::OptimizePlan(*plan); });
    pass->optimize_us.Add(us);
    pass->rules_fired += optimized.rewrites.size();
    if (plan->NumViewOps() == 0) {
      pass->compose_us.Add(0);
      return text;
    }
    Result<lipstick::GraphView> view =
        Timed("view.compose", &us,
              [&] { return lipstick::BuildPlanView(snap, *plan, 1); });
    if (!view.ok()) return view.status();
    pass->compose_us.Add(us);
    pass->view_nodes.Add(view->num_visible());
    return text;
  }

  const Options& options_;
  Report* report_;
  std::map<std::string, std::string> first_output_;
  std::set<std::string> unstable_;
};

}  // namespace

void RunQueryArctic(const Options& options, Report* report,
                    MetricValues* values) {
  QueryWorkload workload(options, report);
  Samples create_ms;
  std::unique_ptr<ArcticState> state;
  QueryPass passes[2];  // untraced, traced
  PersistStats persist[2];
  Protocol protocol;
  protocol.setup = [&](int attempt) {
    state.reset();
    state = workload.Setup(attempt, &create_ms);
  };
  protocol.round = [&](size_t, bool traced) {
    workload.Round(*state, traced, &passes[traced], &persist[traced]);
  };
  protocol.check = [&] { workload.CheckOutputs(*state); };
  TraceSession trace(options);
  if (!RunProtocol(options, protocol, &trace, report, values)) return;

  MetricValues& v = *values;
  const QueryPass& plain = passes[0];
  if (!options.trace) {
    v["ops_per_s"] = plain.latency_us.size() / (plain.latency_us.Sum() / 1e6);
    v["op_p50_us"] = plain.latency_us.Median();
    v["op_p90_us"] = Quantile(plain.latency_us.values, kTailQuantile);
    StorePersistMetrics(persist[0], values);
    return;
  }

  const QueryPass& traced = passes[1];
  const double queries = static_cast<double>(traced.latency_us.size());
  auto by_class = [&traced](PlanClass c) {
    return traced.by_class[static_cast<size_t>(c)].Mean();
  };
  v["workflowgen.create_ms"] = create_ms.Mean();
  StorePersistLayers(trace, persist[1], values);
  v["plan.parse_us"] = traced.parse_us.Mean();
  v["optimizer.optimize_us"] = traced.optimize_us.Mean();
  v["optimizer.rules_fired"] = traced.rules_fired / queries;
  v["view.compose_us"] = traced.compose_us.Mean();
  v["exec.render_us"] = traced.execute_us.Mean() - traced.compose_us.Mean();
  v["exec.subgraph_us"] = by_class(PlanClass::kSubgraph);
  v["exec.zoomout_us"] = by_class(PlanClass::kZoomOut);
  v["exec.pipeline_us"] = by_class(PlanClass::kPipeline);
  v["exec.point_us"] = by_class(PlanClass::kPoint);
  v["exec.scan_us"] = by_class(PlanClass::kScan);
  v["analysis.explain_us"] = traced.explain_us.Mean();
  v["view.visible_nodes_per_query"] = traced.view_nodes.Mean();
  v["exec.output_bytes_per_query"] = traced.output_bytes / queries;
  v["obs.trace_overhead_pct"] =
      (traced.latency_us.Sum() / plain.latency_us.Sum() - 1) * 100;
}

}  // namespace perfbench
