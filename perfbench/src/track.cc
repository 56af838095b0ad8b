// track_dealership: many independent buyer runs of the Car-dealership
// workflow (Figs. 5a and 6a). Each round is one run with its own seed,
// graph, WAL directory and .pg file: create the workflow, track E
// executions with the WAL attached, seal, save, recover from the WAL and
// load the .pg back into a snapshot. The write side does almost all the
// work; traversal, plans and the service sit idle.

#include <algorithm>
#include <filesystem>

#include "common/str_util.h"
#include "harness.h"
#include "lifecycle.h"
#include "workflowgen/dealership.h"

namespace perfbench {

using lipstick::ProvenanceGraph;
using lipstick::Result;
using lipstick::Status;
using lipstick::WorkflowOutputs;
using lipstick::workflowgen::DealershipConfig;
using lipstick::workflowgen::DealershipWorkflow;

namespace {

constexpr int kCars = 2000;        // split evenly over the 4 dealerships
constexpr int kExecutions = 30;    // executions per buyer run

DealershipConfig RunConfig(uint64_t seed) {
  DealershipConfig config;
  config.num_cars = kCars;
  config.num_executions = kExecutions;
  config.seed = seed;
  config.accept_probability = 0;  // every run goes its full length
  return config;
}

/// BestBid of one execution must be the minimum of the four dealerships'
/// Bids amounts, won by the smallest DealerId among ties.
bool BestBidIsMinimum(const WorkflowOutputs& outputs) {
  bool any = false;
  double best = 0;
  int64_t winner = 0;
  for (int k = 1; k <= 4; ++k) {
    const auto& bids =
        outputs.at(lipstick::StrCat("dealer_bid_", k)).at("Bids").bag;
    for (const auto& t : bids) {
      int64_t dealer = t.tuple.at(0).int_value();
      double amount = t.tuple.at(3).AsDouble();
      if (!any || amount < best || (amount == best && dealer < winner)) {
        any = true;
        best = amount;
        winner = dealer;
      }
    }
  }
  const auto& best_bid = outputs.at("agg").at("BestBid").bag;
  if (!any) return best_bid.size() == 0;
  return best_bid.size() == 1 &&
         best_bid.at(0).tuple.at(0).int_value() == winner &&
         best_bid.at(0).tuple.at(3).AsDouble() == best;
}

/// Measurements of the rounds of one pass.
struct TrackPass {
  Samples exec_us;        // tracked executions, WAL attached
  Samples create_ms;
  Samples close_ms;
  PersistStats persist;
  uint64_t executions = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t mem_bytes = 0;
};

class TrackWorkload {
 public:
  TrackWorkload(const Options& options, Report* report)
      : options_(options), report_(report) {}

  /// One buyer run: round `round` of the run seeded `options.seed`.
  void Round(size_t round, bool traced, TrackPass* pass) {
    const uint64_t seed = MixSeed(options_.seed, round + 1);
    const std::string dir =
        lipstick::StrCat(options_.work_dir, "/track-", round);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string wal_dir = dir + "/wal";
    const std::string pg_path = dir + "/graph.pg";

    double us = 0;
    Result<std::unique_ptr<DealershipWorkflow>> wf =
        Timed("workflowgen.create", &us,
              [&] { return DealershipWorkflow::Create(RunConfig(seed)); });
    if (!report_->Op(wf.status(), "create dealership workflow")) return;
    pass->create_ms.Add(us / 1000.0);

    ProvenanceGraph graph;
    Result<std::unique_ptr<lipstick::Wal>> wal =
        AttachWal(wal_dir, &graph, &(*wf)->executor());
    if (!report_->Op(wal.status(), "open WAL")) return;

    const size_t nodes_per_exec = (*wf)->workflow().nodes().size();
    for (int e = 1; e <= kExecutions; ++e) {
      Result<WorkflowOutputs> outputs =
          Timed("workflow.execute", &us,
                [&] { return (*wf)->ExecuteOnce(e, &graph); });
      if (!report_->Op(outputs.status(), "tracked execution")) return;
      pass->exec_us.Add(us);
      report_->Check(BestBidIsMinimum(*outputs),
                     "BestBid is the minimum bid, smallest DealerId on ties");
    }
    pass->executions += kExecutions;

    pass->wal_records += (*wal)->records_appended();
    pass->wal_bytes_appended += (*wal)->bytes_appended();
    Status closed = Timed("wal.close", &us, [&] { return (*wal)->Close(); });
    if (!report_->Op(closed, "close WAL")) return;
    pass->close_ms.Add(us / 1000.0);
    {
      BenchSpan span("provenance.seal");
      graph.Seal();
    }

    report_->Check(graph.num_live_invocations() == kExecutions * nodes_per_exec,
                   "invocations == executions x workflow nodes");
    pass->nodes += graph.num_nodes();
    pass->edges += graph.num_edges();
    pass->mem_bytes += graph.ComputeMemoryStats().total();

    PersistOnce(graph, pg_path, wal_dir, traced, /*count_sizes=*/true, report_,
                &pass->persist);
    std::filesystem::remove_all(dir);
  }

  /// The same executions as round `round` with no graph, or with a graph
  /// but no WAL; returns milliseconds per execution.
  double Twin(size_t round, bool track) {
    Result<std::unique_ptr<DealershipWorkflow>> wf = DealershipWorkflow::Create(
        RunConfig(MixSeed(options_.seed, round + 1)));
    if (!report_->Op(wf.status(), "create dealership workflow")) return 0;
    ProvenanceGraph graph;
    lipstick::WallTimer timer;
    for (int e = 1; e <= kExecutions; ++e) {
      if (!report_->Op((*wf)->ExecuteOnce(e, track ? &graph : nullptr).status(),
                       "twin execution")) {
        return 0;
      }
    }
    return timer.ElapsedMillis() / kExecutions;
  }

 private:
  const Options& options_;
  Report* report_;
};

}  // namespace

void RunTrackDealership(const Options& options, Report* report,
                        MetricValues* values) {
  TrackWorkload workload(options, report);
  TrackPass passes[2];  // untraced, traced
  Samples untracked_ms, no_wal_ms;
  Protocol protocol;
  // Set-up: one warm-up buyer run, so lazy allocation and file-system
  // set-up are paid before timing.
  protocol.setup = [&](int attempt) {
    TrackPass warmup;
    workload.Round(1000000 + attempt, /*traced=*/false, &warmup);
  };
  protocol.round = [&](size_t r, bool traced) {
    workload.Round(r, traced, &passes[traced]);
  };
  // The untracked and WAL-less twins of the untraced rounds.
  protocol.before_trace = [&](size_t rounds) {
    for (size_t r = 0; r < rounds; ++r) {
      untracked_ms.Add(workload.Twin(r, false));
      no_wal_ms.Add(workload.Twin(r, true));
    }
  };
  TraceSession trace(options);
  if (!RunProtocol(options, protocol, &trace, report, values)) return;

  MetricValues& v = *values;
  const TrackPass& plain = passes[0];
  if (!options.trace) {
    double exec_s = plain.exec_us.Sum() / 1e6;
    v["ops_per_s"] = exec_s > 0 ? plain.executions / exec_s : 0;
    v["op_p50_us"] = plain.exec_us.Median();
    v["op_p90_us"] = Quantile(plain.exec_us.values, kTailQuantile);
    StorePersistMetrics(plain.persist, values);
    return;
  }

  const TrackPass& traced = passes[1];
  const double execs = static_cast<double>(traced.executions);
  const double wal_ms = plain.exec_us.Mean() / 1000.0;
  v["workflowgen.create_ms"] = traced.create_ms.Mean();
  v["workflow.execute_ms"] = traced.exec_us.Mean() / 1000.0;
  v["workflow.untracked_execute_ms"] = untracked_ms.Mean();
  v["workflow.node_self_ms"] = (trace.SelfUs("executor.node") +
                                trace.SelfUs("executor.attempt")) /
                               1000.0 / execs;
  v["pig.statement_self_ms"] = trace.SelfUs("pig") / 1000.0 / execs;
  v["pig.statements_per_exec"] = trace.Count("pig") / execs;
  v["provenance.track_overhead_pct"] =
      (no_wal_ms.Mean() / untracked_ms.Mean() - 1) * 100;
  v["wal.attach_overhead_pct"] = (wal_ms / no_wal_ms.Mean() - 1) * 100;
  v["wal.records_per_exec"] = traced.wal_records / execs;
  v["wal.bytes_per_exec"] = traced.wal_bytes_appended / execs;
  v["wal.close_ms"] = traced.close_ms.Mean();
  v["provenance.nodes_per_exec"] = traced.nodes / execs;
  v["provenance.edges_per_exec"] = traced.edges / execs;
  v["provenance.mem_bytes_per_node"] =
      static_cast<double>(traced.mem_bytes) / traced.nodes;
  StorePersistLayers(trace, traced.persist, values);
  // Executions only: the traced pass splits save and load into their
  // halves, so only the execution calls are the same work in both passes.
  v["obs.trace_overhead_pct"] =
      (traced.exec_us.Sum() / plain.exec_us.Sum() - 1) * 100;
}

}  // namespace perfbench
