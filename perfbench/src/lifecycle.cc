#include "lifecycle.h"

#include <sstream>

#include "analysis/diagnostics.h"
#include "analysis/graph_validator.h"
#include "provenance/provio.h"
#include "provenance/recovery.h"

namespace perfbench {

using lipstick::ProvenanceGraph;
using lipstick::Result;
using lipstick::Status;

Result<std::unique_ptr<lipstick::Wal>> AttachWal(
    const std::string& dir, ProvenanceGraph* graph,
    lipstick::WorkflowExecutor* executor) {
  lipstick::WalOptions wal_options;
  wal_options.fsync = lipstick::FsyncPolicy::kNever;
  LIPSTICK_ASSIGN_OR_RETURN(std::unique_ptr<lipstick::Wal> wal,
                            lipstick::Wal::Open(dir, wal_options));
  LIPSTICK_RETURN_IF_ERROR(wal->Attach(graph, executor->executions_run()));
  lipstick::ExecutionOptions exec_options = executor->default_options();
  exec_options.durability = wal.get();
  executor->set_default_options(exec_options);
  return wal;
}

namespace {

Result<std::string> Encode(const ProvenanceGraph& graph) {
  std::ostringstream out;
  LIPSTICK_RETURN_IF_ERROR(lipstick::SaveGraph(graph, out));
  return out.str();
}

}  // namespace

void PersistOnce(const ProvenanceGraph& live, const std::string& pg_path,
                 const std::string& wal_dir, bool traced, bool count_sizes,
                 Report* report, PersistStats* stats) {
  double ms = 0;
  if (!report->Op(SaveTimed(live, pg_path, traced, &ms), "save graph")) {
    return;
  }
  stats->save_ms.Add(ms);

  lipstick::RecoveryReport recovery;
  lipstick::WallTimer timer;
  Result<ProvenanceGraph> recovered = [&] {
    BenchSpan span("recovery.recover");
    return lipstick::RecoverGraph(wal_dir, &recovery);
  }();
  ms = timer.ElapsedMillis();
  if (!report->Op(recovered.status(), "recover graph")) return;
  stats->recover_ms.Add(ms);
  stats->records_applied += recovery.records_applied;
  stats->segments_scanned += recovery.segments_scanned;

  Result<std::unique_ptr<LoadedGraph>> loaded =
      LoadTimed(pg_path, traced, &ms);
  if (!report->Op(loaded.status(), "load graph")) return;
  stats->load_ms.Add(ms);

  if (count_sizes) {
    stats->pg_bytes += FileBytes(pg_path);
    stats->wal_bytes += DirBytes(wal_dir);
    stats->nodes += live.num_nodes();
  }

  // Output checks, outside every timing above.
  Result<std::string> file = ReadFile(pg_path);
  if (!report->Op(file.status(), "read saved graph")) return;
  recovered->Seal();
  Result<std::string> resaved = Encode(*recovered);
  report->Check(resaved.ok() && *resaved == *file,
                "graph recovered from the WAL re-saves byte-identical to "
                "the live graph");
  Result<std::string> round_trip = Encode((*loaded)->graph);
  report->Check(round_trip.ok() && *round_trip == *file,
                "SaveGraph(LoadGraph(x)) == x");
  lipstick::analysis::DiagnosticSink sink;
  lipstick::analysis::ValidateGraph(*(*loaded)->snapshot, &sink);
  report->Check(!sink.HasErrors(), "GraphValidator reports no error");
  if (sink.HasErrors()) {
    std::fprintf(stderr, "%s", sink.RenderText().c_str());
  }
}

void StorePersistMetrics(const PersistStats& stats, MetricValues* values) {
  MetricValues& v = *values;
  v["save_ms"] = Quantile(stats.save_ms.values, kPersistQuantile);
  v["load_ms"] = Quantile(stats.load_ms.values, kPersistQuantile);
  v["recover_ms"] = Quantile(stats.recover_ms.values, kPersistQuantile);
  double nodes = static_cast<double>(stats.nodes);
  v["pg_bytes_per_node"] = nodes > 0 ? stats.pg_bytes / nodes : 0;
  v["wal_bytes_per_node"] = nodes > 0 ? stats.wal_bytes / nodes : 0;
}

void StorePersistLayers(const TraceSession& trace, const PersistStats& stats,
                        MetricValues* values) {
  MetricValues& v = *values;
  auto mean_ms = [&trace](const std::string& key) {
    uint64_t n = trace.Count(key);
    return n == 0 ? 0 : trace.TotalUs(key) / 1000.0 / static_cast<double>(n);
  };
  v["provenance.seal_ms"] = mean_ms("provenance/seal");
  v["provio.encode_ms"] = mean_ms("bench/provio.encode");
  v["provio.write_ms"] = mean_ms("bench/provio.write");
  v["provio.read_ms"] = mean_ms("bench/provio.read");
  v["provio.decode_ms"] = mean_ms("bench/provio.decode");
  v["snapshot.capture_us"] = mean_ms("bench/snapshot.capture") * 1000.0;
  double recoveries = static_cast<double>(stats.recover_ms.size());
  if (recoveries > 0) {
    v["recovery.records_applied"] = stats.records_applied / recoveries;
    v["recovery.segments_scanned"] = stats.segments_scanned / recoveries;
  }
}

}  // namespace perfbench
