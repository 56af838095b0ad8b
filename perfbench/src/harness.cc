#include "harness.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "provenance/provio.h"

namespace perfbench {

using lipstick::Result;
using lipstick::Status;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"op_p90_us", "us"},
      {"save_ms", "ms"},
      {"load_ms", "ms"},
      {"recover_ms", "ms"},
      {"pg_bytes_per_node", "B"},
      {"wal_bytes_per_node", "B"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"workflowgen.create_ms", "ms"},
      {"workflow.execute_ms", "ms"},
      {"workflow.untracked_execute_ms", "ms"},
      {"workflow.node_self_ms", "ms"},
      {"pig.statement_self_ms", "ms"},
      {"pig.statements_per_exec", "count"},
      {"provenance.track_overhead_pct", "%"},
      {"wal.attach_overhead_pct", "%"},
      {"wal.records_per_exec", "count"},
      {"wal.bytes_per_exec", "B"},
      {"wal.close_ms", "ms"},
      {"provenance.nodes_per_exec", "count"},
      {"provenance.edges_per_exec", "count"},
      {"provenance.mem_bytes_per_node", "B"},
      {"provenance.seal_ms", "ms"},
      {"provio.encode_ms", "ms"},
      {"provio.write_ms", "ms"},
      {"provio.read_ms", "ms"},
      {"provio.decode_ms", "ms"},
      {"snapshot.capture_us", "us"},
      {"recovery.records_applied", "count"},
      {"recovery.segments_scanned", "count"},
      {"plan.parse_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"optimizer.rules_fired", "count"},
      {"view.compose_us", "us"},
      {"exec.render_us", "us"},
      {"exec.subgraph_us", "us"},
      {"exec.zoomout_us", "us"},
      {"exec.pipeline_us", "us"},
      {"exec.point_us", "us"},
      {"exec.scan_us", "us"},
      {"view.visible_nodes_per_query", "count"},
      {"exec.output_bytes_per_query", "B"},
      {"analysis.explain_us", "us"},
      {"service.hit_us", "us"},
      {"service.miss_us", "us"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.plan_cache_hits", "count"},
      {"service.plan_cache_misses", "count"},
      {"protocol.request_bytes", "B"},
      {"protocol.response_bytes", "B"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::Op(const Status& status, std::string_view what) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  std::fprintf(stderr, "operation failed: %.*s: %s\n",
               static_cast<int>(what.size()), what.data(),
               status.ToString().c_str());
  return false;
}

bool Report::Check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  std::fprintf(stderr, "output check failed: %.*s\n",
               static_cast<int>(what.size()), what.data());
  return false;
}

std::string Report::Table() const {
  std::string out;
  for (const Entry& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  attempted %" PRIu64 ", failed %" PRIu64 ", correct %s\n",
                attempted_, failed_, correct() ? "yes" : "no");
  return out + tail;
}

std::string Report::Json() const {
  using lipstick::obs::JsonEscape;
  std::string out = lipstick::StrCat(
      "{\"correct\": ", correct() ? "true" : "false",
      ", \"attempted\": ", attempted_, ", \"failed\": ", failed_,
      ", \"metrics\": {");
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out += lipstick::StrCat(i == 0 ? "" : ", ", "\"",
                            JsonEscape(metrics_[i].name),
                            "\": {\"value\": ", value, ", \"unit\": \"",
                            JsonEscape(metrics_[i].unit), "\"}");
  }
  return out + "}}";
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values.empty() ? 0 : Sum() / static_cast<double>(values.size());
}

void TraceSession::Arm() {
  lipstick::obs::MetricsRegistry::Global().Enable();
  lipstick::obs::MetricsRegistry::Global().ResetValues();
  lipstick::obs::Tracer::Global().Start();
}

Status TraceSession::Finish() {
  lipstick::obs::Tracer& tracer = lipstick::obs::Tracer::Global();
  tracer.Stop();
  std::string json = tracer.ExportJson();
  if (!options_.trace_path.empty()) {
    std::ofstream out(options_.trace_path, std::ios::binary);
    out << json;
    if (!out) {
      return Status::IOError(
          lipstick::StrCat("cannot write '", options_.trace_path, "'"));
    }
  }
  Result<std::vector<SpanRecord>> spans = ParseTraceSpans(json);
  if (!spans.ok()) return spans.status();
  totals_ =
      AggregateSpans(*spans, {"executor.node", "executor.attempt", "pig"});
  return Status::OK();
}

double TraceSession::TotalUs(const std::string& key) const {
  auto it = totals_.find(key);
  return it == totals_.end() ? 0 : it->second.total_us;
}

double TraceSession::SelfUs(const std::string& key) const {
  auto it = totals_.find(key);
  return it == totals_.end() ? 0 : it->second.self_us;
}

uint64_t TraceSession::Count(const std::string& key) const {
  auto it = totals_.find(key);
  return it == totals_.end() ? 0 : it->second.count;
}

bool RunProtocol(const Options& options, const Protocol& protocol,
                 TraceSession* trace, Report* report, MetricValues* values) {
  constexpr int kSetupRepeats = 5;
  constexpr double kUntracedShare = 0.3;  // of a traced run's --seconds

  Samples setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    lipstick::WallTimer timer;
    protocol.setup(i);
    setup_s.Add(timer.ElapsedSeconds());
    if (!report->correct()) return false;
  }
  (*values)["setup_s"] = setup_s.Median();

  // Rounds 0, 1, 2, ... until `seconds` have passed, at least one.
  auto rounds_for = [&protocol](double seconds, bool traced) {
    lipstick::WallTimer timer;
    size_t n = 0;
    do {
      protocol.round(n++, traced);
    } while (timer.ElapsedSeconds() < seconds);
    return n;
  };
  if (!options.trace) {
    rounds_for(options.seconds, false);
    (*values)["peak_rss_mb"] = PeakRssMb();
  } else {
    size_t rounds = rounds_for(options.seconds * kUntracedShare, false);
    if (protocol.before_trace) protocol.before_trace(rounds);
    trace->Arm();
    for (size_t r = 0; r < rounds; ++r) protocol.round(r, true);
    report->Op(trace->Finish(), "write trace");
  }
  if (protocol.check) protocol.check();
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path().string());
  }
  return total;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError(lipstick::StrCat("cannot open '", path, "'"));
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status SaveTimed(const lipstick::ProvenanceGraph& graph,
                 const std::string& path, bool split, double* ms) {
  lipstick::WallTimer timer;
  if (!split) {
    Status st = lipstick::SaveGraphToFile(graph, path);
    *ms = timer.ElapsedMillis();
    return st;
  }
  BenchSpan save("provio.save");
  std::ostringstream encoded;
  {
    BenchSpan span("provio.encode");
    LIPSTICK_RETURN_IF_ERROR(lipstick::SaveGraph(graph, encoded));
  }
  {
    BenchSpan span("provio.write");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encoded.view();
    out.close();
    if (!out) {
      return Status::IOError(lipstick::StrCat("cannot write '", path, "'"));
    }
  }
  *ms = timer.ElapsedMillis();
  return Status::OK();
}

Result<std::unique_ptr<LoadedGraph>> LoadTimed(const std::string& path,
                                               bool split, double* ms) {
  lipstick::WallTimer timer;
  auto loaded = std::make_unique<LoadedGraph>();
  if (!split) {
    LIPSTICK_ASSIGN_OR_RETURN(loaded->graph,
                              lipstick::LoadGraphFromFile(path));
    loaded->graph.Seal();
    LIPSTICK_ASSIGN_OR_RETURN(loaded->snapshot,
                              lipstick::GraphSnapshot::Capture(loaded->graph));
    *ms = timer.ElapsedMillis();
    return loaded;
  }
  BenchSpan load("provio.load");
  std::string bytes;
  {
    BenchSpan span("provio.read");
    LIPSTICK_ASSIGN_OR_RETURN(bytes, ReadFile(path));
  }
  {
    BenchSpan span("provio.decode");
    std::istringstream in(std::move(bytes));
    LIPSTICK_ASSIGN_OR_RETURN(loaded->graph, lipstick::LoadGraph(in));
  }
  {
    BenchSpan span("provenance.seal");
    loaded->graph.Seal();
  }
  {
    BenchSpan span("snapshot.capture");
    LIPSTICK_ASSIGN_OR_RETURN(loaded->snapshot,
                              lipstick::GraphSnapshot::Capture(loaded->graph));
  }
  *ms = timer.ElapsedMillis();
  return loaded;
}

}  // namespace perfbench
