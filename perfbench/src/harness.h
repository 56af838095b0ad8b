#ifndef LIPSTICK_PERFBENCH_HARNESS_H_
#define LIPSTICK_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "stats.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch files of this run (removed at exit)
  std::string trace_path;  // Chrome-trace JSON written by a traced run
};

/// What one run reports: every metric of its mode, plus the operations it
/// attempted and the ones that failed. An output check is an operation
/// too. No operation of any workload is expected to fail, so a failed
/// operation or check makes the run incorrect: its timings would leave out
/// the work that failed, and its checks would skip that work's outputs.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; a non-OK status is a failed one.
  bool Op(const lipstick::Status& status, std::string_view what);
  /// Counts one output check.
  bool Check(bool ok, std::string_view what);

  bool correct() const { return failed_ == 0; }
  /// Human-readable table (one metric per line) for stderr.
  std::string Table() const;
  /// The one-line JSON result.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A span the benchmark records around one public call it makes; no-op
/// while the tracer is disarmed.
class BenchSpan : public lipstick::obs::ObsSpan {
 public:
  explicit BenchSpan(std::string_view name) : ObsSpan("bench", name) {}
};

/// Calls `fn` inside a BenchSpan named `name`, stores the elapsed
/// microseconds in `*us`, and returns what `fn` returned.
template <typename Fn>
auto Timed(std::string_view name, double* us, Fn&& fn) {
  BenchSpan span(name);
  lipstick::WallTimer timer;
  auto result = fn();
  *us = timer.ElapsedMicros();
  return result;
}

/// Metric values a workload measured, by name.
using MetricValues = std::map<std::string, double>;

/// Collects timings of one kind and summarizes them.
struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double Sum() const;
  double Mean() const;
  double Median() const { return perfbench::Median(values); }
  size_t size() const { return values.size(); }
};

/// Span totals of a traced pass, read back from the tracer's export.
class TraceSession {
 public:
  explicit TraceSession(const Options& options) : options_(options) {}
  void Arm();
  /// Disarms, writes the Chrome-trace file, and aggregates the spans.
  lipstick::Status Finish();

  /// Span totals by key, as AggregateSpans documents: the library's
  /// "executor.node", "executor.attempt" and "pig" spans sum per category
  /// (their names are workflow nodes and Pig targets), everything else
  /// under "category/name". 0 for keys no span had.
  double TotalUs(const std::string& key) const;
  double SelfUs(const std::string& key) const;
  uint64_t Count(const std::string& key) const;

 private:
  const Options& options_;
  std::map<std::string, SpanTotals> totals_;
};

/// The steps of a workload, as RunProtocol drives them.
struct Protocol {
  /// One set-up; attempt 0, 1, ... A failed operation ends the run.
  std::function<void(int attempt)> setup;
  /// Round `round` of the main loop, untraced or traced.
  std::function<void(size_t round, bool traced)> round;
  /// Traced runs only: called with the number of untraced rounds before
  /// the tracer is armed. May be empty.
  std::function<void(size_t rounds)> before_trace;
  /// Output checks after the timed rounds. May be empty.
  std::function<void()> check;
};

/// Drives `protocol` the same way for every workload:
/// - sets up five times and stores the median as setup_s (the last
///   set-up's state is the one the rounds use);
/// - untraced: runs rounds 0, 1, ... until --seconds have passed (at least
///   one), then stores peak_rss_mb;
/// - traced: runs rounds untraced for 30% of --seconds, then the same
///   rounds again with `trace` armed, and finishes the trace;
/// - runs the output checks.
/// Returns false when set-up failed, so there is nothing to report.
bool RunProtocol(const Options& options, const Protocol& protocol,
                 TraceSession* trace, Report* report, MetricValues* values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Mixes a run seed with a salt into an independent stream seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Bytes in one file, or in every regular file of one directory.
uint64_t FileBytes(const std::string& path);
uint64_t DirBytes(const std::string& dir);

/// Reads a whole file into memory.
lipstick::Result<std::string> ReadFile(const std::string& path);

/// Saves `graph` to `path` (SaveGraphToFile); the traced run splits the
/// call into its encode and write halves. Adds the elapsed time to `ms`.
lipstick::Status SaveTimed(const lipstick::ProvenanceGraph& graph,
                           const std::string& path, bool split, double* ms);

/// A graph loaded from a `.pg` file, sealed and captured.
struct LoadedGraph {
  lipstick::ProvenanceGraph graph;
  std::optional<lipstick::GraphSnapshot> snapshot;
};
/// Loads `path` into a sealed snapshot (LoadGraphFromFile + Seal +
/// Capture); the traced run splits the call into read, decode, seal and
/// capture. Adds the elapsed time to `ms`.
lipstick::Result<std::unique_ptr<LoadedGraph>> LoadTimed(
    const std::string& path, bool split, double* ms);

/// A metric's name and unit, as BENCHMARK.json lists it.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric (untraced runs) and every per-layer metric
/// (traced runs), in reporting order. Each workload reports all of them.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// A workload: runs in the mode `options` selects, counts its operations
/// and checks in `report`, and stores what it measured in `values`.
using WorkloadFn = void (*)(const Options& options, Report* report,
                            MetricValues* values);
void RunTrackDealership(const Options& options, Report* report,
                        MetricValues* values);
void RunQueryArctic(const Options& options, Report* report,
                    MetricValues* values);
void RunServeDealership(const Options& options, Report* report,
                        MetricValues* values);

}  // namespace perfbench

#endif  // LIPSTICK_PERFBENCH_HARNESS_H_
