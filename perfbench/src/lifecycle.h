#ifndef LIPSTICK_PERFBENCH_LIFECYCLE_H_
#define LIPSTICK_PERFBENCH_LIFECYCLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "harness.h"
#include "provenance/graph.h"
#include "provenance/wal.h"
#include "workflow/executor.h"

namespace perfbench {

/// Opens a write-ahead log in `dir` (fsync `never`: the benchmark measures
/// logging work, not the disk), attaches it to `graph`, and makes it the
/// durability sink of every execution `executor` runs.
lipstick::Result<std::unique_ptr<lipstick::Wal>> AttachWal(
    const std::string& dir, lipstick::ProvenanceGraph* graph,
    lipstick::WorkflowExecutor* executor);

/// Timings and sizes of the persistence half of a graph's lifecycle.
struct PersistStats {
  Samples save_ms;
  Samples load_ms;     // .pg file -> sealed, captured snapshot
  Samples recover_ms;  // WAL directory -> graph
  uint64_t pg_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t nodes = 0;  // nodes of the graphs the bytes above describe
  uint64_t records_applied = 0;
  uint64_t segments_scanned = 0;
};

/// Saves the sealed `live` graph to `pg_path`, recovers a graph from
/// `wal_dir`, and loads `pg_path` back into a snapshot, timing each step.
/// Then checks, outside the timings, that the recovered graph re-saves
/// byte-identical to the live one, that re-saving the loaded graph
/// reproduces the file, and that the validator finds no error. With
/// `count_sizes` the file and log sizes are added to `stats` too.
void PersistOnce(const lipstick::ProvenanceGraph& live,
                 const std::string& pg_path, const std::string& wal_dir,
                 bool traced, bool count_sizes, Report* report,
                 PersistStats* stats);

/// The quantile of a run's saves, loads and recoveries that save_ms,
/// load_ms and recover_ms report. On a shared host these timings are
/// bimodal: rounds run either at full speed or up to 1.7x slower while
/// other tenants contend for the core and memory, in streaks of seconds to
/// minutes. The share of slow rounds moves from run to run, and the median
/// jumps between the two modes as that share nears one half; the upper
/// quartile stays in the slow mode until three quarters of a run is fast.
constexpr double kPersistQuantile = 0.75;

/// Stores the end-to-end persistence metrics (save/load/recover at
/// kPersistQuantile, and bytes per node).
void StorePersistMetrics(const PersistStats& stats, MetricValues* values);

/// Stores the per-layer metrics the traced persistence spans yield (seal,
/// encode/write, read/decode, capture, recovery counters).
void StorePersistLayers(const TraceSession& trace, const PersistStats& stats,
                        MetricValues* values);

}  // namespace perfbench

#endif  // LIPSTICK_PERFBENCH_LIFECYCLE_H_
