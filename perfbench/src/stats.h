#ifndef LIPSTICK_PERFBENCH_STATS_H_
#define LIPSTICK_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "provenance/snapshot.h"

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
double Median(std::vector<double> samples);

/// Nearest-rank quantile of `samples`, q in [0, 1].
double Quantile(std::vector<double> samples, double q);

/// The latency tail every workload reports as op_p90_us. A run holds
/// thousands of operations, so p90 has hundreds of samples beyond it. It is
/// not p99: on a shared host the p99 of a 5-ms tracked execution is set by
/// the few executions other tenants slowed down, and moved 0.21-0.54 (its
/// quartile distance as a share of its median) between runs of the same
/// code, where p90 moved 0.07.
constexpr double kTailQuantile = 0.9;

/// One span of an exported Chrome trace.
struct SpanRecord {
  std::string category;
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  double dur_us = 0;
};

/// Extracts the complete ("ph":"X") spans of a trace exported by
/// obs::Tracer::ExportJson.
lipstick::Result<std::vector<SpanRecord>> ParseTraceSpans(
    std::string_view json);

/// Time and count per span key, where the key is "category/name" or, for
/// categories listed in `by_category`, the category alone (e.g. every
/// "pig" statement span sums under "pig").
struct SpanTotals {
  double total_us = 0;
  double self_us = 0;  // total minus the time covered by direct children
  uint64_t count = 0;
};
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& by_category);

/// Reference implementation of the subgraph query, written apart from the
/// library's traversal engine: `root`, its ancestors, its descendants and
/// every alive co-parent of a descendant, over alive nodes only. Returns
/// the member count (0 when `root` is not alive).
size_t ReferenceSubgraphSize(const lipstick::GraphSnapshot& snap,
                             lipstick::NodeId root);

/// Transitive alive ancestors of `root`, excluding `root`, stopping once
/// more than `limit` are found (then the result holds limit + 1 ids).
std::vector<lipstick::NodeId> ReferenceAncestors(
    const lipstick::GraphSnapshot& snap, lipstick::NodeId root,
    size_t limit);

}  // namespace perfbench

#endif  // LIPSTICK_PERFBENCH_STATS_H_
