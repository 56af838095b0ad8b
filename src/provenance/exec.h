#ifndef LIPSTICK_PROVENANCE_EXEC_H_
#define LIPSTICK_PROVENANCE_EXEC_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "provenance/optimizer.h"
#include "provenance/plan.h"
#include "provenance/snapshot.h"
#include "provenance/view.h"

namespace lipstick {

/// Thread-safe LRU cache of composed view masks, keyed by
/// (scope, canonical view-prefix). The optimizer publishes every view
/// prefix of a plan as a cacheable unit; a later plan sharing a prefix
/// clones the cached view and applies only its remaining stages. Entries
/// are immutable once inserted (readers Clone() concurrently).
class PlanViewCache {
 public:
  struct Entry {
    GraphView view;
    // DeleteProp count of the entry's last stage, so a fully-cached
    // "... | delete n" can still render its summary line.
    size_t last_stage_removed = 0;
    // Keeps the snapshot the view points into alive (e.g. the service's
    // LoadedGraph). May be null when the caller outlives the cache.
    std::shared_ptr<const void> pin;
  };

  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit PlanViewCache(size_t capacity) : capacity_(capacity) {}

  /// Probes `prefixes` (canonical strings, longest last) from longest to
  /// shortest and returns the first entry found, storing its index in
  /// `*index`. Counts exactly one hit (something matched) or one miss per
  /// call, so the counters track plan executions, not probe fan-out.
  std::shared_ptr<const Entry> GetLongestPrefix(
      const std::string& scope, const std::vector<std::string>& prefixes,
      size_t* index);

  /// Inserts (or refreshes) the entry for one view prefix, evicting the
  /// least recently used entry when over capacity. No-op at capacity 0.
  void Put(const std::string& scope, const std::string& prefix, Entry entry);

  size_t entries() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  static std::string Key(const std::string& scope, const std::string& prefix);

  struct Slot {
    std::string key;
    std::shared_ptr<const Entry> entry;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

struct ExecOptions {
  int threads = 1;
  // When set, composed view prefixes are reused and published under
  // `scope` (the caller namespaces by graph identity, e.g. name + epoch).
  PlanViewCache* cache = nullptr;
  std::string scope;
  // Lifetime pin stored into cache entries; see PlanViewCache::Entry.
  std::shared_ptr<const void> pin;
};

/// Runs an optimized plan over the snapshot and renders its output — the
/// single rendering path behind local one-shot queries, `query --batch`,
/// and the serve daemon, so remote responses are byte-identical to local
/// output. View stages execute against one composed GraphView (mask
/// fusion); plans without view operators render straight off the
/// snapshot. Safe to call concurrently from many threads on one snapshot.
Result<std::string> ExecutePlan(const GraphSnapshot& snap,
                                const OptimizedPlan& opt,
                                const ExecOptions& opts = {});

/// Reference executor: materializes a standalone graph between every view
/// stage, then runs the terminal with the legacy single-op renderers. The
/// plan-equivalence suite asserts ExecutePlan == ExecutePlanNaive byte for
/// byte; bench_pipeline measures the gap.
Result<std::string> ExecutePlanNaive(const GraphSnapshot& snap,
                                     const Plan& plan, int threads = 1);

/// Composes the plan's view stages (ignoring any terminal) into one view,
/// for export paths (`--out` dot / provio rendering of a view query). When
/// `summary` is non-null it receives the line ExecutePlan prints for a
/// plan ending in its last view stage.
Result<GraphView> BuildPlanView(const GraphSnapshot& snap, const Plan& plan,
                                int threads = 1,
                                std::string* summary = nullptr);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_EXEC_H_
