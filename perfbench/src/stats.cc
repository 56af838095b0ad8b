#include "stats.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"

namespace perfbench {

using lipstick::GraphSnapshot;
using lipstick::NodeId;

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it.
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

lipstick::Result<std::vector<SpanRecord>> ParseTraceSpans(
    std::string_view json) {
  lipstick::Result<lipstick::obs::JsonValue> doc =
      lipstick::obs::ParseJson(json);
  if (!doc.ok()) return doc.status();
  const lipstick::obs::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return lipstick::Status::InvalidArgument("trace has no traceEvents");
  }
  std::vector<SpanRecord> spans;
  for (const lipstick::obs::JsonValue& e : events->array()) {
    const lipstick::obs::JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str() != "X") continue;
    SpanRecord span;
    if (const auto* v = e.Find("cat"); v != nullptr && v->is_string()) {
      span.category = v->str();
    }
    if (const auto* v = e.Find("name"); v != nullptr && v->is_string()) {
      span.name = v->str();
    }
    if (const auto* v = e.Find("dur"); v != nullptr && v->is_number()) {
      span.dur_us = v->number();
    }
    if (const auto* args = e.Find("args"); args != nullptr) {
      if (const auto* v = args->Find("span"); v != nullptr && v->is_number()) {
        span.id = static_cast<uint64_t>(v->number());
      }
      if (const auto* v = args->Find("parent");
          v != nullptr && v->is_number()) {
        span.parent = static_cast<uint64_t>(v->number());
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& by_category) {
  auto key_of = [&by_category](const SpanRecord& s) {
    if (std::find(by_category.begin(), by_category.end(), s.category) !=
        by_category.end()) {
      return s.category;
    }
    return s.category + "/" + s.name;
  };
  // Time covered by each span's direct children.
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[key_of(s)];
    t.total_us += s.dur_us;
    auto it = child_us.find(s.id);
    double covered = it == child_us.end() ? 0 : it->second;
    t.self_us += std::max(0.0, s.dur_us - covered);
    ++t.count;
  }
  return out;
}

namespace {

/// Breadth-first closure over alive nodes in one direction; marks and
/// returns every node reached (the seed only if re-reached).
template <typename Next>
std::vector<NodeId> Closure(const GraphSnapshot& snap, NodeId seed,
                            std::unordered_set<NodeId>* seen, size_t limit,
                            Next next) {
  std::vector<NodeId> reached;
  std::deque<NodeId> queue{seed};
  while (!queue.empty() && reached.size() <= limit) {
    NodeId id = queue.front();
    queue.pop_front();
    for (NodeId n : next(id)) {
      if (!snap.Contains(n) || !seen->insert(n).second) continue;
      reached.push_back(n);
      queue.push_back(n);
    }
  }
  return reached;
}

}  // namespace

size_t ReferenceSubgraphSize(const GraphSnapshot& snap, NodeId root) {
  if (!snap.Contains(root)) return 0;
  const size_t kNoLimit = static_cast<size_t>(-1) - 1;
  std::unordered_set<NodeId> seen_up;
  std::vector<NodeId> up = Closure(
      snap, root, &seen_up, kNoLimit,
      [&snap](NodeId id) { return snap.ParentsOf(id); });
  std::unordered_set<NodeId> seen_down;
  std::vector<NodeId> down = Closure(
      snap, root, &seen_down, kNoLimit,
      [&snap](NodeId id) { return snap.ChildrenOf(id); });
  std::unordered_set<NodeId> members(up.begin(), up.end());
  members.insert(root);
  for (NodeId d : down) {
    members.insert(d);
    for (NodeId p : snap.ParentsOf(d)) {
      if (snap.Contains(p)) members.insert(p);
    }
  }
  return members.size();
}

std::vector<NodeId> ReferenceAncestors(const GraphSnapshot& snap,
                                       NodeId root, size_t limit) {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> up =
      Closure(snap, root, &seen, limit,
              [&snap](NodeId id) { return snap.ParentsOf(id); });
  std::erase(up, root);
  if (up.size() > limit + 1) up.resize(limit + 1);
  return up;
}

}  // namespace perfbench
