#ifndef LIPSTICK_SERVICE_CACHE_H_
#define LIPSTICK_SERVICE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lipstick::service {

/// Thread-safe LRU cache of rendered query responses, keyed by
/// (graph name, graph epoch, canonical plan). Including the epoch in the
/// key means a `reload` invalidates implicitly: stale entries simply stop
/// being hit and age out of the LRU tail — no flush, no epoch fences.
/// The server decides what to put in (every successful read query).
class ResponseCache {
 public:
  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit ResponseCache(size_t capacity) : capacity_(capacity) {}

  /// Canonical key for one query against one graph epoch. Fields are
  /// joined with '\x1f' (unit separator), which cannot appear in graph
  /// names or tokenized args.
  static std::string Key(const std::string& graph, uint64_t epoch,
                         const std::string& op,
                         const std::vector<std::string>& args);

  /// Looks up `key`, refreshing its LRU position. Returns true and fills
  /// `*text` on a hit.
  bool Get(const std::string& key, std::string* text);

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// when over capacity. No-op when capacity is 0.
  void Put(const std::string& key, std::string text);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    std::string key;
    std::string text;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace lipstick::service

#endif  // LIPSTICK_SERVICE_CACHE_H_
