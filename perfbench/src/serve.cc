// serve_dealership: a dealership graph loaded from its .pg file into an
// in-process Server, driven by one client connection in a closed loop
// (each request waits for the previous reply). The request stream is
// seeded and skewed over more distinct plans than the response cache
// holds, so both hits and misses occur, and every round starts with a
// `reload`: the protocol, the server queue, both caches and the registry
// reload do most of the work.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "common/rng.h"
#include "common/str_util.h"
#include "harness.h"
#include "lifecycle.h"
#include "obs/json.h"
#include "provenance/provio.h"
#include "service/client.h"
#include "service/ops.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "service/server.h"
#include "workflowgen/dealership.h"

namespace perfbench {

using lipstick::GraphSnapshot;
using lipstick::NodeId;
using lipstick::ProvenanceGraph;
using lipstick::Result;
using lipstick::Status;
using lipstick::workflowgen::DealershipConfig;
using lipstick::workflowgen::DealershipWorkflow;
namespace service = lipstick::service;

namespace {

constexpr int kCars = 2000;
constexpr int kExecutions = 30;
constexpr size_t kPersistEvery = 4;  // rounds per save/recover/load
constexpr size_t kDistinctPlans = 192;  // 3x the response cache
constexpr size_t kCacheEntries = 64;
constexpr size_t kRequestsPerRound = 400;  // a reload every 400 requests
constexpr double kZipfExponent = 1.0;
constexpr char kGraphName[] = "dealers";

/// Request texts, one per distinct plan, most popular first. Classes
/// follow a fixed pattern down the popularity ranks, so the hot set has the
/// same make-up for every seed: per 20 ranks, 6 subgraph, 5 "zoomout |
/// subgraph | stats" pipelines, 3 depends and 2 expr point lookups, 2
/// zoomout and 2 restrict/find scans. The seed picks the nodes and variants.
std::vector<std::string> BuildPlanPool(const GraphSnapshot& snap,
                                       uint64_t seed) {
  std::vector<NodeId> best_bids;  // BestBid "o" nodes of the aggregator
  for (const lipstick::InvocationInfo& inv : snap.invocations()) {
    if (snap.str(inv.module_name) != "aggregate") continue;
    for (NodeId out : inv.output_nodes) {
      if (snap.Contains(out)) best_bids.push_back(out);
    }
  }
  std::vector<NodeId> alive;
  snap.ForEachAliveNode([&alive](NodeId id) { alive.push_back(id); });
  static const std::vector<std::string> kModules = {
      "request", "choice", "dealer", "aggregate", "and", "xor", "car"};
  static const std::vector<std::string> kScans = {
      "stats",
      "find --role I",
      "restrict --label agg | stats",
      "restrict --role o | stats",
      "restrict --role s | stats",
      "restrict --role i | stats",
      "restrict --label blackbox | stats",
      "restrict --label delta | stats",
      "restrict --label tensor | stats",
      "restrict --payload MIN | stats",
      "restrict --payload COUNT | stats",
      "restrict --role o --label agg | stats"};
  // Per 20 ranks: 0 subgraph, 1 pipeline, 2 depends, 3 expr, 4 zoomout,
  // 5 scan.
  static const int kPattern[20] = {0, 1, 0, 2, 4, 1, 0, 3, 5, 1,
                                    0, 2, 1, 0, 4, 3, 1, 2, 0, 5};

  lipstick::Rng rng(seed);
  auto id = [](NodeId n) { return std::to_string(n); };
  auto plan = [&](int cls) -> std::string {
    switch (cls) {
      case 0:
        return "subgraph " + id(rng.Pick(rng.Chance(0.5) ? best_bids : alive));
      case 1:
        return lipstick::StrCat("zoomout dealer | subgraph ",
                                id(rng.Pick(best_bids)), " | stats");
      case 2: {
        NodeId target = rng.Pick(best_bids);
        std::vector<NodeId> near = ReferenceAncestors(snap, target, 500);
        return lipstick::StrCat("depends ", id(target), " ",
                                id(near.empty() ? target : rng.Pick(near)));
      }
      case 3: {
        NodeId target = rng.Pick(alive);
        for (int tries = 0;
             tries < 100 && ReferenceAncestors(snap, target, 64).size() > 64;
             ++tries) {
          target = rng.Pick(alive);
        }
        return "expr " + id(target);
      }
      case 4: {
        std::vector<std::string> modules;
        for (const std::string& m : kModules) {
          if (rng.Chance(0.4)) modules.push_back(m);
        }
        if (modules.empty()) modules.push_back(rng.Pick(kModules));
        return "zoomout " + lipstick::Join(modules, ",");
      }
      default:
        return rng.Pick(kScans);
    }
  };
  std::vector<std::string> pool;
  std::set<std::string> seen;
  while (pool.size() < kDistinctPlans) {
    const int cls = kPattern[pool.size() % 20];
    std::string text = plan(cls);
    // Classes with few variants may repeat; a fresh subgraph root takes
    // the rank then.
    for (int tries = 0; tries < 20 && seen.count(text); ++tries) {
      text = plan(cls);
    }
    while (seen.count(text)) text = plan(0);
    seen.insert(text);
    pool.push_back(std::move(text));
  }
  return pool;
}

/// Cumulative Zipf weights over ranks 1..n.
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// lowest CPU it may use. The client, session and worker threads hand each
/// request along; when they migrate between CPUs the round trip turns
/// bimodal from one process to the next. (On a 4-vCPU Xeon VM, pinning to
/// whichever CPU the process started on measured 10-15% slower.)
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// One set-up: the graph, its file, the registry serving it, the server
/// and the client's connection. Members are destroyed in reverse order:
/// client, then server, then the registry it reads.
struct ServeState {
  std::string dir;
  std::unique_ptr<ProvenanceGraph> graph;  // the live graph, as tracked
  service::GraphRegistry registry;
  std::unique_ptr<service::Server> server;
  service::ServiceClient client;
  std::vector<std::string> pool;  // plans by popularity rank
  std::vector<double> cdf;
  uint64_t epoch = 0;            // last epoch a reload reported
  uint64_t query_requests = 0;   // sent to this server
};

struct ServePass {
  Samples latency_us;  // query requests
  Samples reload_ms;
  Samples hit_us, miss_us;  // traced pass only
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
};

class ServeWorkload {
 public:
  ServeWorkload(const Options& options, Report* report)
      : options_(options), report_(report) {}

  std::unique_ptr<ServeState> Setup(int attempt, Samples* create_ms) {
    auto state = std::make_unique<ServeState>();
    state->dir = lipstick::StrCat(options_.work_dir, "/serve-", attempt);
    std::filesystem::remove_all(state->dir);
    std::filesystem::create_directories(state->dir);

    DealershipConfig config;
    config.num_cars = kCars;
    config.num_executions = kExecutions;
    config.seed = MixSeed(options_.seed, 0x5e7e);
    config.accept_probability = 0;
    double us = 0;
    Result<std::unique_ptr<DealershipWorkflow>> wf =
        Timed("workflowgen.create", &us,
              [&] { return DealershipWorkflow::Create(config); });
    if (!report_->Op(wf.status(), "create dealership workflow")) return nullptr;
    create_ms->Add(us / 1000.0);

    state->graph = std::make_unique<ProvenanceGraph>();
    Result<std::unique_ptr<lipstick::Wal>> wal =
        AttachWal(state->dir + "/wal", state->graph.get(), &(*wf)->executor());
    if (!report_->Op(wal.status(), "open WAL")) return nullptr;
    for (int e = 1; e <= kExecutions; ++e) {
      if (!report_->Op((*wf)->ExecuteOnce(e, state->graph.get()).status(),
                       "tracked execution")) {
        return nullptr;
      }
    }
    if (!report_->Op((*wal)->Close(), "close WAL")) return nullptr;
    state->graph->Seal();
    const std::string pg_path = state->dir + "/graph.pg";
    if (!report_->Op(lipstick::SaveGraphToFile(*state->graph, pg_path),
                     "save graph") ||
        !report_->Op(state->registry.LoadFile(kGraphName, pg_path),
                     "load graph into the registry")) {
      return nullptr;
    }

    service::ServerOptions server_options;
    server_options.workers = 1;
    server_options.queue_depth = 8;
    server_options.cache_entries = kCacheEntries;
    server_options.query_threads = 1;
    state->server =
        std::make_unique<service::Server>(&state->registry, server_options);
    if (!report_->Op(state->server->Start(), "start server")) return nullptr;
    Result<service::ServiceClient> client =
        service::ServiceClient::ConnectHostPort("127.0.0.1",
                                                state->server->port());
    if (!report_->Op(client.status(), "connect client")) return nullptr;
    state->client = std::move(*client);

    Result<std::shared_ptr<const service::LoadedGraph>> loaded =
        state->registry.Get(kGraphName);
    if (!report_->Op(loaded.status(), "look up graph")) return nullptr;
    state->epoch = (*loaded)->epoch;
    state->pool =
        BuildPlanPool((*loaded)->snapshot, MixSeed(options_.seed, 0x9e11));
    state->cdf = ZipfCdf(state->pool.size());
    // One untimed round, so the server's threads, the allocator and the
    // pooled bitmaps are warm before timing.
    ServePass warmup;
    Round(state.get(), 1000000 + attempt, false, &warmup, nullptr);
    return state;
  }

  /// One round: a reload, then kRequestsPerRound query requests drawn from
  /// the round's own seeded stream, and every kPersistEvery rounds a save,
  /// a recovery and a load of the live graph beside the server.
  void Round(ServeState* state, size_t round, bool traced, ServePass* pass,
             PersistStats* persist) {
    if (persist != nullptr && round % kPersistEvery == 0) {
      PersistOnce(*state->graph, state->dir + "/persist.pg",
                  state->dir + "/wal", traced,
                  /*count_sizes=*/persist->save_ms.size() == 0, report_,
                  persist);
    }
    double us = 0;
    Result<std::string> reloaded = Timed("service.reload", &us, [&] {
      return Call(state, service::MakeRequest("reload", {kGraphName}), pass);
    });
    if (!report_->Op(reloaded.status(), "reload")) return;
    pass->reload_ms.Add(us / 1000.0);
    const std::string want =
        lipstick::StrCat("reloaded '", kGraphName, "' to epoch ",
                         state->epoch + 1, "\n");
    report_->Check(*reloaded == want, "reload raises the epoch by one");
    ++state->epoch;

    lipstick::Rng rng(MixSeed(options_.seed, round + 1));
    for (size_t i = 0; i < kRequestsPerRound; ++i) {
      double u = rng.UniformDouble();
      size_t rank = static_cast<size_t>(
          std::lower_bound(state->cdf.begin(), state->cdf.end(), u) -
          state->cdf.begin());
      const std::string& text =
          state->pool[std::min(rank, state->pool.size() - 1)];
      uint64_t hits_before = traced ? state->server->Stats().cache_hits : 0;
      Result<std::string> reply = Timed("service.request", &us, [&] {
        return Call(state, service::MakeRequest(text, {}), pass);
      });
      ++state->query_requests;
      if (!report_->Op(reply.status(), text)) continue;
      pass->latency_us.Add(us);
      if (traced) {
        bool hit = state->server->Stats().cache_hits > hits_before;
        (hit ? pass->hit_us : pass->miss_us).Add(us);
      }
      auto [it, inserted] = responses_.emplace(text, *reply);
      if (!inserted && it->second != *reply) unstable_.insert(text);
    }
  }

  /// Output checks, after the timed rounds.
  void CheckOutputs(ServeState* state) {
    Result<std::shared_ptr<const service::LoadedGraph>> loaded =
        state->registry.Get(kGraphName);
    if (!report_->Op(loaded.status(), "look up graph")) return;
    for (const auto& [text, reply] : responses_) {
      report_->Check(!unstable_.count(text),
                     text + ": same response on every request");
      Result<std::string> local =
          service::ExecuteReadQuery((*loaded)->snapshot, text, {}, 1);
      report_->Check(local.ok() && *local == reply,
                     text + ": response equals local ExecuteReadQuery");
    }
    service::Server::StatsSnapshot stats = state->server->Stats();
    report_->Check(
        stats.cache_hits + stats.cache_misses == state->query_requests,
        "cache hits + misses == query requests");
  }

 private:
  /// One closed-loop round trip: send the request frame, wait for the
  /// reply, decode it.
  Result<std::string> Call(ServeState* state,
                           const lipstick::obs::JsonValue& request,
                           ServePass* pass) {
    std::string payload = request.Serialize();
    Result<std::string> frame = state->client.Call(payload);
    if (!frame.ok()) return frame.status();
    pass->request_bytes += payload.size() + 4;  // + length prefix
    pass->response_bytes += frame->size() + 4;
    Result<lipstick::obs::JsonValue> doc = lipstick::obs::ParseJson(*frame);
    if (!doc.ok()) return doc.status();
    return service::ResponseToResult(*doc);
  }

  const Options& options_;
  Report* report_;
  std::map<std::string, std::string> responses_;  // first reply per plan
  std::set<std::string> unstable_;
};

}  // namespace

void RunServeDealership(const Options& options, Report* report,
                        MetricValues* values) {
  PinToOneCpu();  // before any thread starts, so they all inherit it
  ServeWorkload workload(options, report);
  Samples create_ms;
  std::unique_ptr<ServeState> state;
  ServePass passes[2];  // untraced, traced
  PersistStats persist[2];
  service::Server::StatsSnapshot before;  // server counters as tracing starts
  Protocol protocol;
  protocol.setup = [&](int attempt) {
    state.reset();
    state = workload.Setup(attempt, &create_ms);
  };
  protocol.round = [&](size_t r, bool traced) {
    workload.Round(state.get(), r, traced, &passes[traced], &persist[traced]);
  };
  protocol.before_trace = [&](size_t) { before = state->server->Stats(); };
  protocol.check = [&] { workload.CheckOutputs(state.get()); };
  TraceSession trace(options);
  if (!RunProtocol(options, protocol, &trace, report, values)) return;

  MetricValues& v = *values;
  const ServePass& plain = passes[0];
  if (!options.trace) {
    v["ops_per_s"] = plain.latency_us.size() / (plain.latency_us.Sum() / 1e6);
    v["op_p50_us"] = plain.latency_us.Median();
    v["op_p90_us"] = Quantile(plain.latency_us.values, kTailQuantile);
    StorePersistMetrics(persist[0], values);
    // .pg -> served snapshot
    v["load_ms"] = Quantile(plain.reload_ms.values, kPersistQuantile);
    return;
  }

  // The output checks send no request, so the counters still hold the
  // traced pass alone.
  const ServePass& traced = passes[1];
  const service::Server::StatsSnapshot after = state->server->Stats();
  const double queries = static_cast<double>(traced.latency_us.size());
  const double requests = queries + traced.reload_ms.size();
  const double hits = after.cache_hits - before.cache_hits;
  const double misses = after.cache_misses - before.cache_misses;
  v["workflowgen.create_ms"] = create_ms.Mean();
  StorePersistLayers(trace, persist[1], values);
  v["service.hit_us"] = traced.hit_us.Mean();
  v["service.miss_us"] = traced.miss_us.Mean();
  // Cache counts per round (one reload and kRequestsPerRound requests):
  // with one closed-loop connection they repeat exactly for a seed.
  const double per_round = static_cast<double>(traced.reload_ms.size());
  v["service.cache_hits"] = hits / per_round;
  v["service.cache_misses"] = misses / per_round;
  v["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  v["service.plan_cache_hits"] =
      (after.plan_cache_hits - before.plan_cache_hits) / per_round;
  v["service.plan_cache_misses"] =
      (after.plan_cache_misses - before.plan_cache_misses) / per_round;
  v["protocol.request_bytes"] = traced.request_bytes / requests;
  v["protocol.response_bytes"] = traced.response_bytes / requests;
  v["obs.trace_overhead_pct"] =
      (traced.latency_us.Sum() / plain.latency_us.Sum() - 1) * 100;
}

}  // namespace perfbench
