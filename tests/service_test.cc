// Tests for the provenance query service: wire protocol framing, the
// graph registry's hot-swap semantics, the LRU response cache,
// cooperative cancellation (deadline + disconnect), and the serve daemon
// end to end over real sockets — including local/remote output parity
// (the protocol contract), admission control, fault injection, and
// graceful drain. The multi-threaded cases run under TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/str_util.h"
#include "obs/json.h"
#include "provenance/graph.h"
#include "provenance/provio.h"
#include "provenance/snapshot.h"
#include "provenance/traverse.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/ops.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "service/server.h"
#include "test_util.h"
#include "workflowgen/dealership.h"

namespace lipstick {
namespace {

using service::GraphRegistry;
using service::LoadedGraph;
using service::ResponseCache;
using service::Server;
using service::ServerOptions;
using service::ServiceClient;

ProvenanceGraph BuildDealershipGraph() {
  workflowgen::DealershipConfig cfg;
  cfg.num_cars = 200;
  cfg.num_executions = 3;
  cfg.seed = 11;
  auto wf = workflowgen::DealershipWorkflow::Create(cfg);
  EXPECT_TRUE(wf.ok());
  ProvenanceGraph graph;
  EXPECT_TRUE((*wf)->Run(&graph).ok());
  graph.Seal();
  return graph;
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    FaultInjector::Global().Reset();
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(ProtocolTest, FrameRoundTrip) {
  std::string payload = "{\"op\":\"stats\"}";
  LIPSTICK_ASSERT_OK(service::WriteFrame(fds_[0], payload));
  Result<std::string> got = service::ReadFrame(fds_[1]);
  LIPSTICK_ASSERT_OK(got.status());
  EXPECT_EQ(*got, payload);
}

TEST_F(ProtocolTest, EmptyFrameRoundTrip) {
  LIPSTICK_ASSERT_OK(service::WriteFrame(fds_[0], ""));
  Result<std::string> got = service::ReadFrame(fds_[1]);
  LIPSTICK_ASSERT_OK(got.status());
  EXPECT_EQ(*got, "");
}

TEST_F(ProtocolTest, CleanEofIsAborted) {
  ::close(fds_[0]);
  fds_[0] = -1;
  Result<std::string> got = service::ReadFrame(fds_[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kAborted);
}

TEST_F(ProtocolTest, OversizedLengthPrefixRejected) {
  // 0xFFFFFFFF length prefix: far beyond kMaxFrameBytes.
  char header[4] = {'\xff', '\xff', '\xff', '\xff'};
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  Result<std::string> got = service::ReadFrame(fds_[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProtocolTest, TruncatedPayloadIsIOError) {
  char header[4] = {0, 0, 0, 10};  // promises 10 bytes, delivers 3
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  ASSERT_EQ(::send(fds_[0], "abc", 3, 0), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  Result<std::string> got = service::ReadFrame(fds_[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(ProtocolTest, HeaderClaimingMaxFrameThenCloseIsIOError) {
  // A header announcing the largest legal frame, 10 payload bytes, then a
  // hang-up: a short read, reported without first allocating the claimed
  // 16 MiB.
  uint32_t len = service::kMaxFrameBytes;
  char header[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                    static_cast<char>(len >> 8), static_cast<char>(len)};
  ASSERT_EQ(::send(fds_[0], header, 4, 0), 4);
  ASSERT_EQ(::send(fds_[0], "0123456789", 10, 0), 10);
  ::close(fds_[0]);
  fds_[0] = -1;
  Result<std::string> got = service::ReadFrame(fds_[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(ProtocolTest, FrameLargerThanOneReadChunkRoundTrips) {
  // 200 KiB spans several bounded payload reads; the writer runs on its
  // own thread because the socket buffer holds less than the frame.
  std::string payload(200 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  std::thread writer(
      [&] { LIPSTICK_EXPECT_OK(service::WriteFrame(fds_[0], payload)); });
  Result<std::string> got = service::ReadFrame(fds_[1]);
  writer.join();
  LIPSTICK_ASSERT_OK(got.status());
  EXPECT_EQ(*got, payload);
}

TEST_F(ProtocolTest, ReadFaultInjection) {
  FaultInjector::FaultSpec spec;
  spec.point = service::kFaultRead;
  spec.max_fires = 1;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm(spec);
  LIPSTICK_ASSERT_OK(service::WriteFrame(fds_[0], "x"));
  Result<std::string> got = service::ReadFrame(fds_[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  // Budget spent: the frame is still in the socket buffer and readable.
  got = service::ReadFrame(fds_[1]);
  LIPSTICK_EXPECT_OK(got.status());
}

TEST_F(ProtocolTest, WriteFaultInjection) {
  FaultInjector::FaultSpec spec;
  spec.point = service::kFaultWrite;
  spec.max_fires = 1;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm(spec);
  EXPECT_FALSE(service::WriteFrame(fds_[0], "x").ok());
  LIPSTICK_EXPECT_OK(service::WriteFrame(fds_[0], "x"));
}

TEST(ProtocolCodes, ErrorCodeMappingRoundTrips) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kExecutionError,
        StatusCode::kIOError, StatusCode::kInternal,
        StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
        StatusCode::kAborted}) {
    EXPECT_EQ(service::ErrorCodeFromString(service::ErrorCodeString(code)),
              code);
  }
  // The admission-control rejection maps to the retryable code.
  EXPECT_EQ(service::ErrorCodeFromString("overloaded"),
            StatusCode::kUnavailable);
  EXPECT_EQ(service::ErrorCodeFromString("no-such-code"),
            StatusCode::kInternal);
}

TEST(ProtocolCodes, ErrorLineFormat) {
  EXPECT_EQ(service::ErrorLine(Status::InvalidArgument("bad node id '?'")),
            "error: invalid_argument: bad node id '?'");
  EXPECT_EQ(service::ErrorLine("overloaded", "queue full"),
            "error: overloaded: queue full");
}

TEST(ProtocolEnvelope, ResponseRoundTrip) {
  Result<obs::JsonValue> ok =
      obs::ParseJson(service::OkResponse("hello\n").Serialize());
  LIPSTICK_ASSERT_OK(ok.status());
  Result<std::string> text = service::ResponseToResult(*ok);
  LIPSTICK_ASSERT_OK(text.status());
  EXPECT_EQ(*text, "hello\n");

  Result<obs::JsonValue> err = obs::ParseJson(
      service::ErrorResponse("deadline_exceeded", "too slow").Serialize());
  LIPSTICK_ASSERT_OK(err.status());
  Result<std::string> failed = service::ResponseToResult(*err);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(failed.status().message(), "too slow");

  Result<obs::JsonValue> junk = obs::ParseJson("{\"nope\":1}");
  LIPSTICK_ASSERT_OK(junk.status());
  EXPECT_EQ(service::ResponseToResult(*junk).status().code(),
            StatusCode::kInternal);
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

TEST(CancelTokenTest, ExplicitCancelFirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.Poll());
  LIPSTICK_EXPECT_OK(token.status());
  token.Cancel(Status::Aborted("first"));
  token.Cancel(Status::DeadlineExceeded("second"));
  EXPECT_TRUE(token.Poll());
  EXPECT_EQ(token.status().code(), StatusCode::kAborted);
  EXPECT_EQ(token.status().message(), "first");
}

TEST(CancelTokenTest, DeadlineFires) {
  CancelToken token;
  token.SetDeadlineMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.CheckDeadlineNow());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
  // Poll (stride-gated) observes the same cancellation.
  EXPECT_TRUE(token.Poll());
}

TEST(CancelTokenTest, ProbeFiresOnItsStride) {
  CancelToken token;
  std::atomic<int> probes{0};
  token.SetProbe([&probes] {
    probes.fetch_add(1);
    return true;
  });
  bool fired = false;
  for (uint32_t i = 0; i < CancelToken::kProbeStride + 1 && !fired; ++i) {
    fired = token.Poll();
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(probes.load(), 1);
  EXPECT_EQ(token.status().code(), StatusCode::kAborted);
}

TEST(CancelTokenTest, TraversalStopsOnCancelledToken) {
  ProvenanceGraph graph = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  LIPSTICK_ASSERT_OK(snap.status());

  // Baseline: full reachability from every root is most of the graph.
  std::vector<NodeId> all = graph.AllNodeIds();
  CancelToken token;
  token.Cancel(Status::Aborted("cancelled before the traversal began"));
  CancelScope scope(&token);
  VisitedLease visited = snap->AcquireVisited();
  std::vector<NodeId> reached = ParallelReach(
      *snap, std::span<const NodeId>(all.data(), 1),
      TraverseDirection::kForward, /*num_threads=*/1, *visited);
  // A pre-cancelled token stops the BFS at the first frontier pop.
  EXPECT_TRUE(reached.empty());
}

TEST(CancelTokenTest, ParallelTraversalDrainsCleanlyWhenCancelled) {
  ProvenanceGraph graph = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  LIPSTICK_ASSERT_OK(snap.status());
  std::vector<NodeId> all = graph.AllNodeIds();
  CancelToken token;
  token.Cancel(Status::Aborted("stop"));
  CancelScope scope(&token);
  VisitedLease visited = snap->AcquireVisited();
  // Must terminate (workers still meet the barrier) and visit ~nothing.
  std::vector<NodeId> reached = ParallelReach(
      *snap, std::span<const NodeId>(all.data(), std::min<size_t>(64, all.size())),
      TraverseDirection::kForward, /*num_threads=*/4, *visited);
  EXPECT_TRUE(reached.empty());
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

TEST(ResponseCacheTest, LruEvictionAndCounters) {
  ResponseCache cache(2);
  std::string text;
  EXPECT_FALSE(cache.Get("a", &text));
  cache.Put("a", "A");
  cache.Put("b", "B");
  EXPECT_TRUE(cache.Get("a", &text));  // refreshes "a"
  EXPECT_EQ(text, "A");
  cache.Put("c", "C");  // evicts "b", the LRU entry
  EXPECT_FALSE(cache.Get("b", &text));
  EXPECT_TRUE(cache.Get("a", &text));
  EXPECT_TRUE(cache.Get("c", &text));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResponseCacheTest, ZeroCapacityDisables) {
  ResponseCache cache(0);
  cache.Put("a", "A");
  std::string text;
  EXPECT_FALSE(cache.Get("a", &text));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheTest, KeyIncludesEpochAndArgs) {
  EXPECT_NE(ResponseCache::Key("g", 0, "subgraph", {"7"}),
            ResponseCache::Key("g", 1, "subgraph", {"7"}));
  EXPECT_NE(ResponseCache::Key("g", 0, "subgraph", {"7"}),
            ResponseCache::Key("g", 0, "subgraph", {"8"}));
  EXPECT_NE(ResponseCache::Key("g", 0, "subgraph", {"a", "b"}),
            ResponseCache::Key("g", 0, "subgraph", {"ab"}));
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(GraphRegistryTest, AddGetDefaultAndNamed) {
  GraphRegistry registry;
  LIPSTICK_ASSERT_OK(registry.AddGraph("one", BuildDealershipGraph()));
  LIPSTICK_ASSERT_OK(registry.AddGraph("two", BuildDealershipGraph()));
  EXPECT_FALSE(registry.AddGraph("one", BuildDealershipGraph()).ok());

  Result<std::shared_ptr<const LoadedGraph>> by_default = registry.Get("");
  LIPSTICK_ASSERT_OK(by_default.status());
  EXPECT_EQ((*by_default)->name, "one");  // first registered = default
  LIPSTICK_EXPECT_OK(registry.Get("two").status());
  EXPECT_EQ(registry.Get("three").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(GraphRegistryTest, InMemoryGraphCannotReload) {
  GraphRegistry registry;
  LIPSTICK_ASSERT_OK(registry.AddGraph("mem", BuildDealershipGraph()));
  EXPECT_EQ(registry.Reload("mem").code(),
            StatusCode::kExecutionError);
}

TEST(GraphRegistryTest, ReloadBumpsEpochAndKeepsOldSnapshotAlive) {
  std::string path =
      StrCat(::testing::TempDir(), "service_registry_reload.pg");
  ProvenanceGraph graph = BuildDealershipGraph();
  LIPSTICK_ASSERT_OK(SaveGraphToFile(graph, path));

  GraphRegistry registry;
  LIPSTICK_ASSERT_OK(registry.LoadFile("g", path));
  Result<std::shared_ptr<const LoadedGraph>> before = registry.Get("g");
  LIPSTICK_ASSERT_OK(before.status());
  EXPECT_EQ((*before)->epoch, 0u);

  LIPSTICK_ASSERT_OK(registry.Reload("g"));
  Result<std::shared_ptr<const LoadedGraph>> after = registry.Get("g");
  LIPSTICK_ASSERT_OK(after.status());
  EXPECT_EQ((*after)->epoch, 1u);
  EXPECT_NE(before->get(), after->get());

  // The pre-reload shared_ptr still reads valid data: hot swap never
  // invalidates in-flight requests.
  Result<std::string> old_stats = service::ExecuteReadQuery(
      (*before)->snapshot, "stats", {}, /*threads=*/1);
  LIPSTICK_ASSERT_OK(old_stats.status());
  Result<std::string> new_stats = service::ExecuteReadQuery(
      (*after)->snapshot, "stats", {}, /*threads=*/1);
  LIPSTICK_ASSERT_OK(new_stats.status());
  EXPECT_EQ(*old_stats, *new_stats);  // same file, same contents
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Server, end to end over real sockets
// ---------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    ProvenanceGraph graph = BuildDealershipGraph();
    graph.ForEachAliveNode([this](NodeId id) { ids_.push_back(id); });
    ASSERT_GE(ids_.size(), 2u);
    LIPSTICK_ASSERT_OK(registry_.AddGraph("dealers", std::move(graph)));
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  /// Boots a server on an ephemeral port and returns a connected client.
  ServiceClient StartAndConnect(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(&registry_, options);
    Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    Result<ServiceClient> client =
        ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  GraphRegistry registry_;
  std::unique_ptr<Server> server_;
  std::vector<NodeId> ids_;
};

TEST_F(ServerTest, RemoteOutputMatchesLocalForEveryOp) {
  ServiceClient client = StartAndConnect();
  Result<std::shared_ptr<const LoadedGraph>> loaded = registry_.Get("");
  LIPSTICK_ASSERT_OK(loaded.status());

  std::string id0 = StrCat(ids_[0]);
  std::string id1 = StrCat(ids_[1]);
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"stats", {}},
       {"find", {"--label", "token"}},
       {"expr", {id1}},
       {"depends", {id1, id0}},
       {"subgraph", {id0}},
       {"zoomout", {"dealer"}}};
  for (const auto& [op, args] : cases) {
    Result<std::string> local = service::ExecuteReadQuery(
        (*loaded)->snapshot, op, args, /*threads=*/1);
    LIPSTICK_ASSERT_OK(local.status());
    Result<std::string> remote = client.Query(op, args);
    LIPSTICK_ASSERT_OK(remote.status());
    EXPECT_EQ(*local, *remote) << "op=" << op;
  }
}

TEST_F(ServerTest, ErrorEnvelopeCarriesCodes) {
  ServiceClient client = StartAndConnect();
  Result<std::string> unknown = client.Query("frobnicate", {});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  Result<std::string> bad_graph = client.Query("stats", {}, "nope");
  ASSERT_FALSE(bad_graph.ok());
  EXPECT_EQ(bad_graph.status().code(), StatusCode::kNotFound);

  Result<std::string> bad_args = client.Query("expr", {"not-a-node"});
  ASSERT_FALSE(bad_args.ok());
  EXPECT_EQ(bad_args.status().code(), StatusCode::kInvalidArgument);

  // Raw malformed request: not JSON at all.
  Result<std::string> raw = client.Call("this is not json");
  LIPSTICK_ASSERT_OK(raw.status());
  Result<obs::JsonValue> doc = obs::ParseJson(*raw);
  LIPSTICK_ASSERT_OK(doc.status());
  Result<std::string> parsed = service::ResponseToResult(*doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST_F(ServerTest, UnknownNodeIdIsNotFoundLocallyAndRemotely) {
  ServiceClient client = StartAndConnect();
  Result<std::shared_ptr<const LoadedGraph>> loaded = registry_.Get("");
  LIPSTICK_ASSERT_OK(loaded.status());
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"subgraph", {"999999"}},
       {"expr", {"999999"}},
       {"depends", {StrCat(ids_[0]), "999999"}},
       {"zoomout", {"dealer", "|", "delete", "999999", "|", "stats"}}};
  for (const auto& [op, args] : cases) {
    Result<std::string> local = service::ExecuteReadQuery(
        (*loaded)->snapshot, op, args, /*threads=*/1);
    ASSERT_FALSE(local.ok()) << "op=" << op;
    EXPECT_EQ(local.status().code(), StatusCode::kNotFound) << "op=" << op;
    EXPECT_EQ(std::string(local.status().message()),
              "node 999999 is not in the graph");
    Result<std::string> remote = client.Query(op, args);
    ASSERT_FALSE(remote.ok()) << "op=" << op;
    EXPECT_EQ(remote.status().ToString(), local.status().ToString());
  }
}

TEST_F(ServerTest, AdminOps) {
  ServiceClient client = StartAndConnect();
  Result<std::string> pong = client.Query("ping", {});
  LIPSTICK_ASSERT_OK(pong.status());
  EXPECT_EQ(*pong, "pong\n");

  Result<std::string> graphs = client.Query("graphs", {});
  LIPSTICK_ASSERT_OK(graphs.status());
  EXPECT_NE(graphs->find("dealers"), std::string::npos);
  EXPECT_NE(graphs->find("(default)"), std::string::npos);

  Result<std::string> metricz = client.Query("metricz", {});
  LIPSTICK_ASSERT_OK(metricz.status());
  Result<obs::JsonValue> doc = obs::ParseJson(*metricz);
  LIPSTICK_ASSERT_OK(doc.status());
  const obs::JsonValue* svc = doc->Find("service");
  ASSERT_NE(svc, nullptr);
  const obs::JsonValue* reqs = svc->Find("requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_GE(reqs->number(), 2.0);  // ping + graphs at least

  // In-memory graphs cannot reload; the error propagates over the wire.
  Result<std::string> reload = client.Query("reload", {"dealers"});
  ASSERT_FALSE(reload.ok());
  EXPECT_EQ(reload.status().code(), StatusCode::kExecutionError);
}

TEST_F(ServerTest, CacheServesRepeatedViewQueries) {
  ServerOptions options;
  options.cache_entries = 8;
  ServiceClient client = StartAndConnect(options);
  std::string id0 = StrCat(ids_[0]);
  Result<std::string> first = client.Query("subgraph", {id0});
  LIPSTICK_ASSERT_OK(first.status());
  Result<std::string> second = client.Query("subgraph", {id0});
  LIPSTICK_ASSERT_OK(second.status());
  EXPECT_EQ(*first, *second);
  Server::StatsSnapshot stats = server_->Stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
}

TEST_F(ServerTest, EquivalentPlansShareOneCacheEntry) {
  // The response cache keys on canonical plan strings, so syntactically
  // different but equivalent requests hit the same entry.
  ServerOptions options;
  options.cache_entries = 8;
  ServiceClient client = StartAndConnect(options);
  Result<std::string> first =
      client.Query("zoomout", {"dealer", "aggregate"});
  LIPSTICK_ASSERT_OK(first.status());
  Result<std::string> second =
      client.Query("zoomout", {"aggregate", "dealer"});
  LIPSTICK_ASSERT_OK(second.status());
  EXPECT_EQ(*first, *second);
  Server::StatsSnapshot stats = server_->Stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST_F(ServerTest, PipelineQueriesRunThroughThePlanEngine) {
  ServerOptions options;
  options.cache_entries = 8;
  ServiceClient client = StartAndConnect(options);
  Result<std::shared_ptr<const LoadedGraph>> loaded = registry_.Get("");
  LIPSTICK_ASSERT_OK(loaded.status());

  // A pipeline travels whole in the op field and renders identically to a
  // local plan execution.
  const std::string pipeline = "zoomout dealer | stats";
  Result<std::string> local = service::ExecuteReadQuery(
      (*loaded)->snapshot, pipeline, {}, /*threads=*/1);
  LIPSTICK_ASSERT_OK(local.status());
  Result<std::string> remote = client.Query(pipeline, {});
  LIPSTICK_ASSERT_OK(remote.status());
  EXPECT_EQ(*local, *remote);

  // The first pipeline missed the composed-view cache; a second pipeline
  // sharing the zoomout prefix hits it.
  Server::StatsSnapshot before = server_->Stats();
  EXPECT_GE(before.plan_cache_misses, 1u);
  EXPECT_GE(before.plan_cache_entries, 1u);
  Result<std::string> extended =
      client.Query("zoomout dealer | find --label token", {});
  LIPSTICK_ASSERT_OK(extended.status());
  Server::StatsSnapshot after = server_->Stats();
  EXPECT_GE(after.plan_cache_hits, before.plan_cache_hits + 1);
}

TEST_F(ServerTest, MetriczExposesPlanCacheCounters) {
  ServerOptions options;
  options.cache_entries = 8;
  ServiceClient client = StartAndConnect(options);
  Result<std::string> warm = client.Query("zoomout dealer | stats", {});
  LIPSTICK_ASSERT_OK(warm.status());
  Result<std::string> again = client.Query("zoomout dealer | stats", {});
  LIPSTICK_ASSERT_OK(again.status());

  Result<std::string> metricz = client.Query("metricz", {});
  LIPSTICK_ASSERT_OK(metricz.status());
  Result<obs::JsonValue> doc = obs::ParseJson(*metricz);
  LIPSTICK_ASSERT_OK(doc.status());
  const obs::JsonValue* svc = doc->Find("service");
  ASSERT_NE(svc, nullptr);
  const obs::JsonValue* plan_cache = svc->Find("plan_cache");
  ASSERT_NE(plan_cache, nullptr);
  const obs::JsonValue* hits = plan_cache->Find("hits");
  const obs::JsonValue* misses = plan_cache->Find("misses");
  const obs::JsonValue* entries = plan_cache->Find("entries");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(entries, nullptr);
  Server::StatsSnapshot stats = server_->Stats();
  EXPECT_EQ(static_cast<uint64_t>(hits->number()), stats.plan_cache_hits);
  EXPECT_EQ(static_cast<uint64_t>(misses->number()),
            stats.plan_cache_misses);
  EXPECT_EQ(static_cast<uint64_t>(entries->number()),
            stats.plan_cache_entries);
  EXPECT_GE(stats.plan_cache_misses, 1u);
}

TEST(ExplainTest, PlanBuiltQueryExplainsLikeParsedQuery) {
  // Explain renders the optimized plan, not the response-cache key: a
  // ParsedQuery assembled from ParsePlan + OptimizePlan (no cache key)
  // explains exactly like one from ParseQuery.
  ProvenanceGraph graph = BuildDealershipGraph();
  Result<GraphSnapshot> snap = GraphSnapshot::Capture(graph);
  LIPSTICK_ASSERT_OK(snap.status());
  const std::string query = "zoomout dealer | subgraph 3 | stats";
  for (bool json : {false, true}) {
    std::vector<std::string> args;
    if (json) args.push_back("--json");
    Result<service::ParsedQuery> parsed =
        service::ParseQuery(StrCat("explain ", query), args);
    LIPSTICK_ASSERT_OK(parsed.status());
    Result<Plan> plan = ParsePlan(query, {});
    LIPSTICK_ASSERT_OK(plan.status());
    service::ParsedQuery built;
    built.is_explain = true;
    built.explain_json = json;
    built.optimized = OptimizePlan(*plan);

    Result<std::string> from_parse =
        service::ExecuteParsedQuery(*snap, *parsed, 1);
    LIPSTICK_ASSERT_OK(from_parse.status());
    Result<std::string> from_plan =
        service::ExecuteParsedQuery(*snap, built, 1);
    LIPSTICK_ASSERT_OK(from_plan.status());
    EXPECT_EQ(*from_parse, *from_plan);
    EXPECT_NE(from_parse->find("zoomout(dealer)|subgraph(3)|stats"),
              std::string::npos)
        << *from_parse;
  }
}

TEST_F(ServerTest, ExplainRunsRemotely) {
  ServiceClient client = StartAndConnect();
  Result<std::string> text = client.Query("explain", {"stats"});
  LIPSTICK_ASSERT_OK(text.status());
  EXPECT_EQ(text->rfind("plan: stats\n", 0), 0u) << *text;
  EXPECT_NE(text->find("operators:"), std::string::npos);
}

TEST_F(ServerTest, DeadlineExceededUnderInjectedLatency) {
  ServiceClient client = StartAndConnect();
  // A delay-only fault on the execution path makes every query take
  // >=80ms; a 20ms deadline must then fail deterministically.
  FaultInjector::FaultSpec spec;
  spec.point = service::kFaultExec;
  spec.fail = false;
  spec.delay_ms = 80;
  FaultInjector::Global().Arm(spec);
  Result<std::string> slow =
      client.Query("stats", {}, /*graph=*/"", /*deadline_ms=*/20);
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kDeadlineExceeded);
  FaultInjector::Global().Reset();
  // Without the fault the same deadline is plenty.
  LIPSTICK_EXPECT_OK(client.Query("stats", {}, "", 2000).status());
}

TEST_F(ServerTest, AdmissionControlRejectsWhenQueueFull) {
  ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  ServiceClient c1 = StartAndConnect(options);
  Result<ServiceClient> c2 =
      ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
  Result<ServiceClient> c3 =
      ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
  LIPSTICK_ASSERT_OK(c2.status());
  LIPSTICK_ASSERT_OK(c3.status());

  // Every query stalls 300ms in the single worker; with a queue depth of
  // one, the third concurrent request finds worker busy + queue full.
  FaultInjector::FaultSpec spec;
  spec.point = service::kFaultExec;
  spec.fail = false;
  spec.delay_ms = 300;
  FaultInjector::Global().Arm(spec);

  std::thread t1([&c1] { (void)c1.Query("stats", {}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread t2([&c2] { (void)c2->Query("stats", {}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Result<std::string> rejected = c3->Query("stats", {});
  t1.join();
  t2.join();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(server_->Stats().overloaded, 1u);
}

TEST_F(ServerTest, ConcurrentClientsGetConsistentAnswers) {
  ServerOptions options;
  options.workers = 4;
  ServiceClient seed_client = StartAndConnect(options);
  Result<std::string> expected = seed_client.Query("stats", {});
  LIPSTICK_ASSERT_OK(expected.status());

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 10;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &expected, &mismatches, &failures] {
      Result<ServiceClient> client =
          ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        Result<std::string> got = client->Query("stats", {});
        if (!got.ok()) {
          failures.fetch_add(1);
        } else if (*got != *expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server_->Stats().requests,
            static_cast<uint64_t>(kClients * kQueriesEach));
}

TEST_F(ServerTest, HotReloadUnderConcurrentQueries) {
  std::string path = StrCat(::testing::TempDir(), "service_hot_reload.pg");
  {
    ProvenanceGraph graph = BuildDealershipGraph();
    LIPSTICK_ASSERT_OK(SaveGraphToFile(graph, path));
  }
  LIPSTICK_ASSERT_OK(registry_.LoadFile("ondisk", path));
  ServiceClient client = StartAndConnect();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([this, &stop, &failures] {
    Result<ServiceClient> c =
        ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
    if (!c.ok()) {
      failures.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      if (!c->Query("stats", {}, "ondisk").ok()) failures.fetch_add(1);
    }
  });
  for (int i = 0; i < 5; ++i) {
    Result<std::string> reloaded = client.Query("reload", {"ondisk"});
    LIPSTICK_EXPECT_OK(reloaded.status());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  Result<std::shared_ptr<const LoadedGraph>> final_graph =
      registry_.Get("ondisk");
  LIPSTICK_ASSERT_OK(final_graph.status());
  EXPECT_EQ((*final_graph)->epoch, 5u);
  ::unlink(path.c_str());
}

TEST_F(ServerTest, SurvivesInjectedSocketFaults) {
  ServiceClient seed_client = StartAndConnect();
  // Fire read faults with 30% probability process-wide (both sides of the
  // connection consult the same injector); every request must either
  // succeed or fail cleanly, and fresh connections must keep working.
  FaultInjector::FaultSpec spec;
  spec.point = service::kFaultRead;
  spec.probability = 0.3;
  spec.code = StatusCode::kIOError;
  FaultInjector::Global().Arm(spec);
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    Result<ServiceClient> client =
        ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
    if (!client.ok()) continue;
    if (client->Query("ping", {}).ok()) ++successes;
  }
  FaultInjector::Global().Reset();
  EXPECT_GE(successes, 1);
  // The server is still healthy afterwards.
  Result<ServiceClient> after =
      ServiceClient::ConnectHostPort("127.0.0.1", server_->port());
  LIPSTICK_ASSERT_OK(after.status());
  LIPSTICK_EXPECT_OK(after->Query("ping", {}).status());
}

TEST_F(ServerTest, GracefulShutdownDrainsAndRefusesNewWork) {
  ServiceClient client = StartAndConnect();
  LIPSTICK_EXPECT_OK(client.Query("ping", {}).status());
  server_->Shutdown();
  // Existing connection: the read side was shut, requests now fail.
  EXPECT_FALSE(client.Query("ping", {}).ok());
  // New connections are refused outright.
  EXPECT_FALSE(
      ServiceClient::ConnectHostPort("127.0.0.1", server_->port()).ok());
  // Idempotent.
  server_->Shutdown();
}

}  // namespace
}  // namespace lipstick
