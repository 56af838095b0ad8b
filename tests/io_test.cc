#include <gtest/gtest.h>

#include <sstream>

#include "provenance/bytecodec.h"
#include "provenance/provio.h"
#include "relational/csv.h"
#include "test_util.h"
#include "workflow/executor.h"
#include "workflow/wfdsl.h"

namespace lipstick {
namespace {

using ::lipstick::testing::I;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::S;
using ::lipstick::testing::T;

SchemaPtr CarSchema() {
  return MakeSchema({{"CarId", FieldType::Int()},
                     {"Model", FieldType::String()},
                     {"Price", FieldType::Double()},
                     {"Sold", FieldType::Bool()}});
}

TEST(CsvTest, ReadTypedRows) {
  std::istringstream in(
      "CarId,Model,Price,Sold\n"
      "1,Golf,19999.5,false\n"
      "2,Jetta,23000,1\n");
  Result<Bag> bag = ReadCsv(in, *CarSchema());
  LIPSTICK_ASSERT_OK(bag.status());
  ASSERT_EQ(bag->size(), 2u);
  EXPECT_EQ(bag->at(0).tuple.at(0).int_value(), 1);
  EXPECT_EQ(bag->at(0).tuple.at(1).string_value(), "Golf");
  EXPECT_DOUBLE_EQ(bag->at(0).tuple.at(2).double_value(), 19999.5);
  EXPECT_FALSE(bag->at(0).tuple.at(3).bool_value());
  EXPECT_TRUE(bag->at(1).tuple.at(3).bool_value());
}

TEST(CsvTest, QuotingRoundTrip) {
  Relation rel("R",
               MakeSchema({{"a", FieldType::String()},
                           {"b", FieldType::String()}}));
  rel.bag.Add(T({S("with,comma"), S("with \"quotes\"")}));
  rel.bag.Add(T({S("line\nbreak"), S("plain")}));
  std::ostringstream out;
  LIPSTICK_ASSERT_OK(WriteCsv(out, rel));
  std::istringstream in(out.str());
  Result<Bag> bag = ReadCsv(in, *rel.schema);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_TRUE(bag->ContentEquals(rel.bag));
}

TEST(CsvTest, NullHandling) {
  CsvOptions options;
  options.null_text = "NULL";
  std::istringstream in("a\nNULL\n3\n");
  Result<Bag> bag =
      ReadCsv(in, *MakeSchema({{"a", FieldType::Int()}}), options);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_TRUE(bag->at(0).tuple.at(0).is_null());
  EXPECT_EQ(bag->at(1).tuple.at(0).int_value(), 3);
}

TEST(CsvTest, Errors) {
  // Wrong header.
  std::istringstream bad_header("x,y\n1,2\n");
  EXPECT_FALSE(ReadCsv(bad_header, *MakeSchema({{"a", FieldType::Int()},
                                                {"b", FieldType::Int()}}))
                   .ok());
  // Wrong column count.
  std::istringstream bad_cols("a\n1,2\n");
  EXPECT_FALSE(ReadCsv(bad_cols, *MakeSchema({{"a", FieldType::Int()}})).ok());
  // Type error with location.
  std::istringstream bad_type("a\nxyz\n");
  Status st =
      ReadCsv(bad_type, *MakeSchema({{"a", FieldType::Int()}})).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("row 2"), std::string::npos);
  // Nested schema rejected.
  SchemaPtr nested = MakeSchema(
      {{"bag", FieldType::Bag(MakeSchema({{"x", FieldType::Int()}}))}});
  std::istringstream any("bag\n{}\n");
  EXPECT_FALSE(ReadCsv(any, *nested).ok());
}

TEST(CsvTest, CustomDelimiterAndNoHeader) {
  CsvOptions options;
  options.delimiter = '\t';
  options.header = false;
  std::istringstream in("1\tGolf\n2\tJetta\n");
  Result<Bag> bag = ReadCsv(
      in, *MakeSchema({{"id", FieldType::Int()},
                       {"m", FieldType::String()}}),
      options);
  LIPSTICK_ASSERT_OK(bag.status());
  EXPECT_EQ(bag->size(), 2u);
}

constexpr char kDslSource[] = R"WF(
-- two-module workflow used across the DSL tests
module source {
  input Ext(x: int);
  output Out(x: int);
  qout {
    Out = FOREACH Ext GENERATE x;
  }
}

module doubler {
  input In(x: int);
  output Out(y: double);
  qout {
    Out = FOREACH In GENERATE x * 2.0 AS y;
  }
}

node in = source;
node d1 = doubler;
node d2 = doubler as d1_shared;
edge in -> d1 : Out -> In;
edge in -> d2 : Out -> In;
)WF";

TEST(WfDslTest, ParsesModulesNodesEdges) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  EXPECT_EQ(wf->nodes().size(), 3u);
  EXPECT_EQ(wf->edges().size(), 2u);
  LIPSTICK_EXPECT_OK(wf->Validate(nullptr));
  // Instance binding via `as`.
  EXPECT_EQ(wf->FindNode("d2").value()->instance, "d1_shared");
  EXPECT_EQ(wf->FindNode("d1").value()->instance, "d1");
  // Module schemas parsed with types.
  const ModuleSpec* doubler = wf->FindModule("doubler").value();
  EXPECT_EQ(doubler->output_schemas.at("Out")->field(0).type.kind(),
            FieldType::Kind::kDouble);
}

TEST(WfDslTest, ParsedWorkflowExecutes) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  WorkflowExecutor exec(&*wf, nullptr);
  LIPSTICK_ASSERT_OK(exec.Initialize());
  WorkflowInputs inputs;
  Bag ext;
  ext.Add(T({I(21)}));
  inputs["in"]["Ext"] = std::move(ext);
  auto outputs = exec.Execute(inputs, nullptr);
  LIPSTICK_ASSERT_OK(outputs.status());
  EXPECT_DOUBLE_EQ(
      outputs->at("d1").at("Out").bag.at(0).tuple.at(0).double_value(), 42.0);
}

TEST(WfDslTest, RoundTripThroughDsl) {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  LIPSTICK_ASSERT_OK(wf.status());
  std::string dsl = WorkflowToDsl(*wf);
  Result<Workflow> again = ParseWorkflow(dsl);
  LIPSTICK_ASSERT_OK(again.status());
  EXPECT_EQ(again->nodes().size(), wf->nodes().size());
  EXPECT_EQ(again->edges().size(), wf->edges().size());
  LIPSTICK_EXPECT_OK(again->Validate(nullptr));
  // Printing the reparsed workflow reproduces the same DSL (fixpoint).
  EXPECT_EQ(WorkflowToDsl(*again), dsl);
}

TEST(WfDslTest, StateAndQstate) {
  const char* source = R"WF(
module acc {
  input In(x: int);
  state Seen(x: int);
  output Total(t: int);
  qstate { Seen = UNION Seen, In; }
  qout {
    G = GROUP Seen ALL;
    Total = FOREACH G GENERATE SUM(Seen.x) AS t;
  }
}
node a = acc;
)WF";
  Result<Workflow> wf = ParseWorkflow(source);
  LIPSTICK_ASSERT_OK(wf.status());
  LIPSTICK_EXPECT_OK(wf->Validate(nullptr));
  const ModuleSpec* acc = wf->FindModule("acc").value();
  EXPECT_EQ(acc->qstate.statements.size(), 1u);
  EXPECT_EQ(acc->state_schemas.size(), 1u);
}

TEST(WfDslTest, ErrorsCarryLineNumbers) {
  Result<Workflow> bad1 = ParseWorkflow("module m {\n  bogus Foo(x: int);\n}");
  EXPECT_EQ(bad1.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad1.status().message().find("line 2"), std::string::npos);

  EXPECT_FALSE(ParseWorkflow("node a = ;").ok());
  EXPECT_FALSE(ParseWorkflow("edge a b : R;").ok());          // missing ->
  EXPECT_FALSE(ParseWorkflow("module m { input R(x: blob); }").ok());
  EXPECT_FALSE(ParseWorkflow("module m { qout { A = ").ok());  // open block
  // Pig parse errors surface through MakeModule.
  Result<Workflow> bad_pig =
      ParseWorkflow("module m { qout { A = FILTER; } }\nnode n = m;");
  EXPECT_EQ(bad_pig.status().code(), StatusCode::kParseError);
}

TEST(WfDslTest, FileNotFound) {
  EXPECT_EQ(ParseWorkflowFile("/no/such/file.wf").status().code(),
            StatusCode::kIOError);
}

/// ------------------- provio loader robustness ---------------------------
/// The loaders must reject truncated, corrupted, or adversarial input with
/// a Status — never crash, hang, or return a graph with dangling
/// references (the recovery path feeds them checkpoint files that may have
/// been cut short by a crash).

/// A hand-written provio v2 text file (the format before v3; it is still
/// read, no longer written): two shards, percent-escaped strings, every
/// scalar value kind, a dead node and one invocation.
constexpr char kV2Fixture[] =
    "LIPSTICKGRAPH v2\n"
    "shards 2\n"
    "strings 4\n"
    "s dealer\n"
    "s dealer1\n"
    "s tuple%20one\n"
    "s COUNT\n"
    // m-node, "I" token, "i" node ·(token, m) in shard 0.
    "n 281474976710656 8 6 0 1 0 - 1 N\n"
    "n 281474976710657 0 1 0 1 4294967295 - 3 N\n"
    "n 281474976710658 2 2 0 1 0 281474976710657,281474976710656 0 N\n"
    // Shard 1: constants of every scalar kind, an aggregate over three
    // parents, and a dead tensor.
    "n 562949953421312 6 0 1 1 0 - 0 I-42\n"
    "n 562949953421313 6 0 1 1 0 - 0 D2.5\n"
    "n 562949953421314 6 0 1 1 0 - 0 Shello%20world%25\n"
    "n 562949953421315 6 0 1 1 0 - 0 B1\n"
    "n 562949953421316 5 0 1 1 0 "
    "562949953421312,562949953421313,281474976710658 4 I3\n"
    "n 562949953421317 4 0 1 0 0 562949953421312,281474976710658 0 N\n"
    "v 1 2 7 281474976710656 281474976710658 - -\n"
    "end\n";

/// Field-by-field graph equality over every node (alive or dead), the
/// string pool and the invocation records.
void ExpectSameGraph(const ProvenanceGraph& a, const ProvenanceGraph& b) {
  ASSERT_EQ(a.num_shards(), b.num_shards());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.strings().size(), b.strings().size());
  for (StrId i = 0; i < a.strings().size(); ++i) {
    EXPECT_EQ(a.str(i), b.str(i));
  }
  a.ForEachNode([&](NodeId id) {
    NodeView x = a.node(id);
    NodeView y = b.node(id);
    EXPECT_EQ(x.label(), y.label()) << id;
    EXPECT_EQ(x.role(), y.role()) << id;
    EXPECT_EQ(x.alive(), y.alive()) << id;
    EXPECT_EQ(x.is_value_node(), y.is_value_node()) << id;
    EXPECT_EQ(x.invocation(), y.invocation()) << id;
    EXPECT_EQ(x.payload_id(), y.payload_id()) << id;
    EXPECT_EQ(testing::ToVec(x.parents()), testing::ToVec(y.parents())) << id;
    EXPECT_EQ(x.value(), y.value()) << id;
  });
  ASSERT_EQ(a.invocations().size(), b.invocations().size());
  for (size_t i = 0; i < a.invocations().size(); ++i) {
    const InvocationInfo& x = a.invocations()[i];
    const InvocationInfo& y = b.invocations()[i];
    EXPECT_EQ(x.module_name, y.module_name);
    EXPECT_EQ(x.instance_name, y.instance_name);
    EXPECT_EQ(x.execution, y.execution);
    EXPECT_EQ(x.m_node, y.m_node);
    EXPECT_EQ(x.input_nodes, y.input_nodes);
    EXPECT_EQ(x.output_nodes, y.output_nodes);
    EXPECT_EQ(x.state_nodes, y.state_nodes);
  }
}

/// Builds a tracked provenance dump of a few KiB by running the DSL
/// workflow several times with provenance on.
std::string TrackedGraphDump() {
  Result<Workflow> wf = ParseWorkflow(kDslSource);
  EXPECT_TRUE(wf.ok()) << wf.status().ToString();
  WorkflowExecutor exec(&*wf, nullptr);
  EXPECT_TRUE(exec.Initialize().ok());
  ProvenanceGraph graph;
  for (int e = 0; e < 8; ++e) {
    WorkflowInputs inputs;
    Bag ext;
    for (int i = 0; i < 6; ++i) ext.Add(T({I(e * 10 + i)}));
    inputs["in"]["Ext"] = std::move(ext);
    auto outputs = exec.Execute(inputs, &graph);
    EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
  }
  graph.Seal();
  std::ostringstream out;
  EXPECT_TRUE(SaveGraph(graph, out).ok());
  return out.str();
}

TEST(ProvioRobustnessTest, TruncationSweepAlwaysReturnsStatus) {
  std::string full = TrackedGraphDump();
  ASSERT_GT(full.size(), 4096u) << "dump too small for a meaningful sweep";

  // The intact dump loads.
  {
    std::istringstream in(full);
    LIPSTICK_EXPECT_OK(LoadGraph(in).status());
  }
  // Every proper prefix must be rejected: the cut lands in the header
  // line, a section frame (length + CRC), or a section body, and the
  // invocations section is always last. Never a crash, never a silently
  // short graph.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    Status st = LoadGraph(in).status();
    EXPECT_EQ(st.code(), StatusCode::kParseError)
        << "prefix of " << cut << " bytes: " << st.ToString();
  }
}

TEST(ProvioRobustnessTest, ByteFlipSweepAlwaysReturnsParseError) {
  std::string full = TrackedGraphDump();
  // A flipped byte lands in the header line (bad or unsupported header),
  // a section frame (wrong length or CRC), or a section body (caught by
  // its CRC32, which detects every error burst of up to 32 bits).
  for (size_t at = 0; at < full.size(); ++at) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xff}}) {
      std::string bad = full;
      bad[at] = static_cast<char>(bad[at] ^ mask);
      std::istringstream in(bad);
      Status st = LoadGraph(in).status();
      EXPECT_EQ(st.code(), StatusCode::kParseError)
          << "byte " << at << " ^ " << int{mask} << ": " << st.ToString();
    }
  }
}

TEST(ProvioRobustnessTest, Crc32MatchesTheStandardCheckValues) {
  EXPECT_EQ(bytecodec::Crc32("123456789"), 0xcbf43926u);
  std::string pattern;
  for (int i = 0; i < 1000; ++i) {
    pattern.push_back(static_cast<char>(i * 37 + 11));
  }
  EXPECT_EQ(bytecodec::Crc32(pattern), 0xc3905a1du);  // zlib.crc32
  EXPECT_EQ(bytecodec::Crc32(std::string_view(pattern).substr(0, 17)),
            0xcdfc844au);
}

TEST(ProvioRobustnessTest, GarbageHeadersRejected) {
  for (const char* garbage :
       {"", "LIPSTICKGRAPH v9\nshards 1\nend\n", "\x7f\x45\x4c\x46\x02\x01",
        "totally not a graph\n", "LIPSTICKGRAPH v2"}) {
    std::istringstream in(garbage);
    EXPECT_FALSE(LoadGraph(in).ok()) << "accepted: " << garbage;
  }
}

TEST(ProvioRobustnessTest, OversizedCountsRejectedWithoutAllocating) {
  // Absurd shard count: rejected up front (a real graph never has more
  // shards than worker threads).
  std::istringstream shards("LIPSTICKGRAPH v2\nshards 4294967295\nend\n");
  EXPECT_FALSE(LoadGraph(shards).ok());
  // Huge declared string count with no actual strings: the reserve is
  // clamped, and the missing records surface as a truncation error rather
  // than an allocation of 4 billion entries.
  std::istringstream strings(
      "LIPSTICKGRAPH v2\nshards 1\nstrings 4000000000\n");
  EXPECT_FALSE(LoadGraph(strings).ok());
}

TEST(ProvioRobustnessTest, MissingEndMarkerRejected) {
  std::string full = kV2Fixture;
  size_t end_at = full.rfind("end\n");
  ASSERT_NE(end_at, std::string::npos);
  std::istringstream in(full.substr(0, end_at));
  Status st = LoadGraph(in).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("end marker"), std::string::npos);
}

TEST(ProvioRobustnessTest, V3OversizedCountsRejectedWithoutAllocating) {
  // Well-framed v3 files (valid lengths and CRCs) whose counts claim far
  // more entries than their sections hold: each is rejected by comparing
  // the count with the section's bytes, before anything is reserved.
  auto section = [](const std::string& body) {
    std::string out;
    bytecodec::PutU32(&out, static_cast<uint32_t>(body.size()));
    bytecodec::PutU32(&out, bytecodec::Crc32(body));
    return out + body;
  };
  auto u32 = [](uint32_t v) {
    std::string out;
    bytecodec::PutU32(&out, v);
    return out;
  };
  auto u64 = [](uint64_t v) {
    std::string out;
    bytecodec::PutU64(&out, v);
    return out;
  };
  const std::string header = "LIPSTICKGRAPH v3\n";
  const std::string one_shard = section(u32(1));
  const std::string no_strings = section(u32(0));
  const std::string empty_shard = section(u64(0) + u64(0) + u64(0));
  const std::string no_invocations = section(u32(0));
  auto expect_rejected = [](const std::string& file, const char* why) {
    std::istringstream in(file);
    Status st = LoadGraph(in).status();
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
    EXPECT_NE(st.message().find(why), std::string::npos) << st.ToString();
  };

  // The minimal well-formed file loads: the cases below differ from it in
  // one count only.
  {
    std::istringstream in(header + one_shard + no_strings + empty_shard +
                          no_invocations);
    LIPSTICK_EXPECT_OK(LoadGraph(in).status());
  }
  // Shard counts: beyond the id space, and 65535 shards in a file with
  // room for none of their sections (no 65535 shard columns get built).
  expect_rejected(header + section(u32(4294967295u)) + no_strings +
                      empty_shard + no_invocations,
                  "bad shard count");
  expect_rejected(header + section(u32(65535)) + no_strings + empty_shard +
                      no_invocations,
                  "bad shard count");
  // 4 billion strings in a 4-byte section.
  expect_rejected(header + one_shard + section(u32(4000000000u)) +
                      empty_shard + no_invocations,
                  "string count");
  // 2^40 nodes, then 2^40 parent ids and values, in empty shards.
  expect_rejected(header + one_shard + no_strings +
                      section(u64(1ull << 40) + u64(0) + u64(0)) +
                      no_invocations,
                  "node count");
  expect_rejected(header + one_shard + no_strings +
                      section(u64(0) + u64(1ull << 40) + u64(0)) +
                      no_invocations,
                  "parent id count");
  expect_rejected(header + one_shard + no_strings +
                      section(u64(0) + u64(0) + u64(1ull << 40)) +
                      no_invocations,
                  "value count");
  // 4 billion invocations, then one invocation whose input list claims
  // 4 billion node ids.
  expect_rejected(header + one_shard + no_strings + empty_shard +
                      section(u32(4000000000u)),
                  "invocation count");
  expect_rejected(header + one_shard + no_strings + empty_shard +
                      section(u32(1) + u32(0) + u32(0) + u32(0) + u64(0) +
                              u32(4000000000u) + u32(0) + u32(0)),
                  "node id count");
}

TEST(ProvioRobustnessTest, V2TextFixtureLoadsAndResavesAsV3) {
  std::istringstream v2(kV2Fixture);
  Result<ProvenanceGraph> old_format = LoadGraph(v2);
  LIPSTICK_ASSERT_OK(old_format.status());
  ASSERT_EQ(old_format->num_shards(), 2u);
  ASSERT_EQ(old_format->num_nodes(), 9u);
  EXPECT_EQ(old_format->node(MakeNodeId(0, 1)).payload(), "tuple one");
  EXPECT_EQ(old_format->node(MakeNodeId(1, 0)).value(), Value::Int(-42));
  EXPECT_EQ(old_format->node(MakeNodeId(1, 1)).value(), Value::Double(2.5));
  EXPECT_EQ(old_format->node(MakeNodeId(1, 2)).value(),
            Value::String("hello world%"));
  EXPECT_EQ(old_format->node(MakeNodeId(1, 3)).value(), Value::Bool(true));
  EXPECT_EQ(old_format->node(MakeNodeId(1, 4)).num_parents(), 3u);
  EXPECT_FALSE(old_format->Contains(MakeNodeId(1, 5)));
  ASSERT_EQ(old_format->invocations().size(), 1u);
  EXPECT_EQ(old_format->str(old_format->invocations()[0].instance_name),
            "dealer1");

  // Re-saved, it is a v3 file that loads back to an equal graph, and
  // saving that again is byte-identical.
  std::ostringstream v3;
  LIPSTICK_ASSERT_OK(SaveGraph(*old_format, v3));
  ASSERT_EQ(v3.str().rfind("LIPSTICKGRAPH v3\n", 0), 0u);
  std::istringstream in(v3.str());
  Result<ProvenanceGraph> new_format = LoadGraph(in);
  LIPSTICK_ASSERT_OK(new_format.status());
  ExpectSameGraph(*old_format, *new_format);
  std::ostringstream again;
  LIPSTICK_ASSERT_OK(SaveGraph(*new_format, again));
  EXPECT_EQ(v3.str(), again.str());
}

TEST(ProvioRobustnessTest, DanglingReferencesRejected) {
  // Node whose parent list names a node that is never defined.
  std::istringstream dangling_parent(
      "LIPSTICKGRAPH v2\n"
      "shards 1\n"
      "strings 1\n"
      "s tok\n"
      "n 281474976710656 0 0 0 1 4294967295 281474976710657 1 N\n"
      "end\n");
  Status st = LoadGraph(dangling_parent).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("undefined parent"), std::string::npos);

  // Alive node tagged with an invocation that was never recorded.
  std::istringstream dangling_invocation(
      "LIPSTICKGRAPH v2\n"
      "shards 1\n"
      "strings 1\n"
      "s tok\n"
      "n 281474976710656 0 0 0 1 7 - 1 N\n"
      "end\n");
  st = LoadGraph(dangling_invocation).status();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("undefined invocation"), std::string::npos);
}

TEST(ProvioRobustnessTest, MalformedRecordsRejected) {
  // Non-numeric id inside a parents list.
  std::istringstream bad_ids(
      "LIPSTICKGRAPH v2\nshards 1\nstrings 1\ns tok\n"
      "n 281474976710656 0 0 0 1 4294967295 12,abc 1 N\nend\n");
  EXPECT_FALSE(LoadGraph(bad_ids).ok());
  // Out-of-range label.
  std::istringstream bad_label(
      "LIPSTICKGRAPH v2\nshards 1\nstrings 1\ns tok\n"
      "n 281474976710656 99 0 0 1 4294967295 - 1 N\nend\n");
  EXPECT_FALSE(LoadGraph(bad_label).ok());
  // Unknown record tag.
  std::istringstream bad_tag(
      "LIPSTICKGRAPH v2\nshards 1\nstrings 0\nq what\nend\n");
  EXPECT_FALSE(LoadGraph(bad_tag).ok());
}

TEST(ProvioRobustnessTest, DirectoryPathRejectedWithOneLineError) {
  Result<ProvenanceGraph> r = LoadGraphFromFile("/tmp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("directory"), std::string::npos);
}

}  // namespace
}  // namespace lipstick
