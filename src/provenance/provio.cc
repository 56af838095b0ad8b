#include "provenance/provio.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/str_util.h"
#include "provenance/bytecodec.h"

namespace lipstick {

namespace {

using bytecodec::Cursor;
using bytecodec::PutU32;
using bytecodec::PutU64;
using bytecodec::PutU8;

/// Hard ceiling on the self-described shard count: NodeIds carry a 16-bit
/// shard field, so more than 65535 shards cannot round-trip anyway.
constexpr size_t kMaxShards = 65535;

constexpr std::string_view kMagic = "LIPSTICKGRAPH ";
constexpr std::string_view kHeaderV2 = "LIPSTICKGRAPH v2";
constexpr std::string_view kHeaderV3 = "LIPSTICKGRAPH v3";

/// v3 framing and the smallest encodings its decoder accepts; every
/// declared count is checked against these times the bytes its section
/// holds before anything is reserved.
constexpr size_t kSectionFrameBytes = 8;  // u32 body length, u32 CRC32
constexpr size_t kNodeColumnBytes = 3 + 3 * 4;  // 3 x u8, 3 x u32 per node
constexpr size_t kMinShardBodyBytes = 3 * 8;    // node/parent/value counts
constexpr size_t kMinValueBytes = 8 + 1;        // u64 index, tag byte
constexpr size_t kMinInvocationBytes = 3 * 4 + 8 + 3 * 4;
constexpr uint8_t kKnownFlags =
    internal::kAliveFlag | internal::kValueNodeFlag;

/// Referential-integrity post-pass shared by both loaders: every parent
/// edge and invocation structural reference must name a node the file
/// actually defined, and alive nodes may only cite surviving invocation
/// records (dead nodes legitimately outlive their rolled-back records).
/// Catches truncated or hand-edited files whose records parse fine
/// individually but dangle collectively.
Status CheckLoadedRefs(const ProvenanceGraph& graph) {
  Status bad;
  graph.ForEachNode([&](NodeId id) {
    if (!bad.ok()) return;
    for (NodeId parent : graph.ParentsOf(id)) {
      if (!graph.InGraph(parent)) {
        bad = Status::ParseError(
            StrCat("node ", id, " references undefined parent ", parent));
        return;
      }
    }
    NodeView n = graph.node(id);
    if (n.alive() && n.invocation() != kNoInvocation &&
        n.invocation() >= graph.invocations().size()) {
      bad = Status::ParseError(
          StrCat("alive node ", id, " references undefined invocation ",
                 n.invocation()));
    }
  });
  LIPSTICK_RETURN_IF_ERROR(bad);
  for (size_t i = 0; i < graph.invocations().size(); ++i) {
    const InvocationInfo& inv = graph.invocations()[i];
    if (inv.m_node != kInvalidNode && !graph.InGraph(inv.m_node)) {
      return Status::ParseError(
          StrCat("invocation ", i, " references undefined m-node ",
                 inv.m_node));
    }
    for (const std::vector<NodeId>* nodes :
         {&inv.input_nodes, &inv.output_nodes, &inv.state_nodes}) {
      for (NodeId id : *nodes) {
        if (!graph.InGraph(id)) {
          return Status::ParseError(
              StrCat("invocation ", i, " references undefined node ", id));
        }
      }
    }
  }
  return Status::OK();
}

// Maps string indices of the file's strings table to the loading graph's
// pool. Index 0 is the implicit empty string.
struct StringTable {
  std::vector<StrId> ids{kEmptyStr};

  Result<StrId> Resolve(uint32_t file_idx) const {
    if (file_idx >= ids.size()) {
      return Status::ParseError(StrCat("string index out of range: ",
                                       file_idx));
    }
    return ids[file_idx];
  }
};

/// ------------------------------------------------------------------
/// v3 writer
/// ------------------------------------------------------------------

/// Starts a section: a u32 length and u32 CRC placeholder, patched by
/// EndSection once the body is written. Returns the frame's offset.
size_t BeginSection(std::string* out) {
  size_t at = out->size();
  PutU64(out, 0);
  return at;
}

Status EndSection(std::string* out, size_t at) {
  size_t body_at = at + kSectionFrameBytes;
  size_t len = out->size() - body_at;
  if (len > UINT32_MAX) {
    return Status::InvalidArgument(
        StrCat("graph section of ", len, " bytes exceeds the 4 GiB limit"));
  }
  bytecodec::PatchU32(out, at, static_cast<uint32_t>(len));
  bytecodec::PatchU32(out, at + 4,
                      bytecodec::Crc32(out->data() + body_at, len));
  return Status::OK();
}

/// v-node values the format stores: scalars. A null or nested value is
/// simply absent, which loads back as NullValue().
bool StoresValue(const Value& v) {
  return v.is_bool() || v.is_int() || v.is_double() || v.is_string();
}

Status EncodeShard(const ProvenanceGraph& graph, uint32_t s,
                   std::string* out) {
  const size_t n = graph.ShardSize(s);
  auto node = [&](size_t i) { return graph.node(MakeNodeId(s, i)); };
  size_t at = BeginSection(out);
  PutU64(out, n);
  for (size_t i = 0; i < n; ++i) {
    PutU8(out, static_cast<uint8_t>(node(i).label()));
  }
  for (size_t i = 0; i < n; ++i) {
    PutU8(out, static_cast<uint8_t>(node(i).role()));
  }
  for (size_t i = 0; i < n; ++i) {
    NodeView v = node(i);
    PutU8(out, static_cast<uint8_t>(
                   (v.alive() ? internal::kAliveFlag : 0) |
                   (v.is_value_node() ? internal::kValueNodeFlag : 0)));
  }
  for (size_t i = 0; i < n; ++i) PutU32(out, node(i).invocation());
  for (size_t i = 0; i < n; ++i) PutU32(out, node(i).payload_id());
  uint64_t num_ids = 0;
  uint64_t num_values = 0;
  for (size_t i = 0; i < n; ++i) {
    NodeView v = node(i);
    PutU32(out, static_cast<uint32_t>(v.num_parents()));
    num_ids += v.num_parents();
    num_values += StoresValue(v.value()) ? 1 : 0;
  }
  PutU64(out, num_ids);
  for (size_t i = 0; i < n; ++i) {
    for (NodeId p : node(i).parents()) PutU64(out, p);
  }
  PutU64(out, num_values);
  for (size_t i = 0; i < n; ++i) {
    const Value& value = node(i).value();
    if (!StoresValue(value)) continue;
    PutU64(out, i);
    bytecodec::EncodeValue(out, value);
  }
  return EndSection(out, at);
}

void PutIdList(std::string* out, const std::vector<NodeId>& ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (NodeId id : ids) PutU64(out, id);
}

Result<std::string> EncodeGraph(const ProvenanceGraph& graph) {
  // Trailing shards that never received a node are not written: they are
  // invisible to every reader, and a graph recovered from its log (which
  // records appends, not shard creation) must re-save identically.
  uint32_t num_shards = graph.num_shards();
  while (num_shards > 1 && graph.ShardSize(num_shards - 1) == 0) {
    --num_shards;
  }
  std::string out(kHeaderV3);
  out.push_back('\n');

  size_t at = BeginSection(&out);
  PutU32(&out, num_shards);
  LIPSTICK_RETURN_IF_ERROR(EndSection(&out, at));

  // The graph's interner ids are dense, so the table is the pool in id
  // order and every StrId is its own table index (a replayed log's intern
  // records then line up with the loaded pool).
  const StringPool& pool = graph.strings();
  at = BeginSection(&out);
  PutU32(&out, static_cast<uint32_t>(pool.size() - 1));
  for (StrId i = 1; i < pool.size(); ++i) {
    std::string_view s = pool.Get(i);
    PutU32(&out, static_cast<uint32_t>(s.size()));
    out.append(s);
  }
  LIPSTICK_RETURN_IF_ERROR(EndSection(&out, at));

  for (uint32_t s = 0; s < num_shards; ++s) {
    LIPSTICK_RETURN_IF_ERROR(EncodeShard(graph, s, &out));
  }

  at = BeginSection(&out);
  PutU32(&out, static_cast<uint32_t>(graph.invocations().size()));
  for (const InvocationInfo& inv : graph.invocations()) {
    PutU32(&out, inv.module_name);
    PutU32(&out, inv.instance_name);
    PutU32(&out, inv.execution);
    PutU64(&out, inv.m_node);
    PutIdList(&out, inv.input_nodes);
    PutIdList(&out, inv.output_nodes);
    PutIdList(&out, inv.state_nodes);
  }
  LIPSTICK_RETURN_IF_ERROR(EndSection(&out, at));
  return out;
}

/// ------------------------------------------------------------------
/// v3 reader
/// ------------------------------------------------------------------

/// Frames the next section: its length must fit the bytes left and its
/// body must match its CRC.
Result<std::string_view> NextSection(Cursor* file, std::string_view what) {
  uint32_t len = file->U32();
  uint32_t crc = file->U32();
  std::string_view body = file->Bytes(len);
  if (!file->ok) {
    return Status::ParseError(
        StrCat("truncated graph file: ", what, " section cut short"));
  }
  if (bytecodec::Crc32(body) != crc) {
    return Status::ParseError(
        StrCat("corrupt graph file: ", what, " section fails its CRC"));
  }
  return body;
}

/// A section decoder must consume its body exactly.
Status SectionEnd(const Cursor& c, std::string_view what) {
  if (!c.ok) {
    return Status::ParseError(
        StrCat(what, " section is shorter than its counts"));
  }
  if (!c.AtEnd()) {
    return Status::ParseError(StrCat(what, " section has trailing bytes"));
  }
  return Status::OK();
}

Status CountTooLarge(std::string_view what, uint64_t count) {
  return Status::ParseError(
      StrCat(what, " count ", count, " exceeds the bytes of its section"));
}

Status DecodeStrings(std::string_view body, ProvenanceGraph* graph,
                     StringTable* table) {
  Cursor c(body);
  uint32_t n = c.U32();
  if (n > c.remaining() / 4) return CountTooLarge("string", n);
  table->ids.reserve(size_t{n} + 1);
  for (uint32_t i = 0; i < n && c.ok; ++i) {
    std::string_view s = c.Bytes(c.U32());
    if (c.ok) table->ids.push_back(graph->InternString(s));
  }
  return SectionEnd(c, "strings");
}

Status DecodeShard(std::string_view body, uint32_t s,
                   const StringTable& strings, ProvenanceGraph* graph,
                   ShardWriter writer) {
  Cursor c(body);
  uint64_t n = c.U64();
  if (n > c.remaining() / kNodeColumnBytes) return CountTooLarge("node", n);
  Cursor labels(c.Bytes(n));
  Cursor roles(c.Bytes(n));
  Cursor flags(c.Bytes(n));
  Cursor invocations(c.Bytes(4 * n));
  Cursor payloads(c.Bytes(4 * n));
  Cursor counts(c.Bytes(4 * n));
  uint64_t num_ids = c.U64();
  if (num_ids > c.remaining() / 8) return CountTooLarge("parent id", num_ids);
  Cursor ids(c.Bytes(8 * num_ids));
  uint64_t num_values = c.U64();
  if (!c.ok) return SectionEnd(c, "shard");
  if (num_values > c.remaining() / kMinValueBytes) {
    return CountTooLarge("value", num_values);
  }
  // The parent counts must partition the id column exactly.
  uint64_t total = 0;
  uint64_t arena = 0;
  for (Cursor k = counts; !k.AtEnd();) {
    uint32_t count = k.U32();
    total += count;
    if (count > internal::kInlineParents) arena += count;
  }
  if (total != num_ids) {
    return Status::ParseError(StrCat("shard ", s, " parent counts sum to ",
                                     total, ", not ", num_ids));
  }
  writer.Reserve(n, arena, num_values);
  std::vector<NodeId> parents;
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t label = labels.U8();
    uint8_t role = roles.U8();
    uint8_t flag = flags.U8();
    uint32_t invocation = invocations.U32();
    uint32_t payload_idx = payloads.U32();
    uint32_t count = counts.U32();
    if (label > static_cast<uint8_t>(NodeLabel::kZoomedModule) ||
        role > static_cast<uint8_t>(NodeRole::kZoom) ||
        (flag & ~kKnownFlags) != 0) {
      return Status::ParseError(StrCat("node ", MakeNodeId(s, i),
                                       " has out-of-range label/role/flags"));
    }
    if (payload_idx >= strings.ids.size()) {
      return strings.Resolve(payload_idx).status();
    }
    parents.clear();
    for (uint32_t k = 0; k < count; ++k) parents.push_back(ids.U64());
    writer.AppendRaw(static_cast<NodeLabel>(label),
                     static_cast<NodeRole>(role), flag, invocation,
                     strings.ids[payload_idx], parents);
  }
  // Sparse values: strictly increasing node indices, scalars only.
  uint64_t next = 0;
  for (uint64_t v = 0; v < num_values && c.ok; ++v) {
    uint64_t i = c.U64();
    if (!c.ok) break;
    if (i < next || i >= n) {
      return Status::ParseError(
          StrCat("shard ", s, " value for node index ", i, " out of order"));
    }
    next = i + 1;
    LIPSTICK_ASSIGN_OR_RETURN(Value value, bytecodec::DecodeValue(&c));
    if (c.ok && value.is_null()) {
      return Status::ParseError(StrCat("node ", MakeNodeId(s, i),
                                       " stores a null value"));
    }
    if (c.ok) graph->SetNodeValue(MakeNodeId(s, i), std::move(value));
  }
  return SectionEnd(c, "shard");
}

Status GetIdList(Cursor* c, std::vector<NodeId>* out) {
  uint32_t n = c->U32();
  if (n > c->remaining() / 8) return CountTooLarge("node id", n);
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) out->push_back(c->U64());
  return Status::OK();
}

Status DecodeInvocations(std::string_view body, const StringTable& strings,
                         ProvenanceGraph* graph) {
  Cursor c(body);
  uint32_t n = c.U32();
  if (n > c.remaining() / kMinInvocationBytes) {
    return CountTooLarge("invocation", n);
  }
  for (uint32_t i = 0; i < n; ++i) {
    InvocationInfo info;
    LIPSTICK_ASSIGN_OR_RETURN(info.module_name, strings.Resolve(c.U32()));
    LIPSTICK_ASSIGN_OR_RETURN(info.instance_name, strings.Resolve(c.U32()));
    info.execution = c.U32();
    info.m_node = c.U64();
    LIPSTICK_RETURN_IF_ERROR(GetIdList(&c, &info.input_nodes));
    LIPSTICK_RETURN_IF_ERROR(GetIdList(&c, &info.output_nodes));
    LIPSTICK_RETURN_IF_ERROR(GetIdList(&c, &info.state_nodes));
    graph->RestoreInvocation(std::move(info));
  }
  return SectionEnd(c, "invocations");
}

Result<ProvenanceGraph> DecodeGraph(std::string_view data) {
  // Every section is framed and CRC-checked before any is decoded, so a
  // torn or corrupt file is rejected before a graph is built.
  Cursor file(data);
  LIPSTICK_ASSIGN_OR_RETURN(std::string_view layout,
                            NextSection(&file, "layout"));
  Cursor lc(layout);
  uint32_t num_shards = lc.U32();
  LIPSTICK_RETURN_IF_ERROR(SectionEnd(lc, "layout"));
  if (num_shards == 0 || num_shards > kMaxShards ||
      num_shards > file.remaining() /
                       (kSectionFrameBytes + kMinShardBodyBytes)) {
    return Status::ParseError(StrCat("bad shard count ", num_shards));
  }
  LIPSTICK_ASSIGN_OR_RETURN(std::string_view strings_body,
                            NextSection(&file, "strings"));
  std::vector<std::string_view> shard_bodies(num_shards);
  for (std::string_view& body : shard_bodies) {
    LIPSTICK_ASSIGN_OR_RETURN(body, NextSection(&file, "shard"));
  }
  LIPSTICK_ASSIGN_OR_RETURN(std::string_view invocations_body,
                            NextSection(&file, "invocations"));
  if (!file.AtEnd()) {
    return Status::ParseError("trailing bytes after the invocations section");
  }

  ProvenanceGraph graph;
  StringTable strings;
  LIPSTICK_RETURN_IF_ERROR(DecodeStrings(strings_body, &graph, &strings));
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardWriter writer = s == 0 ? graph.writer() : graph.AddShard();
    LIPSTICK_RETURN_IF_ERROR(
        DecodeShard(shard_bodies[s], s, strings, &graph, writer));
  }
  LIPSTICK_RETURN_IF_ERROR(
      DecodeInvocations(invocations_body, strings, &graph));
  LIPSTICK_RETURN_IF_ERROR(CheckLoadedRefs(graph));
  return graph;
}

/// ------------------------------------------------------------------
/// v2 reader (percent-escaped text; no writer left)
/// ------------------------------------------------------------------

/// The v2 strings count is a reserve hint only (the loop reads exactly
/// what the file holds), clamped so a garbage count cannot allocate.
constexpr size_t kMaxStringReserve = 1u << 20;

Result<std::string> Unescape(const std::string& s) {
  if (s == "%00") return std::string();
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return Status::ParseError("truncated escape");
      int hi = std::isxdigit(static_cast<unsigned char>(s[i + 1]))
                   ? std::stoi(s.substr(i + 1, 2), nullptr, 16)
                   : -1;
      if (hi < 0) return Status::ParseError("bad escape");
      out += static_cast<char>(hi);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

Result<Value> DecodeTextValue(const std::string& s) {
  if (s.empty()) return Status::ParseError("empty value");
  switch (s[0]) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(s == "B1");
    case 'I':
      return Value::Int(std::strtoll(s.c_str() + 1, nullptr, 10));
    case 'D':
      return Value::Double(std::strtod(s.c_str() + 1, nullptr));
    case 'S': {
      LIPSTICK_ASSIGN_OR_RETURN(std::string str, Unescape(s.substr(1)));
      return Value::String(std::move(str));
    }
    default:
      return Status::ParseError(StrCat("bad value encoding: ", s));
  }
}

Result<std::vector<NodeId>> DecodeIdList(const std::string& s) {
  std::vector<NodeId> out;
  if (s == "-") return out;
  for (const std::string& part : Split(s, ',')) {
    if (part.empty()) return Status::ParseError("empty id in list");
    char* end = nullptr;
    errno = 0;
    NodeId id = std::strtoull(part.c_str(), &end, 10);
    if (end != part.c_str() + part.size() || errno == ERANGE) {
      return Status::ParseError(StrCat("bad id in list: '", part, "'"));
    }
    out.push_back(id);
  }
  return out;
}

Result<ProvenanceGraph> LoadGraphV2(std::istream& is) {
  std::string tag;
  size_t num_shards = 0;
  if (!(is >> tag >> num_shards) || tag != "shards" || num_shards == 0 ||
      num_shards > kMaxShards) {
    return Status::ParseError("bad shard count");
  }
  size_t num_strings = 0;
  if (!(is >> tag >> num_strings) || tag != "strings") {
    return Status::ParseError("bad strings count");
  }

  ProvenanceGraph graph;
  StringTable strings;
  strings.ids.reserve(std::min(num_strings, kMaxStringReserve) + 1);
  for (size_t i = 0; i < num_strings; ++i) {
    std::string raw;
    if (!(is >> tag >> raw) || tag != "s") {
      return Status::ParseError("bad string record");
    }
    LIPSTICK_ASSIGN_OR_RETURN(std::string str, Unescape(raw));
    strings.ids.push_back(graph.InternString(str));
  }

  std::vector<ShardWriter> writers;
  writers.push_back(graph.writer());
  for (size_t s = 1; s < num_shards; ++s) writers.push_back(graph.AddShard());

  while (is >> tag) {
    if (tag == "end") break;
    if (tag == "n") {
      NodeId id;
      int label, role, vflag, alive;
      uint32_t invocation, payload_idx;
      std::string parents_s, value_s;
      if (!(is >> id >> label >> role >> vflag >> alive >> invocation >>
            parents_s >> payload_idx >> value_s)) {
        return Status::ParseError("bad node record");
      }
      if (label < 0 || label > static_cast<int>(NodeLabel::kZoomedModule) ||
          role < 0 || role > static_cast<int>(NodeRole::kZoom)) {
        return Status::ParseError(
            StrCat("node ", id, " has out-of-range label/role"));
      }
      NodeRecord rec;
      rec.label = static_cast<NodeLabel>(label);
      rec.role = static_cast<NodeRole>(role);
      rec.is_value_node = vflag != 0;
      rec.alive = alive != 0;
      rec.invocation = invocation;
      LIPSTICK_ASSIGN_OR_RETURN(rec.parents, DecodeIdList(parents_s));
      LIPSTICK_ASSIGN_OR_RETURN(StrId payload, strings.Resolve(payload_idx));
      rec.payload = std::string(graph.str(payload));
      LIPSTICK_ASSIGN_OR_RETURN(rec.value, DecodeTextValue(value_s));
      uint32_t shard = NodeShard(id);
      if (shard >= writers.size()) {
        return Status::ParseError("node references unknown shard");
      }
      // Nodes must arrive in id order within each shard.
      NodeId got = writers[shard].Restore(rec);
      if (got != id) {
        return Status::ParseError(
            StrCat("node id mismatch: expected ", id, " got ", got));
      }
    } else if (tag == "v") {
      uint32_t module_idx, instance_idx, execution;
      NodeId m_node;
      std::string in_s, out_s, state_s;
      if (!(is >> module_idx >> instance_idx >> execution >> m_node >> in_s >>
            out_s >> state_s)) {
        return Status::ParseError("bad invocation record");
      }
      InvocationInfo info;
      LIPSTICK_ASSIGN_OR_RETURN(info.module_name,
                                strings.Resolve(module_idx));
      LIPSTICK_ASSIGN_OR_RETURN(info.instance_name,
                                strings.Resolve(instance_idx));
      info.execution = execution;
      info.m_node = m_node;
      LIPSTICK_ASSIGN_OR_RETURN(info.input_nodes, DecodeIdList(in_s));
      LIPSTICK_ASSIGN_OR_RETURN(info.output_nodes, DecodeIdList(out_s));
      LIPSTICK_ASSIGN_OR_RETURN(info.state_nodes, DecodeIdList(state_s));
      graph.RestoreInvocation(std::move(info));
    } else {
      return Status::ParseError(StrCat("unknown record tag: ", tag));
    }
  }
  if (tag != "end") {
    return Status::ParseError("truncated graph file: missing end marker");
  }
  LIPSTICK_RETURN_IF_ERROR(CheckLoadedRefs(graph));
  return graph;
}

/// Dispatches on the header line: v3 decodes in place, v2 parses text.
Result<ProvenanceGraph> LoadGraphBytes(std::string_view data) {
  size_t eol = data.find('\n');
  std::string_view header = data.substr(0, eol);
  std::string_view rest =
      eol == std::string_view::npos ? std::string_view() : data.substr(eol + 1);
  if (header == kHeaderV3) return DecodeGraph(rest);
  if (header == kHeaderV2) {
    std::istringstream is{std::string(rest)};
    return LoadGraphV2(is);
  }
  // Earlier versions (v1 wrote names inline per record) have no reader
  // left; they are rejected like any other unknown version.
  if (header.substr(0, kMagic.size()) == kMagic) {
    return Status::ParseError(
        StrCat("unsupported graph file version '",
               header.substr(kMagic.size(), 16), "'"));
  }
  return Status::ParseError("bad graph file header");
}

/// Appends everything left in `is` to `out`, in bounded chunks.
void ReadAll(std::istream& is, std::string* out) {
  char buf[64 * 1024];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    out->append(buf, static_cast<size_t>(is.gcount()));
  }
}

}  // namespace

Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os) {
  LIPSTICK_ASSIGN_OR_RETURN(std::string bytes, EncodeGraph(graph));
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os.good()) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError(StrCat("cannot open ", path, " for writing"));
  }
  LIPSTICK_RETURN_IF_ERROR(SaveGraph(graph, out));
  out.close();
  if (!out) return Status::IOError(StrCat("cannot write ", path));
  return Status::OK();
}

Result<ProvenanceGraph> LoadGraph(std::istream& is) {
  std::string data;
  ReadAll(is, &data);
  return LoadGraphBytes(data);
}

Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IOError(
        StrCat(path, " is a directory, not a provenance graph file"));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  std::string data;
  uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) data.reserve(size);
  ReadAll(in, &data);
  return LoadGraphBytes(data);
}

}  // namespace lipstick
