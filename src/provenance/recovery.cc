#include "provenance/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/provio.h"
#include "provenance/wal.h"

namespace lipstick {

namespace {

using bytecodec::Cursor;
using walfmt::Record;
using walfmt::RecordType;

struct RecoveryMetrics {
  obs::MetricId replayed;
  obs::MetricId discarded;
  obs::MetricId torn;
  obs::MetricId us;

  static const RecoveryMetrics& Get() {
    static const RecoveryMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      RecoveryMetrics r;
      r.replayed = reg.RegisterCounter("recovery.replayed_records");
      r.discarded = reg.RegisterCounter("recovery.discarded_records");
      r.torn = reg.RegisterCounter("recovery.torn_segments");
      r.us = reg.RegisterHistogram("recovery.us");
      return r;
    }();
    return m;
  }
};

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError(StrCat("read failed: ", path));
  return std::move(buf).str();
}

/// One scanned segment, held in memory for the two replay passes.
struct ScannedSegment {
  uint64_t seq = 0;
  std::string path;
  std::string data;               // raw file image; records point into it
  std::vector<Record> records;
  std::string torn_reason;        // empty: ends cleanly at a frame boundary
  uint64_t valid_prefix = 0;      // bytes of valid header + frames
};

/// The savepoint extent a kSavepoint record describes.
struct SavepointExtent {
  uint32_t execution = 0;
  uint64_t invocation_count = 0;
  std::vector<uint64_t> shard_sizes;
};

Result<SavepointExtent> ParseSavepoint(const Record& rec) {
  Cursor c(rec.payload);
  SavepointExtent sp;
  sp.execution = c.U32();
  sp.invocation_count = c.U64();
  uint32_t n = c.U32();
  if (c.ok && n <= 0x10000) {
    sp.shard_sizes.reserve(n);
    for (uint32_t i = 0; i < n; ++i) sp.shard_sizes.push_back(c.U64());
  } else {
    c.ok = false;
  }
  if (!c.ok || !c.AtEnd()) {
    return Status::ParseError("wal replay: malformed savepoint record");
  }
  return sp;
}

Status MalformedRecord(const Record& rec) {
  return Status::ParseError(
      StrCat("wal replay: malformed record type ",
             static_cast<int>(rec.type), " at offset ", rec.offset));
}

/// Applies one record to the graph under reconstruction. `committed`
/// collects kCommitInvocation ids (no graph effect of their own).
Status ApplyRecord(ProvenanceGraph* graph, const Record& rec,
                   std::vector<uint32_t>* committed) {
  Cursor c(rec.payload);
  switch (rec.type) {
    case RecordType::kIntern: {
      StrId id = c.U32();
      uint32_t len = c.U32();
      std::string_view s = c.Bytes(len);
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      StrId got = graph->InternString(s);
      if (got != id) {
        return Status::Internal(StrCat("wal replay: intern id mismatch: log ",
                                       id, ", graph ", got));
      }
      return Status::OK();
    }
    case RecordType::kNodeAppend: {
      NodeId id = c.U64();
      uint8_t label = c.U8();
      uint8_t role = c.U8();
      uint8_t flags = c.U8();
      uint32_t invocation = c.U32();
      StrId payload = c.U32();
      uint32_t n = c.U32();
      std::vector<NodeId> parents;
      if (c.ok && n <= (1u << 24)) {
        parents.reserve(n);
        for (uint32_t i = 0; i < n; ++i) parents.push_back(c.U64());
      } else {
        c.ok = false;
      }
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (label > static_cast<uint8_t>(NodeLabel::kZoomedModule) ||
          role > static_cast<uint8_t>(NodeRole::kZoom) ||
          payload >= graph->strings().size()) {
        return Status::ParseError(
            StrCat("wal replay: node ", id, " has out-of-range columns"));
      }
      uint32_t shard = NodeShard(id);
      if (shard > 0xffff) {
        return Status::ParseError(
            StrCat("wal replay: node ", id, " names absurd shard ", shard));
      }
      while (graph->num_shards() <= shard) (void)graph->AddShard();
      if (NodeIndex(id) != graph->ShardSize(shard)) {
        return Status::Internal(
            StrCat("wal replay: node ", id, " out of append order (shard ",
                   shard, " holds ", graph->ShardSize(shard), " nodes)"));
      }
      ShardWriter writer(graph, shard);
      NodeId got = writer.AppendRaw(static_cast<NodeLabel>(label),
                                    static_cast<NodeRole>(role), flags,
                                    invocation, payload, parents);
      if (got != id) {
        return Status::Internal(
            StrCat("wal replay: node id mismatch: log ", id, ", graph ", got));
      }
      return Status::OK();
    }
    case RecordType::kNodeValue: {
      NodeId id = c.U64();
      LIPSTICK_ASSIGN_OR_RETURN(Value value, bytecodec::DecodeValue(&c));
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: value for unknown node ", id));
      }
      graph->SetNodeValue(id, std::move(value));
      return Status::OK();
    }
    case RecordType::kSetParents: {
      NodeId id = c.U64();
      uint32_t n = c.U32();
      std::vector<NodeId> parents;
      if (c.ok && n <= (1u << 24)) {
        parents.reserve(n);
        for (uint32_t i = 0; i < n; ++i) parents.push_back(c.U64());
      } else {
        c.ok = false;
      }
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: parents for unknown node ", id));
      }
      graph->SetParents(id, parents);
      return Status::OK();
    }
    case RecordType::kSetAlive: {
      NodeId id = c.U64();
      uint8_t alive = c.U8();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: liveness for unknown node ", id));
      }
      graph->SetAlive(id, alive != 0);
      return Status::OK();
    }
    case RecordType::kKillShardTail: {
      uint32_t shard = c.U32();
      uint64_t from = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (shard >= graph->num_shards()) {
        return Status::Internal(
            StrCat("wal replay: kill-tail on unknown shard ", shard));
      }
      graph->KillShardTail(shard, from);
      return Status::OK();
    }
    case RecordType::kBeginInvocation: {
      uint32_t inv = c.U32();
      InvocationInfo info;
      info.module_name = c.U32();
      info.instance_name = c.U32();
      info.execution = c.U32();
      info.m_node = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (inv != graph->invocations().size() ||
          info.module_name >= graph->strings().size() ||
          info.instance_name >= graph->strings().size() ||
          !graph->InGraph(info.m_node)) {
        return Status::Internal(
            StrCat("wal replay: inconsistent invocation ", inv));
      }
      NodeId m_node = info.m_node;
      uint32_t got = graph->RestoreInvocation(std::move(info));
      LIPSTICK_CHECK(got == inv, "invocation id drifted during replay");
      // The m-node is appended before the invocation id exists; the graph
      // patches its invocation column afterwards, and so does replay.
      graph->SetInvocationTag(m_node, inv);
      return Status::OK();
    }
    case RecordType::kInvocationNode: {
      uint32_t inv = c.U32();
      uint8_t kind = c.U8();
      NodeId node = c.U64();
      if (!c.ok || !c.AtEnd() || kind > 2) return MalformedRecord(rec);
      if (inv >= graph->invocations().size() || !graph->InGraph(node)) {
        return Status::Internal(
            StrCat("wal replay: structural node for unknown invocation ",
                   inv));
      }
      InvocationInfo& info = graph->mutable_invocation(inv);
      (kind == 0   ? info.input_nodes
       : kind == 1 ? info.output_nodes
                   : info.state_nodes)
          .push_back(node);
      return Status::OK();
    }
    case RecordType::kAbortInvocation: {
      uint32_t inv = c.U32();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (inv >= graph->invocations().size()) {
        return Status::Internal(
            StrCat("wal replay: abort of unknown invocation ", inv));
      }
      graph->AbortInvocation(inv);
      return Status::OK();
    }
    case RecordType::kTruncateInvocations: {
      uint64_t count = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (count > graph->invocations().size()) {
        return Status::Internal("wal replay: truncation grows invocations");
      }
      graph->TruncateInvocations(count);
      return Status::OK();
    }
    case RecordType::kCommitInvocation: {
      uint32_t inv = c.U32();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      committed->push_back(inv);
      return Status::OK();
    }
    case RecordType::kSavepoint:
      // Boundaries are interpreted by the caller; validate shape only.
      return ParseSavepoint(rec).status();
  }
  return Status::ParseError(
      StrCat("wal replay: unknown record type ",
             static_cast<int>(rec.type)));
}

/// Verifies the graph matches a savepoint's recorded extent — the
/// cross-check that replay reproduced exactly what the tracker saw.
Status VerifyExtent(const ProvenanceGraph& graph, const SavepointExtent& sp) {
  if (graph.invocations().size() != sp.invocation_count) {
    return Status::Internal(
        StrCat("wal replay: savepoint expects ", sp.invocation_count,
               " invocations, graph has ", graph.invocations().size()));
  }
  if (graph.num_shards() < sp.shard_sizes.size()) {
    return Status::Internal("wal replay: savepoint names missing shards");
  }
  for (uint32_t s = 0; s < graph.num_shards(); ++s) {
    uint64_t want = s < sp.shard_sizes.size() ? sp.shard_sizes[s] : 0;
    if (graph.ShardSize(s) != want) {
      return Status::Internal(
          StrCat("wal replay: savepoint expects ", want, " nodes in shard ",
                 s, ", graph has ", graph.ShardSize(s)));
    }
  }
  return Status::OK();
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "recovery of " << dir << "\n";
  if (checkpoint_seq != 0) {
    os << "  checkpoint:   " << checkpoint_file << "\n";
  } else {
    os << "  checkpoint:   none (replayed from log origin)\n";
  }
  os << "  segments:     " << segments_scanned << " scanned, "
     << torn_segments << " torn\n";
  os << "  records:      " << records_applied << " applied, "
     << records_discarded << " discarded\n";
  os << "  restored:     " << executions_recovered << " executions, "
     << invocations_recovered << " live invocations";
  if (invocations_aborted > 0) {
    os << ", " << invocations_aborted << " uncommitted aborted";
  }
  os << "\n";
  if (bytes_truncated > 0) {
    os << "  repaired:     " << bytes_truncated << " torn bytes truncated\n";
  }
  for (const std::string& note : notes) {
    os << "  note:         " << note << "\n";
  }
  return os.str();
}

Result<ProvenanceGraph> RecoverGraph(const std::string& dir,
                                     RecoveryReport* report,
                                     const RecoveryOptions& options) {
  namespace fs = std::filesystem;
  obs::ObsSpan span("wal", "recover");
  WallTimer timer;
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport();
  rep.dir = dir;

  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IOError(StrCat("wal recovery: not a directory: ", dir));
  }
  std::vector<uint64_t> segment_seqs;
  std::vector<uint64_t> checkpoint_seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if (walfmt::ParseSegmentName(name, &seq)) segment_seqs.push_back(seq);
    if (walfmt::ParseCheckpointName(name, &seq)) {
      checkpoint_seqs.push_back(seq);
    }
  }
  if (ec) {
    return Status::IOError(
        StrCat("wal recovery: cannot list ", dir, ": ", ec.message()));
  }
  if (segment_seqs.empty() && checkpoint_seqs.empty()) {
    return Status::NotFound(
        StrCat("wal recovery: no log segments or checkpoints in ", dir));
  }
  std::sort(segment_seqs.begin(), segment_seqs.end());
  std::sort(checkpoint_seqs.begin(), checkpoint_seqs.end());

  // Seed from the newest readable checkpoint; fall back to older ones
  // (e.g. a checkpoint torn mid-write before its rename would not parse,
  // but a *.pg that renamed yet fails to load is still survivable as long
  // as the previous one plus its segments remain).
  ProvenanceGraph graph;
  uint64_t base_seq = 0;
  for (auto it = checkpoint_seqs.rbegin(); it != checkpoint_seqs.rend();
       ++it) {
    std::string name = walfmt::CheckpointFileName(*it);
    Result<ProvenanceGraph> loaded = LoadGraphFromFile(dir + "/" + name);
    if (loaded.ok()) {
      graph = std::move(loaded).value();
      base_seq = *it;
      rep.checkpoint_seq = *it;
      rep.checkpoint_file = name;
      break;
    }
    rep.notes.push_back(StrCat("checkpoint ", name, " unreadable (",
                               loaded.status().message(), "), trying older"));
  }
  if (rep.checkpoint_seq == 0 && !checkpoint_seqs.empty()) {
    rep.notes.push_back("no readable checkpoint; replaying from log origin");
  }

  // Collect the segments at or after the base, stopping at a sequence gap
  // (segments beyond a gap describe state we cannot reconstruct).
  std::vector<ScannedSegment> segments;
  uint64_t prev_seq = 0;
  for (uint64_t seq : segment_seqs) {
    if (seq < base_seq) continue;  // superseded by the checkpoint
    if (prev_seq != 0 && seq != prev_seq + 1) {
      rep.notes.push_back(StrCat("sequence gap: segment ", prev_seq + 1,
                                 " missing; ignoring segment ", seq,
                                 " and later"));
      break;
    }
    ScannedSegment seg;
    seg.seq = seq;
    seg.path = dir + "/" + walfmt::SegmentFileName(seq);
    Result<std::string> data = ReadFileToString(seg.path);
    if (!data.ok()) return data.status();
    seg.data = std::move(data).value();
    walfmt::SegmentScanner scanner(seg.data);
    if (!scanner.header_status().ok()) {
      // An unreadable header cannot result from a torn append (headers are
      // written whole at segment creation) — except for the freshly
      // created segment at the very tail, where a crash can race the
      // header write itself.
      if (seq == segment_seqs.back()) {
        rep.notes.push_back(StrCat(walfmt::SegmentFileName(seq), ": ",
                                   scanner.torn_reason(),
                                   " (crash during segment creation)"));
        ++rep.torn_segments;
        break;
      }
      return Status::ParseError(StrCat("wal recovery: ", seg.path, ": ",
                                       scanner.header_status().message()));
    }
    if (scanner.sequence() != seq) {
      return Status::ParseError(
          StrCat("wal recovery: ", seg.path, ": header sequence ",
                 scanner.sequence(), " does not match file name"));
    }
    Record rec;
    while (scanner.Next(&rec)) seg.records.push_back(rec);
    seg.torn_reason = scanner.torn_reason();
    seg.valid_prefix = scanner.valid_prefix();
    ++rep.segments_scanned;
    bool torn = !seg.torn_reason.empty();
    if (torn) {
      ++rep.torn_segments;
      rep.notes.push_back(StrCat(walfmt::SegmentFileName(seq), ": torn tail (",
                                 seg.torn_reason, ") at byte ",
                                 seg.valid_prefix));
    }
    prev_seq = seq;
    segments.push_back(std::move(seg));
    if (torn) {
      // Frames after an invalid one cannot be trusted (no resync marker);
      // later segments would also describe unreachable state.
      if (seq != segment_seqs.back()) {
        rep.notes.push_back(
            StrCat("ignoring segments after torn ",
                   walfmt::SegmentFileName(seq)));
      }
      break;
    }
  }

  // Pass 1: find the last savepoint — the recovery boundary.
  size_t sp_seg = segments.size();  // index of the boundary segment
  size_t sp_rec = 0;                // index of the savepoint record within it
  uint64_t total_records = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    total_records += segments[i].records.size();
    for (size_t j = 0; j < segments[i].records.size(); ++j) {
      if (segments[i].records[j].type == RecordType::kSavepoint) {
        sp_seg = i;
        sp_rec = j;
      }
    }
  }
  if (sp_seg == segments.size()) {
    // No durable execution boundary: the crash predates the first
    // savepoint. With a checkpoint the snapshot itself is the boundary;
    // without one the committed prefix is empty — recover the empty
    // graph rather than fail, since that is exactly what had committed.
    rep.notes.push_back(
        rep.checkpoint_seq == 0
            ? "crash predates the first durable savepoint; nothing committed"
            : "no savepoint in log; restored checkpoint only");
  }

  // Pass 2: apply records through the boundary (and beyond it, when the
  // caller wants the uncommitted tail kept as dead structure). With no
  // savepoint in the log the checkpoint itself is the boundary.
  const bool found_sp = sp_seg < segments.size();
  SavepointExtent boundary;  // default: the empty extent (nothing committed)
  if (rep.checkpoint_seq != 0) {
    ProvenanceGraph::Savepoint sp = graph.TakeSavepoint();
    boundary.invocation_count = sp.invocation_count;
    boundary.shard_sizes.assign(sp.shard_sizes.begin(),
                                sp.shard_sizes.end());
  }
  std::vector<uint32_t> committed;
  uint64_t applied = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (!options.keep_uncommitted && (!found_sp || i > sp_seg)) break;
    const ScannedSegment& seg = segments[i];
    for (size_t j = 0; j < seg.records.size(); ++j) {
      bool past_boundary =
          !found_sp || i > sp_seg || (i == sp_seg && j > sp_rec);
      if (past_boundary && !options.keep_uncommitted) break;
      const Record& rec = seg.records[j];
      Status st = ApplyRecord(&graph, rec, &committed);
      if (!st.ok()) {
        return st.WithContext(
            StrCat("in ", walfmt::SegmentFileName(seg.seq)));
      }
      ++applied;
      if (rec.type == RecordType::kSavepoint && found_sp && i == sp_seg &&
          j == sp_rec) {
        LIPSTICK_ASSIGN_OR_RETURN(boundary, ParseSavepoint(rec));
        // AddShard is not logged: a worker shard that had appended
        // nothing by this boundary exists only as a zero-size entry in
        // the extent. Create those so the recovered graph matches the
        // tracker's shard-for-shard.
        while (graph.num_shards() < boundary.shard_sizes.size() &&
               boundary.shard_sizes[graph.num_shards()] == 0) {
          (void)graph.AddShard();
        }
        // The extent check: replay must land exactly where the tracker
        // was when it marked the boundary.
        LIPSTICK_RETURN_IF_ERROR(VerifyExtent(graph, boundary));
      }
    }
  }
  rep.records_applied = applied;
  rep.records_discarded = total_records - applied;

  rep.executions_recovered = boundary.execution;
  if (options.keep_uncommitted) {
    // Mark the replayed-but-uncommitted tail dead with the same
    // machinery the executor uses to discard failed attempts: kill the
    // nodes past the boundary extent, abort the invocation records.
    for (uint32_t s = 0; s < graph.num_shards(); ++s) {
      uint64_t keep =
          s < boundary.shard_sizes.size() ? boundary.shard_sizes[s] : 0;
      if (graph.ShardSize(s) > keep) graph.KillShardTail(s, keep);
    }
    for (uint32_t inv = static_cast<uint32_t>(boundary.invocation_count);
         inv < graph.invocations().size(); ++inv) {
      if (!graph.invocations()[inv].aborted()) {
        graph.AbortInvocation(inv);
        ++rep.invocations_aborted;
      }
    }
  }
  rep.invocations_recovered = graph.num_live_invocations();

  if (options.repair) {
    for (const ScannedSegment& seg : segments) {
      if (seg.torn_reason.empty()) continue;
      if (seg.valid_prefix >= seg.data.size()) continue;
      if (::truncate(seg.path.c_str(),
                     static_cast<off_t>(seg.valid_prefix)) != 0) {
        rep.notes.push_back(StrCat("repair: cannot truncate ", seg.path));
        continue;
      }
      rep.bytes_truncated += seg.data.size() - seg.valid_prefix;
    }
  }

  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(RecoveryMetrics::Get().replayed, rep.records_applied);
    reg.CounterAdd(RecoveryMetrics::Get().discarded, rep.records_discarded);
    reg.CounterAdd(RecoveryMetrics::Get().torn, rep.torn_segments);
    reg.Observe(RecoveryMetrics::Get().us, timer.ElapsedMicros());
  }
  if (span.active()) {
    span.Arg("applied", rep.records_applied);
    span.Arg("executions", rep.executions_recovered);
  }
  return graph;
}

}  // namespace lipstick
