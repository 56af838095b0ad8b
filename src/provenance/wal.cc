#include "provenance/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/provio.h"

namespace lipstick {

const char* FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kOnCommit:
      return "commit";
    case FsyncPolicy::kOnSavepoint:
      return "savepoint";
  }
  return "?";
}

namespace walfmt {

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string CheckpointFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%010llu.pg",
                static_cast<unsigned long long>(seq));
  return buf;
}

namespace {

bool ParseSeqName(std::string_view name, std::string_view prefix,
                  std::string_view suffix, uint64_t* seq) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

}  // namespace

bool ParseSegmentName(std::string_view name, uint64_t* seq) {
  return ParseSeqName(name, "wal-", ".log", seq);
}

bool ParseCheckpointName(std::string_view name, uint64_t* seq) {
  return ParseSeqName(name, "ckpt-", ".pg", seq);
}

SegmentScanner::SegmentScanner(std::string_view data) : data_(data) {
  if (data_.size() < kHeaderBytes) {
    header_status_ = Status::ParseError("wal: short segment header");
    torn_reason_ = "short header";
    return;
  }
  if (std::memcmp(data_.data(), kMagic, kMagicBytes) != 0) {
    header_status_ = Status::ParseError("wal: bad segment magic");
    torn_reason_ = "bad magic";
    return;
  }
  bytecodec::Cursor c(data_.substr(kMagicBytes, 12));
  uint32_t version = c.U32();
  sequence_ = c.U64();
  if (version != kVersion) {
    header_status_ =
        Status::ParseError(StrCat("wal: unsupported version ", version));
    torn_reason_ = "bad version";
    return;
  }
  offset_ = kHeaderBytes;
}

bool SegmentScanner::Next(Record* out) {
  if (!header_status_.ok()) return false;
  if (!torn_reason_.empty()) return false;
  if (offset_ == data_.size()) return false;  // clean end
  if (offset_ + kFrameBytes > data_.size()) {
    torn_reason_ = "short frame header";
    return false;
  }
  bytecodec::Cursor c(data_.substr(offset_, kFrameBytes));
  uint32_t len = c.U32();
  uint32_t crc = c.U32();
  if (len == 0 || len > kMaxRecordBytes) {
    torn_reason_ = "bad record length";
    return false;
  }
  if (offset_ + kFrameBytes + len > data_.size()) {
    torn_reason_ = "short record";
    return false;
  }
  const char* body = data_.data() + offset_ + kFrameBytes;
  if (bytecodec::Crc32(body, len) != crc) {
    torn_reason_ = "bad crc";
    return false;
  }
  out->type = static_cast<RecordType>(static_cast<uint8_t>(body[0]));
  out->payload = std::string_view(body + 1, len - 1);
  out->offset = offset_;
  offset_ += kFrameBytes + len;
  return true;
}

}  // namespace walfmt

namespace {

using bytecodec::PutU32;
using bytecodec::PutU64;
using bytecodec::PutU8;
using walfmt::RecordType;

struct WalMetrics {
  obs::MetricId bytes;
  obs::MetricId records;
  obs::MetricId flushes;
  obs::MetricId fsyncs;
  obs::MetricId fsync_us;
  obs::MetricId checkpoints;
  obs::MetricId checkpoint_us;
  obs::MetricId errors;

  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      WalMetrics w;
      w.bytes = reg.RegisterCounter("wal.bytes_appended");
      w.records = reg.RegisterCounter("wal.records");
      w.flushes = reg.RegisterCounter("wal.flushes");
      w.fsyncs = reg.RegisterCounter("wal.fsyncs");
      w.fsync_us = reg.RegisterHistogram("wal.fsync_us");
      w.checkpoints = reg.RegisterCounter("wal.checkpoints");
      w.checkpoint_us = reg.RegisterHistogram("wal.checkpoint_us");
      w.errors = reg.RegisterCounter("wal.errors");
      return w;
    }();
    return m;
  }
};

/// Per-thread payload scratch: hooks fire from concurrent ShardWriters, and
/// serializing outside the log mutex keeps the critical section to a
/// buffer append.
std::string& Scratch() {
  thread_local std::string s;
  s.clear();
  return s;
}

Status WriteFully(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("wal: write failed: ", std::strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(
        StrCat("wal: open for fsync failed: ", path, ": ",
               std::strerror(errno)));
  }
  Status st;
  if (::fsync(fd) != 0) {
    st = Status::IOError(
        StrCat("wal: fsync failed: ", path, ": ", std::strerror(errno)));
  }
  ::close(fd);
  return st;
}

/// Deterministic position derivation for injected corruption / torn
/// writes: splitmix64 of the log's record counter, so a given skip_hits
/// setting lands on a reproducible byte regardless of timing.
uint64_t MixPosition(uint64_t counter, uint64_t salt) {
  Rng rng(counter ^ salt);
  return rng.Next();
}

}  // namespace

// ---------------------------------------------------------------------------
// Wal: open / segment management
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const WalOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(
        StrCat("wal: cannot create log directory ", dir, ": ", ec.message()));
  }
  uint64_t max_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if (walfmt::ParseSegmentName(name, &seq) ||
        walfmt::ParseCheckpointName(name, &seq)) {
      max_seq = std::max(max_seq, seq);
    }
  }
  if (ec) {
    return Status::IOError(
        StrCat("wal: cannot list log directory ", dir, ": ", ec.message()));
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options));
  // Existing segments may have torn tails; never append to them. Start a
  // fresh segment after the highest sequence number ever used.
  LIPSTICK_RETURN_IF_ERROR(wal->OpenSegmentLocked(max_seq + 1));
  return wal;
}

Wal::~Wal() { (void)Close(); }

Status Wal::OpenSegmentLocked(uint64_t seq) {
  std::string name = walfmt::SegmentFileName(seq);
  std::string path = dir_ + "/" + name;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("wal: cannot create segment ", path, ": ",
               std::strerror(errno)));
  }
  std::string header;
  header.append(walfmt::kMagic, walfmt::kMagicBytes);
  PutU32(&header, walfmt::kVersion);
  PutU64(&header, seq);
  LIPSTICK_CHECK(header.size() == walfmt::kHeaderBytes,
                 "wal segment header size mismatch");
  Status st = WriteFully(fd, header.data(), header.size());
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  fd_ = fd;
  seq_ = seq;
  segment_name_ = std::move(name);
  segment_written_ = walfmt::kHeaderBytes;
  return Status::OK();
}

void Wal::MarkDeadLocked(Status why) {
  if (!status_.ok()) return;
  status_ = std::move(why);
  obs::MetricsRegistry::Global().CounterAdd(WalMetrics::Get().errors);
}

// ---------------------------------------------------------------------------
// Wal: record append + group commit
// ---------------------------------------------------------------------------

void Wal::AppendRecordLocked(RecordType type, std::string_view payload) {
  size_t len = payload.size() + 1;  // type byte + payload
  LIPSTICK_CHECK(len <= walfmt::kMaxRecordBytes, "wal record too large");
  size_t frame_at = buffer_.size();
  PutU32(&buffer_, static_cast<uint32_t>(len));
  PutU32(&buffer_, 0);  // CRC placeholder, patched below
  buffer_.push_back(static_cast<char>(type));
  buffer_.append(payload);
  bytecodec::PatchU32(
      &buffer_, frame_at + 4,
      bytecodec::Crc32(buffer_.data() + frame_at + walfmt::kFrameBytes, len));

  uint64_t framed = walfmt::kFrameBytes + len;
  bytes_appended_ += framed;
  bytes_since_checkpoint_ += framed;
  ++records_appended_;
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().bytes, framed);
    reg.CounterAdd(WalMetrics::Get().records);
  }
}

void Wal::AppendRecord(RecordType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !status_.ok()) return;
  AppendRecordLocked(type, payload);
  if (buffer_.size() >= options_.buffer_bytes) (void)FlushLocked();
}

Status Wal::FlushLocked() {
  if (!status_.ok()) return status_;
  if (buffer_.empty()) return Status::OK();

  if (FaultInjector::Armed()) {
    // Silent media corruption: flip one byte of the outgoing batch and keep
    // going. Recovery must detect it via CRC, not via an error here.
    Status f = FaultInjector::Fire("wal.corrupt", segment_name_);
    if (!f.ok()) {
      size_t pos = MixPosition(records_appended_, 0xc0ffee) % buffer_.size();
      buffer_[pos] = static_cast<char>(buffer_[pos] ^ 0x40);
    }
    // Torn write: persist a prefix of the batch, then behave as if the
    // process crashed (the log goes dead, execution continues).
    f = FaultInjector::Fire("wal.short_write", segment_name_);
    if (!f.ok()) {
      size_t cut = MixPosition(bytes_appended_, 0x5eed) % buffer_.size();
      (void)WriteFully(fd_, buffer_.data(), cut);
      MarkDeadLocked(Status::IOError(
          StrCat("injected short write: ", cut, " of ", buffer_.size(),
                 " bytes reached ", segment_name_)));
      return status_;
    }
  }

  Status st = WriteFully(fd_, buffer_.data(), buffer_.size());
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }
  segment_written_ += buffer_.size();
  buffer_.clear();
  obs::MetricsRegistry::Global().CounterAdd(WalMetrics::Get().flushes);

  if (segment_written_ >= options_.segment_bytes) {
    // Roll to a new segment. Seal the outgoing one durably first (cheap:
    // once per segment_bytes) so a later checkpoint can safely delete it.
    if (options_.fsync != FsyncPolicy::kNever) {
      LIPSTICK_RETURN_IF_ERROR(SyncLocked());
    }
    ::close(fd_);
    fd_ = -1;
    st = OpenSegmentLocked(seq_ + 1);
    if (!st.ok()) MarkDeadLocked(std::move(st));
  }
  return status_;
}

Status Wal::SyncLocked() {
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  if (FaultInjector::Armed()) {
    Status f = FaultInjector::Fire("wal.fsync", segment_name_);
    if (!f.ok()) {
      MarkDeadLocked(Status::IOError(
          StrCat("injected fsync failure on ", segment_name_)));
      return status_;
    }
  }
  WallTimer timer;
  if (::fsync(fd_) != 0) {
    MarkDeadLocked(Status::IOError(
        StrCat("wal: fsync failed: ", std::strerror(errno))));
    return status_;
  }
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().fsyncs);
    reg.Observe(WalMetrics::Get().fsync_us, timer.ElapsedMicros());
  }
  return Status::OK();
}

Status Wal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

uint64_t Wal::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_appended_;
}

uint64_t Wal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_appended_;
}

uint64_t Wal::checkpoints_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

// ---------------------------------------------------------------------------
// Wal: attach / durability boundaries
// ---------------------------------------------------------------------------

Status Wal::Attach(ProvenanceGraph* graph, uint32_t executions_run) {
  LIPSTICK_CHECK(graph != nullptr, "Wal::Attach: null graph");
  bool empty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Internal("wal: already closed");
    LIPSTICK_RETURN_IF_ERROR(status_);
    LIPSTICK_CHECK(graph_ == nullptr, "Wal::Attach: already attached");
    graph_ = graph;
    last_execution_ = executions_run;
    empty = graph->num_nodes() == 0 && graph->invocations().empty();
  }
  graph->AttachWalSink(this);
  if (!empty) {
    // The log alone must reproduce the graph: snapshot the pre-existing
    // state so replay never needs records we were not attached to see.
    return Checkpoint();
  }
  ProvenanceGraph::Savepoint extent = graph->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  AppendSavepointLocked(executions_run, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  // The initial recovery boundary is always durable, whatever the policy:
  // a crash before the first savepoint must still find a valid log.
  return SyncLocked();
}

void Wal::Detach() {
  ProvenanceGraph* graph;
  {
    std::lock_guard<std::mutex> lock(mu_);
    graph = graph_;
    graph_ = nullptr;
  }
  if (graph != nullptr && graph->wal_sink() == this) {
    graph->AttachWalSink(nullptr);
  }
}

Status Wal::CommitInvocation(uint32_t invocation) {
  std::string& p = Scratch();
  PutU32(&p, invocation);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: closed");
  LIPSTICK_RETURN_IF_ERROR(status_);
  AppendRecordLocked(RecordType::kCommitInvocation, p);
  if (options_.fsync == FsyncPolicy::kOnCommit) {
    return SyncLocked();
  }
  if (buffer_.size() >= options_.buffer_bytes) return FlushLocked();
  return Status::OK();
}

void Wal::AppendSavepointLocked(uint32_t execution,
                                const ProvenanceGraph::Savepoint& extent) {
  std::string& p = Scratch();
  PutU32(&p, execution);
  PutU64(&p, extent.invocation_count);
  PutU32(&p, static_cast<uint32_t>(extent.shard_sizes.size()));
  for (size_t size : extent.shard_sizes) PutU64(&p, size);
  AppendRecordLocked(RecordType::kSavepoint, p);
}

Status Wal::MarkSavepoint(uint32_t execution) {
  ProvenanceGraph::Savepoint extent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Internal("wal: closed");
    LIPSTICK_RETURN_IF_ERROR(status_);
    LIPSTICK_CHECK(graph_ != nullptr, "Wal::MarkSavepoint: not attached");
  }
  // Capture the extent outside mu_: the graph hooks take locks in the
  // order (graph lock -> mu_), and TakeSavepoint takes the invocations
  // lock, so taking it under mu_ would invert the order.
  extent = graph_->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  LIPSTICK_RETURN_IF_ERROR(status_);
  last_execution_ = execution;
  AppendSavepointLocked(execution, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  if (options_.fsync != FsyncPolicy::kNever) return SyncLocked();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Wal: checkpointing
// ---------------------------------------------------------------------------

Status Wal::Checkpoint() {
  if (graph_ == nullptr) {
    return Status::Internal("wal: Checkpoint() before Attach()");
  }
  ProvenanceGraph::Savepoint extent = graph_->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: closed");
  LIPSTICK_RETURN_IF_ERROR(status_);
  return CheckpointLocked(extent);
}

Status Wal::MaybeCheckpoint() {
  if (graph_ == nullptr || options_.checkpoint_bytes == 0) {
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || !status_.ok()) return status_;
    if (bytes_since_checkpoint_ < options_.checkpoint_bytes) {
      return Status::OK();
    }
  }
  return Checkpoint();
}

Status Wal::CheckpointLocked(const ProvenanceGraph::Savepoint& extent) {
  obs::ObsSpan span("wal", "checkpoint");
  WallTimer timer;
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());

  uint64_t new_seq = seq_ + 1;
  std::string final_name = walfmt::CheckpointFileName(new_seq);
  std::string final_path = dir_ + "/" + final_name;
  std::string tmp_path = final_path + ".tmp";
  // Snapshot, make it durable, then atomically publish: a crash at any
  // point leaves either no ckpt-<new_seq> (recovery uses the previous
  // checkpoint + segments) or a complete one.
  Status st = SaveGraphToFile(*graph_, tmp_path);
  if (st.ok()) st = FsyncPath(tmp_path);
  if (st.ok() && std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    st = Status::IOError(StrCat("wal: cannot publish checkpoint ", final_path,
                                ": ", std::strerror(errno)));
  }
  if (st.ok()) st = FsyncPath(dir_);
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }

  // Roll to the segment the checkpoint corresponds to and seed it with a
  // savepoint of the snapshotted extent, so the new head is immediately
  // recoverable on its own.
  ::close(fd_);
  fd_ = -1;
  st = OpenSegmentLocked(new_seq);
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }
  AppendSavepointLocked(last_execution_, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  LIPSTICK_RETURN_IF_ERROR(SyncLocked());

  // Everything before the checkpoint is superseded; reclaim it.
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if ((walfmt::ParseSegmentName(name, &seq) ||
         walfmt::ParseCheckpointName(name, &seq)) &&
        seq < new_seq) {
      fs::remove(entry.path(), ec);
    }
  }

  bytes_since_checkpoint_ = 0;
  ++checkpoints_;
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().checkpoints);
    reg.Observe(WalMetrics::Get().checkpoint_us, timer.ElapsedMicros());
  }
  if (span.active()) span.Arg("seq", new_seq);
  return Status::OK();
}

Status Wal::Close() {
  Detach();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return status_;
  closed_ = true;
  if (status_.ok()) {
    (void)FlushLocked();
    if (status_.ok() && options_.fsync != FsyncPolicy::kNever) {
      (void)SyncLocked();
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return status_;
}

// ---------------------------------------------------------------------------
// Wal: GraphWalSink hooks
// ---------------------------------------------------------------------------

void Wal::OnIntern(StrId id, std::string_view s) {
  std::string& p = Scratch();
  PutU32(&p, id);
  PutU32(&p, static_cast<uint32_t>(s.size()));
  p.append(s);
  AppendRecord(RecordType::kIntern, p);
}

void Wal::OnNodeAppend(NodeId id, NodeLabel label, NodeRole role,
                       uint8_t flags, uint32_t invocation, StrId payload,
                       std::span<const NodeId> parents) {
  std::string& p = Scratch();
  PutU64(&p, id);
  PutU8(&p, static_cast<uint8_t>(label));
  PutU8(&p, static_cast<uint8_t>(role));
  PutU8(&p, flags);
  PutU32(&p, invocation);
  PutU32(&p, payload);
  PutU32(&p, static_cast<uint32_t>(parents.size()));
  for (NodeId parent : parents) PutU64(&p, parent);
  AppendRecord(RecordType::kNodeAppend, p);
}

void Wal::OnNodeValue(NodeId id, const Value& value) {
  std::string& p = Scratch();
  PutU64(&p, id);
  bytecodec::EncodeValue(&p, value);
  AppendRecord(RecordType::kNodeValue, p);
}

void Wal::OnSetParents(NodeId id, std::span<const NodeId> parents) {
  std::string& p = Scratch();
  PutU64(&p, id);
  PutU32(&p, static_cast<uint32_t>(parents.size()));
  for (NodeId parent : parents) PutU64(&p, parent);
  AppendRecord(RecordType::kSetParents, p);
}

void Wal::OnSetAlive(NodeId id, bool alive) {
  std::string& p = Scratch();
  PutU64(&p, id);
  PutU8(&p, alive ? 1 : 0);
  AppendRecord(RecordType::kSetAlive, p);
}

void Wal::OnKillShardTail(uint32_t shard, uint64_t from) {
  std::string& p = Scratch();
  PutU32(&p, shard);
  PutU64(&p, from);
  AppendRecord(RecordType::kKillShardTail, p);
}

void Wal::OnBeginInvocation(uint32_t invocation, const InvocationInfo& info) {
  std::string& p = Scratch();
  PutU32(&p, invocation);
  PutU32(&p, info.module_name);
  PutU32(&p, info.instance_name);
  PutU32(&p, info.execution);
  PutU64(&p, info.m_node);
  AppendRecord(RecordType::kBeginInvocation, p);
}

void Wal::OnInvocationNode(uint32_t invocation, int kind, NodeId node) {
  std::string& p = Scratch();
  PutU32(&p, invocation);
  PutU8(&p, static_cast<uint8_t>(kind));
  PutU64(&p, node);
  AppendRecord(RecordType::kInvocationNode, p);
}

void Wal::OnAbortInvocation(uint32_t invocation) {
  std::string& p = Scratch();
  PutU32(&p, invocation);
  AppendRecord(RecordType::kAbortInvocation, p);
}

void Wal::OnTruncateInvocations(uint64_t count) {
  std::string& p = Scratch();
  PutU64(&p, count);
  AppendRecord(RecordType::kTruncateInvocations, p);
}

}  // namespace lipstick
