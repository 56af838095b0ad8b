#ifndef LIPSTICK_PROVENANCE_WAL_H_
#define LIPSTICK_PROVENANCE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "provenance/bytecodec.h"
#include "provenance/graph.h"

namespace lipstick {

/// Write-ahead logging for provenance graphs: the durability half of the
/// paper's Tracker/Query-Processor split. Attached to a ProvenanceGraph
/// (GraphWalSink), a Wal records every mutation as a length-prefixed,
/// CRC32-checked binary record into segmented log files under one
/// directory, batched through a group-commit buffer. recovery.h replays
/// the log back into an identical graph after a crash.
///
/// Directory layout:
///   wal-<seq>.log   log segments, strictly increasing sequence numbers
///   ckpt-<seq>.pg   checkpoint: a binary provio v3 snapshot of the graph
///                   (provio.h) at the instant segment <seq> was opened;
///                   pre-v3 directories may hold v2 text checkpoints,
///                   which recovery still reads
/// A checkpoint supersedes every earlier segment; Checkpoint() deletes
/// them once the snapshot and the new segment head are durable. Open()
/// never appends to an existing segment (its tail may be torn): it always
/// starts a fresh segment after the highest sequence number present.
///
/// Crash-consistency contract: a record is recoverable once it is flushed
/// and (per FsyncPolicy) fsynced. Savepoint records mark committed
/// execution boundaries; recovery restores the prefix up to the last
/// durable savepoint, so a torn tail never yields a half-executed graph.
///
/// Error handling is sticky and non-fatal: the first write/fsync failure
/// marks the log dead, subsequent hooks no-op, and execution continues
/// untouched — durability degrades, correctness of the in-memory graph
/// does not. Callers observe failures via status() and obs metrics
/// (wal.errors).

/// When the group-commit buffer is fsynced to stable storage.
enum class FsyncPolicy : uint8_t {
  kNever,        // flush only; the OS decides when bytes hit the platter
  kOnCommit,     // fsync on every invocation commit (and savepoints)
  kOnSavepoint,  // fsync on execution savepoints only (the default)
};

const char* FsyncPolicyToString(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kOnSavepoint;
  /// Group-commit buffer: records accumulate in memory and are written
  /// out when the buffer exceeds this many bytes (or at commit /
  /// savepoint / checkpoint boundaries).
  size_t buffer_bytes = 256 * 1024;
  /// Roll to a new segment after the current one exceeds this size.
  size_t segment_bytes = 8 * 1024 * 1024;
  /// Take a checkpoint automatically (at the next savepoint) once this
  /// many log bytes accumulated since the last one. 0: only explicit
  /// Checkpoint() calls.
  size_t checkpoint_bytes = 0;
};

/// Binary framing shared by the writer (wal.cc), the recovery reader
/// (recovery.cc), and tests that need to inspect or corrupt segments.
namespace walfmt {

/// Segment header: magic, format version (u32), sequence number (u64).
inline constexpr char kMagic[] = "LIPSTICKWAL1";  // 12 chars + NUL unused
inline constexpr size_t kMagicBytes = 12;
inline constexpr uint32_t kVersion = 1;
inline constexpr size_t kHeaderBytes = kMagicBytes + 4 + 8;
/// Frame: u32 payload length, u32 CRC32 over (type byte + payload), u8
/// record type, payload. Lengths beyond this cap mean a torn/corrupt
/// frame, not a huge record.
inline constexpr size_t kFrameBytes = 8;
inline constexpr uint32_t kMaxRecordBytes = 1u << 26;

enum class RecordType : uint8_t {
  kIntern = 1,            // u32 id, u32 len, bytes
  kNodeAppend = 2,        // u64 id, u8 label, u8 role, u8 flags,
                          // u32 invocation, u32 payload, u32 n, u64[n]
  kNodeValue = 3,         // u64 id, value (tag byte + payload)
  kSetParents = 4,        // u64 id, u32 n, u64[n]
  kSetAlive = 5,          // u64 id, u8 alive
  kKillShardTail = 6,     // u32 shard, u64 from
  kBeginInvocation = 7,   // u32 inv, u32 module, u32 instance,
                          // u32 execution, u64 m_node
  kInvocationNode = 8,    // u32 inv, u8 kind(0=in,1=out,2=state), u64 node
  kAbortInvocation = 9,   // u32 inv
  kTruncateInvocations = 10,  // u64 count
  kCommitInvocation = 11,     // u32 inv
  kSavepoint = 12,        // u32 execution, u64 inv_count, u32 n, u64[n]
};

/// Formats "wal-0000000042.log" / "ckpt-0000000042.pg".
std::string SegmentFileName(uint64_t seq);
std::string CheckpointFileName(uint64_t seq);
/// Parses the sequence number out of a directory entry; returns false for
/// files that are neither segments nor checkpoints.
bool ParseSegmentName(std::string_view name, uint64_t* seq);
bool ParseCheckpointName(std::string_view name, uint64_t* seq);

/// One decoded frame of a segment.
struct Record {
  RecordType type;
  std::string_view payload;  // into the scanned buffer
  uint64_t offset = 0;       // frame start offset within the segment
};

/// Iterates the records of one in-memory segment image, stopping at the
/// first invalid frame (short header, bad length, short record, bad CRC).
class SegmentScanner {
 public:
  explicit SegmentScanner(std::string_view data);

  /// Header validation result; scanning a bad-header segment yields no
  /// records and torn_reason() explains why.
  const Status& header_status() const { return header_status_; }
  uint64_t sequence() const { return sequence_; }

  /// Advances to the next valid record. Returns false at the end of the
  /// valid prefix; check torn_reason() to distinguish a clean end from a
  /// torn tail.
  bool Next(Record* out);

  /// Empty if the segment ends exactly at a frame boundary; otherwise a
  /// description of the torn tail ("bad crc", "short record", ...).
  const std::string& torn_reason() const { return torn_reason_; }
  /// Offset of the first invalid byte — the truncation point that drops
  /// the torn tail while keeping every valid record.
  uint64_t valid_prefix() const { return offset_; }

 private:
  std::string_view data_;
  uint64_t offset_ = 0;
  uint64_t sequence_ = 0;
  Status header_status_;
  std::string torn_reason_;
};

}  // namespace walfmt

/// The write-ahead log writer. Implements GraphWalSink; attach with
/// Attach() and every subsequent graph mutation is logged. All methods are
/// thread-safe (ShardWriters on worker threads append concurrently).
class Wal final : public GraphWalSink {
 public:
  /// Opens (creating if needed) the log directory and starts a fresh
  /// segment after the highest existing sequence number.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const WalOptions& options = {});
  ~Wal() override;

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Attaches the log to `graph`: subsequent mutations are recorded.
  /// `executions_run` seeds the execution counter carried by savepoint
  /// records (pass executor.executions_run()). A non-empty graph is
  /// checkpointed immediately so the log alone can always reproduce it;
  /// an empty graph just gets a durable initial savepoint. The graph must
  /// not be moved or destroyed while attached.
  Status Attach(ProvenanceGraph* graph, uint32_t executions_run = 0);
  /// Detaches from the graph (hooks stop firing). Close() also detaches.
  void Detach();
  ProvenanceGraph* attached_graph() const { return graph_; }

  /// Durability boundaries, called by WorkflowExecutor. CommitInvocation
  /// flushes the buffer (fsync under kOnCommit); MarkSavepoint records the
  /// graph extent at a committed execution boundary and flushes (fsync
  /// under kOnSavepoint / kOnCommit).
  Status CommitInvocation(uint32_t invocation);
  Status MarkSavepoint(uint32_t execution);

  /// Snapshots the attached graph as a provio v3 checkpoint, rolls to a
  /// new segment, and deletes the superseded segments. Call at a quiescent
  /// point (no concurrent writers), e.g. right after MarkSavepoint.
  Status Checkpoint();
  /// Checkpoint() iff options.checkpoint_bytes accumulated since the last.
  Status MaybeCheckpoint();

  /// Writes the group-commit buffer to the segment (no fsync).
  Status Flush();
  /// Flush + fsync regardless of policy.
  Status Sync();
  /// Flushes, fsyncs (unless kNever), closes the segment, detaches.
  Status Close();

  /// Sticky error state: OK until the first write/fsync failure, after
  /// which the log stops accepting records.
  Status status() const;
  const std::string& dir() const { return dir_; }
  uint64_t bytes_appended() const;
  uint64_t records_appended() const;
  uint64_t checkpoints_taken() const;

  // GraphWalSink implementation (called by the attached graph).
  void OnIntern(StrId id, std::string_view s) override;
  void OnNodeAppend(NodeId id, NodeLabel label, NodeRole role, uint8_t flags,
                    uint32_t invocation, StrId payload,
                    std::span<const NodeId> parents) override;
  void OnNodeValue(NodeId id, const Value& value) override;
  void OnSetParents(NodeId id, std::span<const NodeId> parents) override;
  void OnSetAlive(NodeId id, bool alive) override;
  void OnKillShardTail(uint32_t shard, uint64_t from) override;
  void OnBeginInvocation(uint32_t invocation,
                         const InvocationInfo& info) override;
  void OnInvocationNode(uint32_t invocation, int kind, NodeId node) override;
  void OnAbortInvocation(uint32_t invocation) override;
  void OnTruncateInvocations(uint64_t count) override;

 private:
  Wal(std::string dir, const WalOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  /// Appends one framed record to the buffer; flushes past the threshold.
  void AppendRecord(walfmt::RecordType type, std::string_view payload);
  void AppendRecordLocked(walfmt::RecordType type, std::string_view payload);
  void AppendSavepointLocked(uint32_t execution,
                             const ProvenanceGraph::Savepoint& extent);
  Status OpenSegmentLocked(uint64_t seq);
  Status FlushLocked();
  Status SyncLocked();
  Status CheckpointLocked(const ProvenanceGraph::Savepoint& extent);
  void MarkDeadLocked(Status why);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  ProvenanceGraph* graph_ = nullptr;
  int fd_ = -1;
  uint64_t seq_ = 0;
  std::string segment_name_;       // fault-injection / diagnostics key
  std::string buffer_;             // pending framed records
  uint64_t segment_written_ = 0;   // bytes flushed into the open segment
  uint64_t bytes_appended_ = 0;    // framed bytes accepted, process total
  uint64_t records_appended_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  uint64_t checkpoints_ = 0;
  uint32_t last_execution_ = 0;    // execution count at the last savepoint
  Status status_;                  // sticky; dead once !ok
  bool closed_ = false;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_WAL_H_
