#ifndef LIPSTICK_PROVENANCE_PROVIO_H_
#define LIPSTICK_PROVENANCE_PROVIO_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "provenance/graph.h"

namespace lipstick {

/// Serialization of provenance graphs. This implements the paper's
/// Lipstick architecture split: the Provenance Tracker writes
/// provenance-annotated output to the file system, and the Query Processor
/// later reads it back and builds the in-memory graph (Section 5.1).
///
/// Format v3 (binary; DESIGN.md §5c). The header line
/// "LIPSTICKGRAPH v3\n", then sections framed as [u32 body length]
/// [u32 CRC32 of the body][body], all integers little-endian, in order:
///   layout       u32 shard count
///   strings      u32 n, n x (u32 length, bytes): the string pool from id
///                1 on (id 0 is the empty string), so StrIds round-trip
///   shard (one per shard)
///                u64 n; u8 labels[n]; u8 roles[n]; u8 flags[n];
///                u32 invocations[n]; u32 payload string ids[n];
///                u32 parent counts[n]; u64 m, u64 parent ids[m];
///                u64 k, k x (u64 node index, tagged scalar value)
///   invocations  u32 n, n x (u32 module, u32 instance, u32 execution,
///                u64 m-node, then input/output/state node lists, each
///                u32 count + u64 ids)
/// Node ids, shard structure, string ids and invocation metadata are
/// preserved exactly, so Save(Load(Save(g))) == Save(g). The children
/// index is not stored; Seal() rebuilds it.

/// Writes `graph` to `os` as v3. Only scalar values in v-nodes are
/// stored (null and nested values load back as null).
Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os);
/// Writes `graph` to the file at `path`.
Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path);

/// Reads a graph written by SaveGraph: v3, or the percent-escaped,
/// line-oriented text of v2, which pre-v3 files and WAL checkpoints hold
/// and which is read but no longer written. Other versions, truncated or
/// corrupt input fail with ParseError; no count allocates beyond the
/// bytes actually read. The result is unsealed; call Seal() before
/// querying (benchmarks measure exactly this read + build + seal cost,
/// cf. Figure 6).
Result<ProvenanceGraph> LoadGraph(std::istream& is);
Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_PROVIO_H_
