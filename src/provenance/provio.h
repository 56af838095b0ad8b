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
/// Format: line-oriented text. Node ids, shard structure, and invocation
/// metadata are preserved exactly, so Load(Save(g)) reproduces g.

/// Writes `graph` to `os`. Only scalar values in v-nodes are supported.
Status SaveGraph(const ProvenanceGraph& graph, std::ostream& os);
/// Writes `graph` to the file at `path`.
Status SaveGraphToFile(const ProvenanceGraph& graph, const std::string& path);

/// Reads a graph previously written by SaveGraph (format v2, the only one
/// it writes; other versions fail with ParseError). The result is
/// unsealed; call Seal() before querying (benchmarks measure exactly this
/// read + build + seal cost, cf. Figure 6).
Result<ProvenanceGraph> LoadGraph(std::istream& is);
Result<ProvenanceGraph> LoadGraphFromFile(const std::string& path);

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_PROVIO_H_
