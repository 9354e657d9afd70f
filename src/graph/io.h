// Attributed-graph files and homophily measures.
//
// A generated dataset can be saved to a binary file and reloaded. The file
// is a tensor/serialize.h frame (magic "SGNNGRPH", version 1), so it is
// little-endian, CRC-checked and written atomically.

#ifndef SGNN_GRAPH_IO_H_
#define SGNN_GRAPH_IO_H_

#include <functional>
#include <string>

#include "graph/graph.h"
#include "tensor/status.h"

namespace sgnn::graph {

/// Fault-injection hook consulted at the start of every SaveGraph/LoadGraph
/// (see runtime/fault_injection.h). `op` is "save" or "load". A non-OK
/// return is surfaced as that operation's result. Pass nullptr to uninstall.
using IoFaultHook =
    std::function<Status(const char* op, const std::string& path)>;
void SetIoFaultHook(IoFaultHook hook);

/// Writes the graph (adjacency, features, labels) to a binary file.
[[nodiscard]] Status SaveGraph(const Graph& g, const std::string& path);

/// Loads a graph written by SaveGraph. A corrupt file (bad frame, CSR
/// arrays, shapes or labels) is IOError; a foreign version is
/// FailedPrecondition.
[[nodiscard]] Result<Graph> LoadGraph(const std::string& path);

/// Edge homophily: fraction of non-loop edges joining same-label endpoints.
/// Complements the node homophily of graph.h (paper Section 2.1 cites both
/// conventions).
double EdgeHomophily(const Graph& g);

/// Class-insensitive ("adjusted") homophily of Lim et al.: edge homophily
/// rebalanced by class proportions, in [-1/(C-1), 1]; near 0 for random
/// wiring regardless of class imbalance.
double AdjustedHomophily(const Graph& g);

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_IO_H_
