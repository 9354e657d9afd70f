// Graph-partition (GP) training scheme (paper Table 2, Section 2.2).
//
// The model-agnostic scalability workaround: partition the node set (with
// shard::GreedyBfsPartition, the partitioner sharded propagation uses),
// drop cross-partition edges, and train full-batch per part. Memory scales
// with the largest part instead of the graph — but the severed topology
// "undermines GNN expressiveness" (paper), which the scheme-ablation bench
// quantifies against FB and MB.

#ifndef SGNN_MODELS_PARTITION_H_
#define SGNN_MODELS_PARTITION_H_

#include "core/filter.h"
#include "graph/graph.h"
#include "models/trainer.h"

namespace sgnn::models {

/// GP-scheme configuration.
struct PartitionConfig {
  TrainConfig base;
  /// Number of parts, in [1, n]; each part trains as an independent full
  /// batch. The parts come from shard::GreedyBfsPartition seeded with
  /// `base.seed`, the partitioner sharded propagation uses.
  int num_parts = 8;
};

/// Trains the decoupled model under the GP scheme: per-epoch sweep over
/// parts, each propagating only within its induced subgraph. A part count
/// outside [1, n] returns InvalidArgument in `TrainResult::status`.
TrainResult TrainGraphPartition(const graph::Graph& g,
                                const graph::Splits& splits,
                                graph::Metric metric,
                                filters::SpectralFilter* filter,
                                const PartitionConfig& config);

}  // namespace sgnn::models

#endif  // SGNN_MODELS_PARTITION_H_
