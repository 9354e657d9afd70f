// Sharded-execution conformance — sharded propagation vs unsharded vs the
// dense oracle.
//
// Sharded execution (src/shard/, docs/SHARDING.md) promises that
// partitioned propagation — edge-cut shards, halo exchange, ordered merge —
// is *bit-identical* to the single-CSR path at any shard count. This check
// enforces that contract for every Table 1 filter:
//   * bit-identity: the sharded Forward and every sharded Precompute term
//     must match their unsharded counterparts byte for byte (memcmp, never
//     a tolerance), at each requested shard count, and
//   * spectral correctness: the sharded forward must sit within the same
//     dense eigendecomposition oracle tolerance (oracle.h) that gates the
//     unsharded path.

#ifndef SGNN_CONFORMANCE_SHARD_CHECK_H_
#define SGNN_CONFORMANCE_SHARD_CHECK_H_

#include <string>
#include <vector>

#include "conformance/oracle.h"
#include "eval/eigen.h"
#include "sparse/csr.h"
#include "tensor/matrix.h"
#include "tensor/status.h"

namespace sgnn::conformance {

/// Outcome of one sharded-vs-unsharded-vs-oracle comparison.
struct ShardReport {
  std::string filter;
  std::vector<int> shard_counts;  ///< K values exercised
  double rel_error = 0.0;         ///< sharded forward vs dense oracle (max over K)
  double tolerance = 0.0;         ///< OracleTolerance(filter)
  bool forward_bit_identical = false;   ///< sharded ≡ unsharded, every K
  bool precompute_bit_identical = false;  ///< terms sharded ≡ unsharded (true for FB-only)
  bool skipped = false;  ///< dense reference undefined (lanczos breakdown)
  bool pass = false;
  std::string detail;
};

/// Runs `filter_name` unsharded and sharded at each K in `shard_counts`
/// (host compute; the Device tag never changes bits), asserts bit-identity
/// of forward and precompute terms, and gates the sharded
/// result against the dense spectral reference. InvalidArgument for unknown
/// filters or mismatched shapes.
[[nodiscard]] Result<ShardReport> CheckShardConformance(
    const std::string& filter_name, const sparse::CsrMatrix& norm_adj,
    const eval::EigenDecomposition& eig, const Matrix& x,
    const std::vector<int>& shard_counts = {1, 2, 4, 8},
    const OracleOptions& options = {});

/// CheckShardConformance over all taxonomy filters.
[[nodiscard]] Result<std::vector<ShardReport>> CheckAllSharded(
    const sparse::CsrMatrix& norm_adj, const eval::EigenDecomposition& eig,
    const Matrix& x, const std::vector<int>& shard_counts = {1, 2, 4, 8},
    const OracleOptions& options = {});

/// True when every report passed.
bool AllShardPass(const std::vector<ShardReport>& reports);

/// One line per report, failures marked.
std::string FormatShardReports(const std::vector<ShardReport>& reports);

}  // namespace sgnn::conformance

#endif  // SGNN_CONFORMANCE_SHARD_CHECK_H_
