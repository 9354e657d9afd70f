#include "graph/io.h"

#include <mutex>
#include <vector>

#include "sparse/serialize.h"
#include "tensor/serialize.h"

namespace sgnn::graph {

namespace {

// A tensor/serialize.h frame around: i32 classes, the CSR adjacency
// (sparse::AppendCsr), the feature matrix (serialize::AppendMatrix), and
// n i32 labels.
constexpr char kMagic[] = "SGNNGRPH";
constexpr uint32_t kVersion = 1;

Status DecodeGraph(serialize::Reader* r, Graph* g) {
  SGNN_RETURN_IF_ERROR(r->I32(&g->num_classes));
  SGNN_RETURN_IF_ERROR(sparse::ReadCsr(r, Device::kHost, &g->adj));
  g->n = g->adj.n();
  SGNN_RETURN_IF_ERROR(serialize::ReadMatrix(r, Device::kHost, &g->features));
  if (g->n <= 0 || g->num_classes <= 0 || g->features.rows() != g->n) {
    return Status::IOError("corrupt graph header");
  }
  SGNN_RETURN_IF_ERROR(r->CheckCount(g->n, sizeof(int32_t)));
  g->labels.resize(static_cast<size_t>(g->n));
  for (int32_t& y : g->labels) {
    SGNN_RETURN_IF_ERROR(r->I32(&y));
    if (y < 0 || y >= g->num_classes) {
      return Status::IOError("label outside [0, classes)");
    }
  }
  if (r->remaining() != 0) {
    return Status::IOError("trailing bytes after graph payload");
  }
  return Status::OK();
}

std::mutex& IoHookMutex() {
  static std::mutex mu;
  return mu;
}

IoFaultHook& IoHookSlot() {
  static IoFaultHook hook;
  return hook;
}

Status CheckIoFault(const char* op, const std::string& path) {
  IoFaultHook hook;
  {
    std::lock_guard<std::mutex> lock(IoHookMutex());
    hook = IoHookSlot();
  }
  if (!hook) return Status::OK();
  return hook(op, path);
}

}  // namespace

void SetIoFaultHook(IoFaultHook hook) {
  std::lock_guard<std::mutex> lock(IoHookMutex());
  IoHookSlot() = std::move(hook);
}

Status SaveGraph(const Graph& g, const std::string& path) {
  SGNN_RETURN_IF_ERROR(CheckIoFault("save", path));
  serialize::Writer w;
  w.PutI32(g.num_classes);
  sparse::AppendCsr(g.adj, &w);
  serialize::AppendMatrix(g.features, &w);
  for (const int32_t y : g.labels) w.PutI32(y);
  return serialize::WriteFramedFile(path, kMagic, kVersion, 0, w);
}

Result<Graph> LoadGraph(const std::string& path) {
  SGNN_RETURN_IF_ERROR(CheckIoFault("load", path));
  SGNN_ASSIGN_OR_RETURN(serialize::FramedFile file,
                        serialize::ReadFramedFile(path, kMagic, kVersion));
  serialize::Reader r = file.reader();
  Graph g;
  const Status decoded = DecodeGraph(&r, &g);
  if (!decoded.ok()) {
    return Status::IOError(decoded.message() + " in " + path);
  }
  return g;
}

double EdgeHomophily(const Graph& g) {
  const auto& indptr = g.adj.indptr();
  const auto& indices = g.adj.indices();
  int64_t same = 0, total = 0;
  for (int64_t v = 0; v < g.n; ++v) {
    for (int64_t p = indptr[static_cast<size_t>(v)];
         p < indptr[static_cast<size_t>(v) + 1]; ++p) {
      const int32_t u = indices[static_cast<size_t>(p)];
      if (u == v) continue;
      ++total;
      if (g.labels[static_cast<size_t>(u)] ==
          g.labels[static_cast<size_t>(v)]) {
        ++same;
      }
    }
  }
  return total > 0 ? static_cast<double>(same) / static_cast<double>(total)
                   : 0.0;
}

double AdjustedHomophily(const Graph& g) {
  // h_adj = (h_edge - Σ_c p_c²) / (1 - Σ_c p_c²), with p_c the fraction of
  // edge endpoints carrying class c (degree-weighted class proportions).
  const auto& indptr = g.adj.indptr();
  std::vector<double> endpoint_mass(static_cast<size_t>(g.num_classes), 0.0);
  double total_deg = 0.0;
  for (int64_t v = 0; v < g.n; ++v) {
    const double deg = static_cast<double>(
        indptr[static_cast<size_t>(v) + 1] - indptr[static_cast<size_t>(v)] -
        1);  // exclude self loop
    endpoint_mass[static_cast<size_t>(g.labels[static_cast<size_t>(v)])] +=
        deg;
    total_deg += deg;
  }
  double collision = 0.0;
  if (total_deg > 0) {
    for (const double m : endpoint_mass) {
      const double p = m / total_deg;
      collision += p * p;
    }
  }
  const double h_edge = EdgeHomophily(g);
  const double denom = 1.0 - collision;
  if (denom <= 1e-12) return 0.0;
  return (h_edge - collision) / denom;
}

}  // namespace sgnn::graph
