#include "graph/io.h"

#include <cstdio>
#include <mutex>
#include <vector>

namespace sgnn::graph {

namespace {

constexpr uint64_t kMagic = 0x53474E4E47524148ULL;  // "SGNNGRAH"

bool WriteAll(std::FILE* f, const void* data, size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

bool ReadAll(std::FILE* f, void* data, size_t bytes) {
  return std::fread(data, 1, bytes, f) == bytes;
}

/// *acc += a * b; false when either step overflows.
bool AddProduct(uint64_t a, uint64_t b, uint64_t* acc) {
  uint64_t product = 0;
  return !__builtin_mul_overflow(a, b, &product) &&
         !__builtin_add_overflow(*acc, product, acc);
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
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const int64_t n = g.n;
  const int64_t nnz = g.adj.nnz();
  const int64_t fi = g.features.cols();
  const int32_t classes = g.num_classes;
  bool ok = WriteAll(f, &kMagic, sizeof(kMagic)) &&
            WriteAll(f, &n, sizeof(n)) && WriteAll(f, &nnz, sizeof(nnz)) &&
            WriteAll(f, &fi, sizeof(fi)) &&
            WriteAll(f, &classes, sizeof(classes));
  ok = ok && WriteAll(f, g.adj.indptr().data(),
                      g.adj.indptr().size() * sizeof(int64_t));
  ok = ok && WriteAll(f, g.adj.indices().data(),
                      g.adj.indices().size() * sizeof(int32_t));
  ok = ok && WriteAll(f, g.adj.values().data(),
                      g.adj.values().size() * sizeof(float));
  ok = ok && WriteAll(f, g.features.data(), g.features.bytes());
  ok = ok && WriteAll(f, g.labels.data(), g.labels.size() * sizeof(int32_t));
  std::fclose(f);
  if (!ok) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<Graph> LoadGraph(const std::string& path) {
  SGNN_RETURN_IF_ERROR(CheckIoFault("load", path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint64_t magic = 0;
  int64_t n = 0, nnz = 0, fi = 0;
  int32_t classes = 0;
  bool ok = ReadAll(f, &magic, sizeof(magic)) && magic == kMagic &&
            ReadAll(f, &n, sizeof(n)) && ReadAll(f, &nnz, sizeof(nnz)) &&
            ReadAll(f, &fi, sizeof(fi)) &&
            ReadAll(f, &classes, sizeof(classes)) && n > 0 && nnz >= 0 &&
            fi >= 0 && classes > 0;
  // The header's sizes decide every allocation below, so they must describe
  // exactly the bytes the file still holds before anything is allocated.
  const long header_end = ok ? std::ftell(f) : -1;
  ok = ok && header_end >= 0 && std::fseek(f, 0, SEEK_END) == 0;
  const long file_end = ok ? std::ftell(f) : -1;
  ok = ok && file_end >= header_end &&
       std::fseek(f, header_end, SEEK_SET) == 0;
  if (!ok) {
    std::fclose(f);
    return Status::IOError("corrupt header in " + path);
  }
  // indptr, indices + values, features, labels.
  const auto rows = static_cast<uint64_t>(n);
  uint64_t feature_row = 0, body = 0;
  if (!AddProduct(rows + 1, sizeof(int64_t), &body) ||
      !AddProduct(static_cast<uint64_t>(nnz), sizeof(int32_t) + sizeof(float),
                  &body) ||
      !AddProduct(static_cast<uint64_t>(fi), sizeof(float), &feature_row) ||
      !AddProduct(rows, feature_row, &body) ||
      !AddProduct(rows, sizeof(int32_t), &body) ||
      body != static_cast<uint64_t>(file_end - header_end)) {
    std::fclose(f);
    return Status::IOError("header sizes do not match the file body in " +
                           path);
  }
  std::vector<int64_t> indptr(static_cast<size_t>(n) + 1);
  std::vector<int32_t> indices(static_cast<size_t>(nnz));
  std::vector<float> values(static_cast<size_t>(nnz));
  Graph g;
  g.n = n;
  g.num_classes = classes;
  g.features = Matrix(n, fi, Device::kHost);
  g.labels.resize(static_cast<size_t>(n));
  ok = ReadAll(f, indptr.data(), indptr.size() * sizeof(int64_t)) &&
       ReadAll(f, indices.data(), indices.size() * sizeof(int32_t)) &&
       ReadAll(f, values.data(), values.size() * sizeof(float)) &&
       ReadAll(f, g.features.data(), g.features.bytes()) &&
       ReadAll(f, g.labels.data(), g.labels.size() * sizeof(int32_t));
  std::fclose(f);
  if (!ok) return Status::IOError("corrupt body in " + path);
  const Status csr = sparse::ValidateCsrArrays(n, indptr, indices);
  if (!csr.ok()) {
    return Status::IOError(csr.message() + " in " + path);
  }
  for (const int32_t y : g.labels) {
    if (y < 0 || y >= classes) {
      return Status::IOError("label outside [0, classes) in " + path);
    }
  }
  g.adj = sparse::CsrMatrix(n, std::move(indptr), std::move(indices),
                            std::move(values));
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
