#include "conformance/fuzz.h"

#include <algorithm>
#include <sstream>

#include "conformance/gradcheck.h"
#include "conformance/oracle.h"
#include "eval/eigen.h"
#include "tensor/rng.h"

namespace sgnn::conformance {
namespace {

FuzzCase RestrictNodes(const FuzzCase& c, int64_t keep) {
  FuzzCase t = c;
  t.n = keep;
  t.edges.clear();
  for (const auto& e : c.edges) {
    if (e.first < keep && e.second < keep) t.edges.push_back(e);
  }
  return t;
}

FuzzCase DropEdgeRange(const FuzzCase& c, size_t start, size_t len) {
  FuzzCase t = c;
  t.edges.clear();
  for (size_t i = 0; i < c.edges.size(); ++i) {
    if (i >= start && i < start + len) continue;
    t.edges.push_back(c.edges[i]);
  }
  return t;
}

void ErdosRenyi(Rng* rng, int64_t n, double p, sparse::EdgeList* edges,
                int64_t offset = 0) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(p)) {
        edges->emplace_back(static_cast<int32_t>(offset + i),
                            static_cast<int32_t>(offset + j));
      }
    }
  }
}

}  // namespace

FuzzCase CaseFromSeed(uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  // Mix the seed so consecutive trial seeds produce unrelated streams.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL);
  static const char* kFamilies[] = {"er",           "sbm",       "star",
                                    "path",         "cycle",     "disconnected",
                                    "self_loop",    "isolated",  "empty"};
  c.family = kFamilies[rng.UniformInt(9)];
  c.hops = 2 + static_cast<int>(rng.UniformInt(6));  // K ∈ [2, 7]
  c.rho = 0.5;                                       // oracle precondition
  c.self_loops = true;
  if (c.family == "er") {
    c.n = 6 + static_cast<int64_t>(rng.UniformInt(30));
    ErdosRenyi(&rng, c.n, rng.Uniform(0.1, 0.4), &c.edges);
  } else if (c.family == "sbm") {
    const int64_t half = 4 + static_cast<int64_t>(rng.UniformInt(12));
    c.n = 2 * half;
    for (int64_t i = 0; i < c.n; ++i) {
      for (int64_t j = i + 1; j < c.n; ++j) {
        const bool same = (i < half) == (j < half);
        if (rng.Bernoulli(same ? 0.4 : 0.05)) {
          c.edges.emplace_back(static_cast<int32_t>(i),
                               static_cast<int32_t>(j));
        }
      }
    }
  } else if (c.family == "star") {
    c.n = 3 + static_cast<int64_t>(rng.UniformInt(20));
    for (int64_t i = 1; i < c.n; ++i) {
      c.edges.emplace_back(0, static_cast<int32_t>(i));
    }
  } else if (c.family == "path") {
    c.n = 2 + static_cast<int64_t>(rng.UniformInt(24));
    for (int64_t i = 0; i + 1 < c.n; ++i) {
      c.edges.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(i + 1));
    }
  } else if (c.family == "cycle") {
    c.n = 3 + static_cast<int64_t>(rng.UniformInt(20));
    for (int64_t i = 0; i < c.n; ++i) {
      c.edges.emplace_back(static_cast<int32_t>(i),
                           static_cast<int32_t>((i + 1) % c.n));
    }
  } else if (c.family == "disconnected") {
    const int64_t n1 = 3 + static_cast<int64_t>(rng.UniformInt(12));
    const int64_t n2 = 3 + static_cast<int64_t>(rng.UniformInt(12));
    c.n = n1 + n2;
    ErdosRenyi(&rng, n1, 0.4, &c.edges);
    ErdosRenyi(&rng, n2, 0.4, &c.edges, /*offset=*/n1);
  } else if (c.family == "self_loop") {
    // Explicit (i, i) entries on top of the builder's own self-loop pass —
    // exercises deduplication against double self loops.
    c.n = 5 + static_cast<int64_t>(rng.UniformInt(16));
    ErdosRenyi(&rng, c.n, 0.25, &c.edges);
    for (int64_t i = 0; i < c.n; ++i) {
      if (rng.Bernoulli(0.5)) {
        c.edges.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(i));
      }
    }
  } else if (c.family == "isolated") {
    // Zero-degree rows without self loops: Ã has all-zero rows there.
    const int64_t core = 4 + static_cast<int64_t>(rng.UniformInt(14));
    c.n = core + 1 + static_cast<int64_t>(rng.UniformInt(4));
    ErdosRenyi(&rng, core, 0.4, &c.edges);
    c.self_loops = false;
  } else {  // empty
    c.n = 1 + static_cast<int64_t>(rng.UniformInt(8));
    c.self_loops = rng.Bernoulli(0.5);
  }
  return c;
}

std::string FormatCase(const FuzzCase& c) {
  std::ostringstream os;
  os << "fuzz case seed=" << c.seed << " family=" << c.family << " n=" << c.n
     << " hops=" << c.hops << " rho=" << c.rho
     << " self_loops=" << (c.self_loops ? 1 : 0) << " edges=[";
  for (size_t i = 0; i < c.edges.size(); ++i) {
    if (i > 0) os << ",";
    os << "(" << c.edges[i].first << "," << c.edges[i].second << ")";
  }
  os << "]";
  return os.str();
}

TrialResult CheckCaseAgainstOracle(const FuzzCase& c,
                                   const std::vector<std::string>& filters) {
  auto adj = sparse::BuildAdjacency(c.n, c.edges, c.self_loops);
  if (!adj.ok()) {
    return {false, "build adjacency: " + adj.status().ToString()};
  }
  const sparse::CsrMatrix norm = sparse::NormalizeAdjacency(adj.value(), c.rho);
  const Matrix lap = eval::DenseLaplacian(norm);
  auto eig = eval::JacobiEigen(lap);
  if (!eig.ok()) {
    return {false, "eigendecomposition: " + eig.status().ToString()};
  }
  Rng xrng(c.seed ^ 0xFEEDFACEULL);
  Matrix x(c.n, 3, Device::kHost);
  x.FillNormal(&xrng);

  const std::vector<std::string> names =
      filters.empty() ? filters::AllFilterNames() : filters;
  OracleOptions opt;
  opt.hops = c.hops;
  std::string fails;
  for (const auto& name : names) {
    auto report = CheckSpectralConformance(name, norm, eig.value(), x, opt);
    if (!report.ok()) {
      fails += name + ": " + report.status().ToString() + "; ";
    } else if (!report.value().pass) {
      fails += name + ": " + report.value().detail + "; ";
    }
  }
  // One seed-selected filter per trial also runs the FD gradient check, so
  // the fuzzer exercises backward passes on adversarial topologies without
  // multiplying the trial cost by 27.
  if (!names.empty()) {
    const std::string& gname = names[c.seed % names.size()];
    GradCheckOptions gopt;
    gopt.hops = c.hops;
    gopt.seed = c.seed ^ 0x6AD0;
    auto greports = CheckFilterGradients(gname, norm, x, gopt);
    if (!greports.ok()) {
      fails += gname + "/grad: " + greports.status().ToString() + "; ";
    } else {
      for (const auto& r : greports.value()) {
        if (!r.pass) fails += r.block + ": " + r.detail + "; ";
      }
    }
  }
  return {fails.empty(), fails};
}

FuzzCase ShrinkCase(FuzzCase c, const CaseCheck& check) {
  int budget = 256;  // check invocations
  auto fails = [&check, &budget](const FuzzCase& t) {
    if (budget <= 0) return false;
    --budget;
    return !check(t).pass;
  };
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    // Drop trailing node ranges, halving granularity.
    for (int64_t cut = c.n / 2; cut >= 1; cut /= 2) {
      if (c.n - cut < 1) continue;
      FuzzCase t = RestrictNodes(c, c.n - cut);
      if (fails(t)) {
        c = std::move(t);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Drop edge chunks, halving granularity.
    bool edge_removed = false;
    for (size_t chunk = std::max<size_t>(c.edges.size() / 2, 1);
         !c.edges.empty(); chunk = chunk / 2) {
      for (size_t start = 0; start + chunk <= c.edges.size(); start += chunk) {
        FuzzCase t = DropEdgeRange(c, start, chunk);
        if (fails(t)) {
          c = std::move(t);
          edge_removed = true;
          break;
        }
      }
      if (edge_removed || chunk == 1) break;
    }
    if (edge_removed) {
      changed = true;
      continue;
    }
    // Lower the hop count.
    if (c.hops > 1) {
      FuzzCase t = c;
      t.hops = c.hops - 1;
      if (fails(t)) {
        c = std::move(t);
        changed = true;
      }
    }
  }
  return c;
}

FuzzReport RunFuzz(const FuzzOptions& options, runtime::Supervisor* supervisor,
                   const CaseCheck& check) {
  const CaseCheck property =
      check ? check : [&options](const FuzzCase& c) {
        return CheckCaseAgainstOracle(c, options.filters);
      };
  FuzzReport report;
  for (int i = 0; i < options.trials; ++i) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    FuzzCase c = CaseFromSeed(seed);
    ++report.trials;
    TrialResult result;
    if (supervisor != nullptr) {
      runtime::CellKey key(c.family, "conformance", "oracle",
                           static_cast<int>(seed), "fuzz");
      const bool resumed = supervisor->Find(key) != nullptr;
      runtime::CellRecord record = supervisor->Run(key, [&]() {
        result = property(c);
        models::TrainResult tr;
        if (!result.pass) tr.status = Status::Internal(result.detail);
        return tr;
      });
      if (resumed) {
        ++report.resumed;
        result.pass = record.status == runtime::CellStatus::kOk;
        result.detail = record.detail;
      }
    } else {
      result = property(c);
    }
    if (!result.pass) {
      FuzzFailure f;
      f.seed = seed;
      f.family = c.family;
      f.detail = result.detail;
      f.minimal = ShrinkCase(c, property);
      ++report.failures;
      report.failing.push_back(std::move(f));
    }
  }
  return report;
}

}  // namespace sgnn::conformance
