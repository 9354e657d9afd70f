// sgnn_conformance — numerical conformance harness CLI.
//
// Modes (--mode=fast is the default):
//   fast    oracle + gradcheck on fixture graphs, then a short fuzz sweep
//   full    the same with a long fuzz sweep (nightly budget)
//   oracle  dense spectral oracle only
//   quant   quantized MB propagation vs the dense oracle (int8 + fp16,
//           every MB-capable filter; tolerances in docs/QUANTIZATION.md)
//   shard   sharded propagation vs unsharded (bit-identity of forward and
//           precompute terms at K=1,2,4,8 shards) and vs the dense oracle,
//           every filter (docs/SHARDING.md)
//   grad    finite-difference gradient checker only
//   fuzz    property-based fuzz sweep only (--trials)
//
// Repro / debugging:
//   --seed=N          re-run exactly one fuzz trial from its journaled seed;
//                     on failure the case is shrunk and printed
//   --selftest-shrink demonstrate the shrinker on an injected property
//                     (fails on any zero-degree node) and print the minimal
//                     failing graph
//   --filters=a,b,c   restrict checks to a filter subset
//   --trials=N        fuzz sweep length
//   --journal=PATH    journal fuzz trials to PATH (resume skips completed
//                     trials); default honors SPECTRAL_JOURNAL_DIR
//
// Exit status: 0 when every check passed, 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "conformance/fuzz.h"
#include "conformance/gradcheck.h"
#include "conformance/oracle.h"
#include "conformance/quant_check.h"
#include "conformance/shard_check.h"
#include "eval/eigen.h"
#include "quant/quantize.h"
#include "sparse/adjacency.h"
#include "tensor/rng.h"

namespace {

using namespace sgnn;

struct Fixture {
  std::string name;
  sparse::CsrMatrix norm;
  eval::EigenDecomposition eig;
  Matrix x;
};

// Two deterministic fixture graphs: a dense-ish ER graph (generic case) and
// a two-block SBM (strong community structure → spread-out spectrum).
std::vector<Fixture> BuildFixtures() {
  std::vector<Fixture> fixtures;
  struct Spec {
    const char* name;
    int64_t n;
    uint64_t seed;
    bool sbm;
  };
  const Spec specs[] = {{"er32", 32, 7, false}, {"sbm28", 28, 11, true}};
  for (const auto& spec : specs) {
    Rng rng(spec.seed);
    sparse::EdgeList edges;
    for (int64_t i = 0; i < spec.n; ++i) {
      for (int64_t j = i + 1; j < spec.n; ++j) {
        double p = 0.2;
        if (spec.sbm) {
          const bool same = (i < spec.n / 2) == (j < spec.n / 2);
          p = same ? 0.45 : 0.05;
        }
        if (rng.Bernoulli(p)) {
          edges.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
        }
      }
    }
    auto adj = sparse::BuildAdjacency(spec.n, edges, /*add_self_loops=*/true);
    SGNN_CHECK_OK(adj);
    Fixture f;
    f.name = spec.name;
    f.norm = sparse::NormalizeAdjacency(adj.value(), 0.5);
    auto eig = eval::JacobiEigen(eval::DenseLaplacian(f.norm));
    SGNN_CHECK_OK(eig);
    f.eig = eig.MoveValue();
    Rng xrng(spec.seed ^ 0xF00D);
    f.x = Matrix(spec.n, 4, Device::kHost);
    f.x.FillNormal(&xrng);
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

bool RunOracle(const std::vector<std::string>& filters) {
  bool ok = true;
  for (const auto& fix : BuildFixtures()) {
    std::printf("== spectral oracle on %s (n=%lld) ==\n", fix.name.c_str(),
                static_cast<long long>(fix.norm.n()));
    std::vector<conformance::OracleReport> reports;
    if (filters.empty()) {
      auto r = conformance::CheckAllFilters(fix.norm, fix.eig, fix.x);
      SGNN_CHECK_OK(r);
      reports = r.MoveValue();
    } else {
      for (const auto& name : filters) {
        auto r = conformance::CheckSpectralConformance(name, fix.norm, fix.eig,
                                                       fix.x);
        SGNN_CHECK_OK(r);
        reports.push_back(r.MoveValue());
      }
    }
    std::fputs(conformance::FormatReports(reports).c_str(), stdout);
    ok = ok && conformance::AllPass(reports);
  }
  return ok;
}

bool RunQuant(const std::vector<std::string>& filters) {
  bool ok = true;
  const quant::Precision precisions[] = {quant::Precision::kFp16,
                                         quant::Precision::kInt8};
  for (const auto& fix : BuildFixtures()) {
    for (const quant::Precision p : precisions) {
      std::printf("== quant conformance (%s) on %s (n=%lld) ==\n",
                  quant::PrecisionName(p), fix.name.c_str(),
                  static_cast<long long>(fix.norm.n()));
      std::vector<conformance::QuantReport> reports;
      if (filters.empty()) {
        auto r = conformance::CheckAllQuant(fix.norm, fix.eig, fix.x, p);
        SGNN_CHECK_OK(r);
        reports = r.MoveValue();
      } else {
        for (const auto& name : filters) {
          auto r = conformance::CheckQuantConformance(name, fix.norm, fix.eig,
                                                      fix.x, p);
          SGNN_CHECK_OK(r);
          reports.push_back(r.MoveValue());
        }
      }
      std::fputs(conformance::FormatQuantReports(reports).c_str(), stdout);
      ok = ok && conformance::AllQuantPass(reports);
    }
  }
  return ok;
}

bool RunShard(const std::vector<std::string>& filters) {
  bool ok = true;
  for (const auto& fix : BuildFixtures()) {
    std::printf("== shard conformance on %s (n=%lld) ==\n", fix.name.c_str(),
                static_cast<long long>(fix.norm.n()));
    std::vector<conformance::ShardReport> reports;
    if (filters.empty()) {
      auto r = conformance::CheckAllSharded(fix.norm, fix.eig, fix.x);
      SGNN_CHECK_OK(r);
      reports = r.MoveValue();
    } else {
      for (const auto& name : filters) {
        auto r =
            conformance::CheckShardConformance(name, fix.norm, fix.eig, fix.x);
        SGNN_CHECK_OK(r);
        reports.push_back(r.MoveValue());
      }
    }
    std::fputs(conformance::FormatShardReports(reports).c_str(), stdout);
    ok = ok && conformance::AllShardPass(reports);
  }
  return ok;
}

bool RunGradcheck(const std::vector<std::string>& filters) {
  const auto fixtures = BuildFixtures();
  const auto& fix = fixtures.front();
  std::printf("== gradient check on %s ==\n", fix.name.c_str());
  std::vector<conformance::GradBlockReport> reports;
  if (filters.empty()) {
    auto r = conformance::CheckAllGradients(fix.norm, fix.x);
    SGNN_CHECK_OK(r);
    reports = r.MoveValue();
  } else {
    for (const auto& name : filters) {
      auto r = conformance::CheckFilterGradients(name, fix.norm, fix.x);
      SGNN_CHECK_OK(r);
      for (auto& b : r.value()) reports.push_back(std::move(b));
    }
  }
  std::fputs(conformance::FormatReports(reports).c_str(), stdout);
  return conformance::AllPass(reports);
}

bool RunFuzzSweep(uint64_t base_seed, int trials,
                  const std::vector<std::string>& filters,
                  const std::string& journal) {
  conformance::FuzzOptions opt;
  opt.base_seed = base_seed;
  opt.trials = trials;
  opt.filters = filters;
  runtime::Supervisor supervisor("conformance_fuzz", journal);
  std::printf("== fuzz sweep: %d trials from seed %llu ==\n", trials,
              static_cast<unsigned long long>(base_seed));
  auto report = conformance::RunFuzz(opt, &supervisor);
  std::printf("trials=%d failures=%d resumed=%d\n", report.trials,
              report.failures, report.resumed);
  for (const auto& f : report.failing) {
    std::printf("FAIL seed=%llu family=%s\n  %s\n  minimal: %s\n",
                static_cast<unsigned long long>(f.seed), f.family.c_str(),
                f.detail.c_str(), conformance::FormatCase(f.minimal).c_str());
  }
  return report.failures == 0;
}

// Re-run one journal-reproduced trial; shrink and print on failure.
bool RunSingleSeed(uint64_t seed, const std::vector<std::string>& filters) {
  const conformance::FuzzCase c = conformance::CaseFromSeed(seed);
  std::printf("%s\n", conformance::FormatCase(c).c_str());
  const auto result = conformance::CheckCaseAgainstOracle(c, filters);
  if (result.pass) {
    std::printf("seed %llu: PASS\n", static_cast<unsigned long long>(seed));
    return true;
  }
  std::printf("seed %llu: FAIL\n  %s\n",
              static_cast<unsigned long long>(seed), result.detail.c_str());
  const auto minimal = conformance::ShrinkCase(
      c, [&filters](const conformance::FuzzCase& t) {
        return conformance::CheckCaseAgainstOracle(t, filters);
      });
  std::printf("shrunk minimal failing graph:\n  %s\n",
              conformance::FormatCase(minimal).c_str());
  return false;
}

// Shrinker self-test: an injected property that fails whenever the graph
// has a zero-degree node and self loops are off. Finds a seeded failing
// case, shrinks it, and verifies the minimum is a single isolated node.
bool RunShrinkSelftest() {
  const conformance::CaseCheck has_isolated =
      [](const conformance::FuzzCase& c) -> conformance::TrialResult {
    if (c.self_loops) return {true, ""};
    std::vector<int> degree(static_cast<size_t>(c.n), 0);
    for (const auto& e : c.edges) {
      ++degree[static_cast<size_t>(e.first)];
      ++degree[static_cast<size_t>(e.second)];
    }
    for (int d : degree) {
      if (d == 0) return {false, "graph has a zero-degree node"};
    }
    return {true, ""};
  };
  // Scan seeds for a failing trial, as a fuzz sweep would.
  for (uint64_t seed = 1; seed < 4096; ++seed) {
    conformance::FuzzCase c = conformance::CaseFromSeed(seed);
    if (has_isolated(c).pass) continue;
    std::printf("selftest: failing %s\n", conformance::FormatCase(c).c_str());
    const auto minimal = conformance::ShrinkCase(c, has_isolated);
    std::printf("selftest: minimal %s\n",
                conformance::FormatCase(minimal).c_str());
    const bool shrunk = minimal.n == 1 && minimal.edges.empty();
    std::printf("selftest: %s\n", shrunk ? "PASS" : "FAIL (not minimal)");
    return shrunk;
  }
  std::printf("selftest: FAIL (no failing seed found)\n");
  return false;
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "fast";
  std::vector<std::string> filters;
  std::string journal;
  uint64_t seed = 0;
  bool have_seed = false;
  bool selftest = false;
  int trials = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      if (arg.compare(0, len, flag) == 0) return arg.c_str() + len;
      return nullptr;
    };
    if (const char* v = value("--mode=")) {
      mode = v;
    } else if (const char* v = value("--filters=")) {
      filters = SplitCsv(v);
    } else if (const char* v = value("--journal=")) {
      journal = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (const char* v = value("--trials=")) {
      trials = std::atoi(v);
    } else if (arg == "--selftest-shrink") {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }

  if (selftest) return RunShrinkSelftest() ? 0 : 1;
  if (have_seed) return RunSingleSeed(seed, filters) ? 0 : 1;

  bool ok = true;
  if (mode == "oracle") {
    ok = RunOracle(filters);
  } else if (mode == "quant") {
    ok = RunQuant(filters);
  } else if (mode == "shard") {
    ok = RunShard(filters);
  } else if (mode == "grad") {
    ok = RunGradcheck(filters);
  } else if (mode == "fuzz") {
    ok = RunFuzzSweep(1, trials > 0 ? trials : 50, filters, journal);
  } else if (mode == "fast" || mode == "full") {
    ok = RunOracle(filters) && ok;
    ok = RunGradcheck(filters) && ok;
    const int n = trials > 0 ? trials : (mode == "full" ? 200 : 40);
    ok = RunFuzzSweep(1, n, filters, journal) && ok;
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 1;
  }
  std::printf("conformance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
