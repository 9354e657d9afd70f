// Unit tests for sgnn_lint (tools/lint/lint.h): every rule gets a positive
// fixture (fires), a negative fixture (stays quiet), a NOLINT-suppressed
// fixture, and a string/comment false-positive fixture. The repo-wide run
// is a separate CTest test (`lint_repo`) — these tests pin the *rules*.

#include "lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using sgnn::lint::Config;
using sgnn::lint::Finding;
using sgnn::lint::LintSource;

/// Findings for `source` linted as `path`, with a few fixture status
/// functions on top of the defaults.
std::vector<Finding> Lint(const std::string& path, const std::string& source) {
  Config config = Config::Default();
  config.status_functions.insert("SaveGraph");
  config.status_functions.insert("Precompute");
  return LintSource(path, source, config);
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

std::string Render(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += f.ToString() + "\n";
  return out;
}

// --- discarded-status -------------------------------------------------------

TEST(DiscardedStatusTest, FlagsBareCallStatement) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g) {
      SaveGraph(g, "/tmp/g.bin");
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, FlagsBareMemberCall) {
  const auto f = Lint("src/models/x.cc", R"cc(
    void Warm(Filter* filter, const Ctx& ctx, const Matrix& x) {
      filter->Precompute(ctx, x, &terms);
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, FlagsCallAfterControlFlow) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(bool dump, const Graph& g) {
      if (dump) SaveGraph(g, "/tmp/g.bin");
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, FlagsDiscardedUnavailableFactory) {
  // "Unavailable" ships in Config::Default's status_functions: a dropped
  // admission-control rejection is a silently-shed query.
  const auto f = Lint("src/serve/x.cc", R"cc(
    void Shed() {
      Status::Unavailable("queue full");
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, QuietWhenChecked) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    Status Save(const Graph& g) {
      SGNN_RETURN_IF_ERROR(SaveGraph(g, "/tmp/a"));
      Status s = SaveGraph(g, "/tmp/b");
      if (!SaveGraph(g, "/tmp/c").ok()) return s;
      return SaveGraph(g, "/tmp/d");
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, QuietOnExplicitVoidCast) {
  // (void)-cast is the compiler-parity explicit discard; review sees it.
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g) { (void)SaveGraph(g, "/tmp/g.bin"); }
  )cc");
  EXPECT_FALSE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, QuietInStringsAndComments) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    // SaveGraph(g, "/tmp/g.bin");
    const char* doc = "SaveGraph(g, path); drops the status";
  )cc");
  EXPECT_FALSE(HasRule(f, "discarded-status")) << Render(f);
}

TEST(DiscardedStatusTest, SuppressedWithReason) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g) {
      // NOLINTNEXTLINE(discarded-status): best-effort debug dump
      SaveGraph(g, "/tmp/g.bin");
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "discarded-status")) << Render(f);
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
}

// --- layering ---------------------------------------------------------------

TEST(LayeringTest, FlagsBackEdge) {
  const auto f = Lint("src/tensor/ops.cc", R"cc(
    #include "core/parallel.h"
  )cc");
  EXPECT_TRUE(HasRule(f, "layering")) << Render(f);
}

TEST(LayeringTest, FlagsSparseToModels) {
  const auto f = Lint("src/sparse/csr.cc", R"cc(
    #include "models/trainer.h"
  )cc");
  EXPECT_TRUE(HasRule(f, "layering")) << Render(f);
}

TEST(LayeringTest, AllowsDownwardAndSameGroupEdges) {
  const auto f = Lint("src/models/trainer.cc", R"cc(
    #include <vector>
    #include "core/filter.h"
    #include "eval/metrics.h"
    #include "models/trainer.h"
    #include "tensor/parallel.h"
  )cc");
  EXPECT_FALSE(HasRule(f, "layering")) << Render(f);
}

TEST(LayeringTest, BenchAndToolsAreUnconstrained) {
  const auto f = Lint("bench/bench_x.cpp", R"cc(
    #include "runtime/supervisor.h"
    #include "models/trainer.h"
  )cc");
  EXPECT_FALSE(HasRule(f, "layering")) << Render(f);
}

TEST(LayeringTest, ConformanceMayIncludeRuntimeButNotViceVersa) {
  // conformance sits above runtime in the DAG: it journals fuzz trials
  // through the Supervisor, while nothing below may depend on it.
  const auto ok = Lint("src/conformance/fuzz.cc", R"cc(
    #include "runtime/supervisor.h"
    #include "eval/eigen.h"
    #include "core/registry.h"
    #include "tensor/rng.h"
  )cc");
  EXPECT_FALSE(HasRule(ok, "layering")) << Render(ok);
  const auto bad = Lint("src/runtime/supervisor.cc", R"cc(
    #include "conformance/oracle.h"
  )cc");
  EXPECT_TRUE(HasRule(bad, "layering")) << Render(bad);
}

TEST(LayeringTest, ServeMayIncludeRuntimeAndModelsButNotViceVersa) {
  // serve is a top-of-stack src/ layer: checkpoints wrap trainer exports and
  // serving benches journal through runtime, but no training/runtime code
  // may grow a dependency on the serving stack (only bench/tools/tests may
  // include serve headers).
  const auto ok = Lint("src/serve/engine.cc", R"cc(
    #include "serve/engine.h"
    #include "runtime/supervisor.h"
    #include "models/trainer.h"
    #include "core/registry.h"
    #include "tensor/matrix.h"
  )cc");
  EXPECT_FALSE(HasRule(ok, "layering")) << Render(ok);
  const auto bad_models = Lint("src/models/trainer.cc", R"cc(
    #include "serve/checkpoint.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_models, "layering")) << Render(bad_models);
  const auto bad_runtime = Lint("src/runtime/supervisor.cc", R"cc(
    #include "serve/engine.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_runtime, "layering")) << Render(bad_runtime);
  const auto tools_ok = Lint("tools/sgnn_serve.cpp", R"cc(
    #include "serve/engine.h"
    #include "serve/checkpoint.h"
  )cc");
  EXPECT_FALSE(HasRule(tools_ok, "layering")) << Render(tools_ok);
}

TEST(LayeringTest, QuantIsPostTrainingOnly) {
  // quant sits beside models/eval: serve and conformance consume it, but
  // the training stack (nn, models, runtime) must never see quantized
  // types — quantization is strictly post-training (docs/QUANTIZATION.md).
  const auto quant_ok = Lint("src/quant/kernels.cc", R"cc(
    #include "quant/kernels.h"
    #include "core/filter.h"
    #include "nn/mlp.h"
    #include "tensor/parallel.h"
  )cc");
  EXPECT_FALSE(HasRule(quant_ok, "layering")) << Render(quant_ok);
  const auto serve_ok = Lint("src/serve/checkpoint.cc", R"cc(
    #include "serve/checkpoint.h"
    #include "quant/quantize.h"
  )cc");
  EXPECT_FALSE(HasRule(serve_ok, "layering")) << Render(serve_ok);
  const auto conf_ok = Lint("src/conformance/quant_check.cc", R"cc(
    #include "conformance/quant_check.h"
    #include "quant/quantize.h"
  )cc");
  EXPECT_FALSE(HasRule(conf_ok, "layering")) << Render(conf_ok);
  const auto bad_nn = Lint("src/nn/mlp.cc", R"cc(
    #include "quant/quantize.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_nn, "layering")) << Render(bad_nn);
  const auto bad_models = Lint("src/models/trainer.cc", R"cc(
    #include "quant/kernels.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_models, "layering")) << Render(bad_models);
  const auto bad_quant = Lint("src/quant/quantize.cc", R"cc(
    #include "runtime/supervisor.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_quant, "layering")) << Render(bad_quant);
}

TEST(LayeringTest, OpgraphSitsBetweenTensorAndSparseCore) {
  // opgraph (docs/OPGRAPH.md) sits directly on tensor and feeds
  // sparse/core: it abstracts the propagation matrix behind SpmmOperator
  // instead of including sparse/, and core/filter.h is the first layer
  // that sees both sides.
  const auto opgraph_ok = Lint("src/opgraph/executor.cc", R"cc(
    #include "opgraph/executor.h"
    #include "opgraph/fusion.h"
    #include "tensor/device.h"
    #include "tensor/ops.h"
  )cc");
  EXPECT_FALSE(HasRule(opgraph_ok, "layering")) << Render(opgraph_ok);
  const auto core_ok = Lint("src/core/poly_base.cc", R"cc(
    #include "core/filter.h"
    #include "opgraph/executor.h"
    #include "sparse/csr.h"
  )cc");
  EXPECT_FALSE(HasRule(core_ok, "layering")) << Render(core_ok);
  const auto sparse_ok = Lint("src/sparse/csr.cc", R"cc(
    #include "opgraph/graph.h"
  )cc");
  EXPECT_FALSE(HasRule(sparse_ok, "layering")) << Render(sparse_ok);
  const auto bad_sparse_edge = Lint("src/opgraph/graph.cc", R"cc(
    #include "sparse/csr.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_sparse_edge, "layering")) << Render(bad_sparse_edge);
  const auto bad_core_edge = Lint("src/opgraph/planner.cc", R"cc(
    #include "core/filter.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_core_edge, "layering")) << Render(bad_core_edge);
  const auto bad_nn_edge = Lint("src/nn/mlp.cc", R"cc(
    #include "opgraph/graph.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_nn_edge, "layering")) << Render(bad_nn_edge);
}

TEST(LayeringTest, ShardSitsBesideGraphAboveSparse) {
  // shard (edge-cut partitioner + halo exchange, docs/SHARDING.md) sits
  // directly on sparse/opgraph/tensor. Filters see shards only through the
  // abstract opgraph::SpmmOperator, so shard must never include core — and
  // never reach up into serve or quant.
  const auto shard_ok = Lint("src/shard/plan.cc", R"cc(
    #include "shard/plan.h"
    #include "shard/partition.h"
    #include "sparse/csr.h"
    #include "opgraph/graph.h"
    #include "tensor/matrix.h"
  )cc");
  EXPECT_FALSE(HasRule(shard_ok, "layering")) << Render(shard_ok);
  // models builds shard plans when TrainConfig::num_shards > 1.
  const auto models_ok = Lint("src/models/trainer.cc", R"cc(
    #include "shard/plan.h"
    #include "shard/spmm.h"
  )cc");
  EXPECT_FALSE(HasRule(models_ok, "layering")) << Render(models_ok);
  const auto conf_ok = Lint("src/conformance/shard_check.cc", R"cc(
    #include "shard/plan.h"
    #include "shard/spmm.h"
  )cc");
  EXPECT_FALSE(HasRule(conf_ok, "layering")) << Render(conf_ok);
  const auto bad_serve = Lint("src/shard/spmm.cc", R"cc(
    #include "serve/engine.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_serve, "layering")) << Render(bad_serve);
  const auto bad_quant = Lint("src/shard/plan.cc", R"cc(
    #include "quant/quantize.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_quant, "layering")) << Render(bad_quant);
  const auto bad_core = Lint("src/shard/spmm.cc", R"cc(
    #include "core/filter.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_core, "layering")) << Render(bad_core);
  // Nothing below shard may depend on it.
  const auto bad_sparse = Lint("src/sparse/csr.cc", R"cc(
    #include "shard/partition.h"
  )cc");
  EXPECT_TRUE(HasRule(bad_sparse, "layering")) << Render(bad_sparse);
}

TEST(LayeringTest, IgnoresIncludesInComments) {
  const auto f = Lint("src/tensor/x.cc", R"cc(
    // #include "runtime/supervisor.h"
    /* #include "models/trainer.h" */
  )cc");
  EXPECT_FALSE(HasRule(f, "layering")) << Render(f);
}

TEST(LayeringTest, SuppressedWithReason) {
  const auto f = Lint("src/tensor/x.cc",
                      "#include \"core/filter.h\"  "
                      "// NOLINT(layering): transitional shim, tracked\n");
  EXPECT_FALSE(HasRule(f, "layering")) << Render(f);
}

// --- parallel-safety --------------------------------------------------------

TEST(ParallelSafetyTest, FlagsJournalAppendInBody) {
  const auto f = Lint("src/models/x.cc", R"cc(
    void Train(Journal* journal) {
      parallel::ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        journal->Append("bench", record);
      });
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "parallel-safety")) << Render(f);
}

TEST(ParallelSafetyTest, FlagsMutableStaticLocal) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Kernel() {
      ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        static int64_t calls = 0;
        ++calls;
      });
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "parallel-safety")) << Render(f);
}

TEST(ParallelSafetyTest, FlagsExitInBody) {
  const auto f = Lint("bench/bench_x.cpp", R"cc(
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      if (lo > hi) exit(1);
    });
  )cc");
  EXPECT_TRUE(HasRule(f, "parallel-safety")) << Render(f);
}

TEST(ParallelSafetyTest, QuietOnStaticConstAndPlainWork) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Kernel(float* out, const float* in) {
      ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        static const int kWidth = 8;
        static_assert(sizeof(float) == 4);
        for (int64_t i = lo; i < hi; ++i) out[i] = in[i] * kWidth;
      });
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "parallel-safety")) << Render(f);
}

TEST(ParallelSafetyTest, QuietOutsideTheLambda) {
  // The same calls are fine on the coordinating thread.
  const auto f = Lint("src/models/x.cc", R"cc(
    void Train(Journal* journal) {
      ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) { work(lo, hi); });
      journal->Append("bench", record);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "parallel-safety")) << Render(f);
}

TEST(ParallelSafetyTest, SuppressedWithReason) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Kernel() {
      ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
        // NOLINTNEXTLINE(parallel-safety): guarded by once_flag above
        static int table = Build();
      });
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "parallel-safety")) << Render(f);
}

// --- determinism ------------------------------------------------------------

TEST(DeterminismTest, FlagsRandAndTime) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    int Noise() { return rand() + static_cast<int>(time(nullptr)); }
  )cc");
  EXPECT_TRUE(HasRule(f, "determinism")) << Render(f);
}

TEST(DeterminismTest, FlagsRandomDevice) {
  const auto f = Lint("bench/bench_x.cpp", R"cc(
    std::mt19937 gen{std::random_device{}()};
  )cc");
  EXPECT_TRUE(HasRule(f, "determinism")) << Render(f);
}

TEST(DeterminismTest, FlagsRawClockRead) {
  const auto f = Lint("src/models/x.cc", R"cc(
    auto t0 = std::chrono::steady_clock::now();
  )cc");
  EXPECT_TRUE(HasRule(f, "determinism")) << Render(f);
}

TEST(DeterminismTest, AllowsRngModuleAndTimer) {
  const auto rng = Lint("src/tensor/rng.cc", R"cc(
    uint64_t Entropy() { return std::random_device{}(); }
  )cc");
  EXPECT_FALSE(HasRule(rng, "determinism")) << Render(rng);
  const auto timer = Lint("src/eval/table.h", R"cc(
    void Reset() { start_ = std::chrono::steady_clock::now(); }
  )cc");
  EXPECT_FALSE(HasRule(timer, "determinism")) << Render(timer);
}

TEST(DeterminismTest, QuietOnLookalikes) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    // rand() would be wrong here
    double wall_time = timer.ElapsedMs();   // "time" as a substring
    const char* msg = "uses time() and rand()";
    int rand_count = 3;  // identifier containing rand
  )cc");
  EXPECT_FALSE(HasRule(f, "determinism")) << Render(f);
}

TEST(DeterminismTest, SuppressedWithReason) {
  const auto f = Lint("tools/x.cc", R"cc(
    // NOLINTNEXTLINE(determinism): interactive tool, wall clock is the point
    auto t0 = std::chrono::system_clock::now();
  )cc");
  EXPECT_FALSE(HasRule(f, "determinism")) << Render(f);
}

// --- hygiene ----------------------------------------------------------------

TEST(HygieneTest, FlagsFloatEquality) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    bool Same(double a, double b) { return a == b; }
  )cc");
  EXPECT_TRUE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, FlagsFloatVectorElementEquality) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    bool Tied(const std::vector<double>& scores, size_t i, size_t j) {
      return scores[i] == scores[j];
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, FlagsFloatLiteralComparison) {
  const auto f = Lint("src/nn/x.cc", R"cc(
    bool Half(float w) { return w == 0.5f; }
  )cc");
  EXPECT_TRUE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, AllowsZeroSentinelAndIntComparisons) {
  const auto f = Lint("src/tensor/x.cc", R"cc(
    void Kernel(const float* a, int n, int m) {
      for (int i = 0; i < n; ++i) {
        if (a[i] == 0.0f) continue;   // sparsity skip: exact zero is exact
        if (i != m) work(i);
      }
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, SizeCallsAreNotFloat) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    void Check(const std::vector<double>& scores,
               const std::vector<int>& truth) {
      SGNN_CHECK(scores.size() == truth.size(), "size mismatch");
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, FloatDeclsAreScopedToTheirFunction) {
  // `double u` in Alpha must not poison the int comparison in Beta.
  const auto f = Lint("src/graph/x.cc", R"cc(
    double Alpha(Rng* rng) {
      const double u = rng->Uniform();
      return u * 2.0;
    }
    bool Beta(int u, int v) { return u == v; }
  )cc");
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, FlagsCoutAndExitInLibraryCode) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    void Dump(int bad) {
      std::cout << "table\n";
      if (bad) exit(1);
    }
  )cc");
  EXPECT_TRUE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, LibraryRulesDoNotApplyToBenchesAndTools) {
  const auto f = Lint("tools/x.cpp", R"cc(
    int main() {
      std::cout << "usage\n";
      exit(2);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

TEST(HygieneTest, SuppressedWithReason) {
  const auto f = Lint("src/core/x.cc", R"cc(
    bool BitIdentical(float a, float b) {
      // NOLINTNEXTLINE(hygiene): bit-equality is this function's contract
      return a == b;
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

// --- nolint-policy ----------------------------------------------------------

TEST(NolintPolicyTest, BareNolintIsAFinding) {
  const auto f = Lint("src/eval/x.cc", "int x = 1;  // NOLINT\n");
  EXPECT_TRUE(HasRule(f, "nolint-policy")) << Render(f);
}

TEST(NolintPolicyTest, MissingReasonIsAFinding) {
  const auto f = Lint("src/eval/x.cc", "int x = 1;  // NOLINT(hygiene)\n");
  EXPECT_TRUE(HasRule(f, "nolint-policy")) << Render(f);
}

TEST(NolintPolicyTest, UnknownRuleIsAFinding) {
  const auto f =
      Lint("src/eval/x.cc", "int x = 1;  // NOLINT(made-up): because\n");
  EXPECT_TRUE(HasRule(f, "nolint-policy")) << Render(f);
}

TEST(NolintPolicyTest, WellFormedSuppressionIsQuiet) {
  const auto f = Lint(
      "src/eval/x.cc",
      "double a, b;\n"
      "bool t = a == b;  // NOLINT(hygiene): tie-break must be exact\n");
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
  EXPECT_FALSE(HasRule(f, "hygiene")) << Render(f);
}

TEST(NolintPolicyTest, ProseMentioningNolintIsNotASuppression) {
  const auto f = Lint("src/eval/x.cc", R"cc(
    // Suppressions use NOLINT(rule): reason — see docs/LINT.md.
    int x = 1;
  )cc");
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
}

TEST(NolintPolicyTest, SuppressionDoesNotLeakToOtherRules) {
  // A hygiene suppression must not hide a determinism finding on the line.
  const auto f = Lint(
      "src/eval/x.cc",
      "double r = rand();  // NOLINT(hygiene): wrong rule on purpose\n");
  EXPECT_TRUE(HasRule(f, "determinism")) << Render(f);
}

// --- lock-discipline --------------------------------------------------------

TEST(LockDisciplineTest, FlagsAccessOutsideLock) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Inc() {
        std::lock_guard<std::mutex> lock(mu_);
        ++n_;
      }
      uint64_t Get() const { return n_; }
     private:
      mutable std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  ASSERT_TRUE(HasRule(f, "lock-discipline")) << Render(f);
  EXPECT_EQ(f.size(), 1u) << Render(f);  // Inc's locked access is quiet
  EXPECT_NE(f[0].message.find("is SGNN_GUARDED_BY(mu_)"), std::string::npos)
      << Render(f);
}

TEST(LockDisciplineTest, QuietWhenEveryAccessIsLocked) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Inc() {
        std::lock_guard<std::mutex> lock(mu_);
        ++n_;
      }
      uint64_t Get() const {
        std::lock_guard<std::mutex> lock(mu_);
        return n_;
      }
     private:
      mutable std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, HelperRaiiLockTypeViaConfig) {
  // A project RAII wrapper counts as a lock once registered in the config
  // (the repo contract: std lock types plus whatever the config adds).
  Config config = Config::Default();
  config.lock_types.insert("MutexLock");
  const auto f = LintSource("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Inc() {
        MutexLock lock(mu_);
        ++n_;
      }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc",
                            config);
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, QuietInStringsAndComments) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      // prose: n_ is read without mu_ here, which would be a violation
      const char* Doc() const { return "n_ read without holding mu_"; }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, RequiresSeedsCalleeAndChecksCallSites) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Engine {
     public:
      void Tick() { BumpLocked(); }
     private:
      void BumpLocked() SGNN_REQUIRES(mu_) { ++n_; }
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  // BumpLocked's own body is quiet (REQUIRES seeds the held set); the
  // unlocked call in Tick is the one finding.
  ASSERT_EQ(f.size(), 1u) << Render(f);
  EXPECT_EQ(f[0].rule, "lock-discipline") << Render(f);
  EXPECT_NE(f[0].message.find("requires \"mu_\" held"), std::string::npos)
      << Render(f);
}

TEST(LockDisciplineTest, QuietWhenRequiresCalleeCalledUnderLock) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Engine {
     public:
      void Tick() {
        std::lock_guard<std::mutex> lock(mu_);
        BumpLocked();
      }
     private:
      void BumpLocked() SGNN_REQUIRES(mu_) { ++n_; }
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, FlagsExcludesCalleeCalledUnderItsMutex) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Engine {
     public:
      void Stop() SGNN_EXCLUDES(mu_) { std::lock_guard<std::mutex> l(mu_); }
      void Restart() {
        std::lock_guard<std::mutex> lock(mu_);
        Stop();
      }
     private:
      std::mutex mu_;
    };
  )cc");
  ASSERT_TRUE(HasRule(f, "lock-discipline")) << Render(f);
  EXPECT_NE(Render(f).find("would self-deadlock"), std::string::npos)
      << Render(f);
}

TEST(LockDisciplineTest, FlagsDoubleAcquisition) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Inc() {
        std::lock_guard<std::mutex> a(mu_);
        std::lock_guard<std::mutex> b(mu_);
        ++n_;
      }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  ASSERT_TRUE(HasRule(f, "lock-discipline")) << Render(f);
  EXPECT_NE(Render(f).find("already held here"), std::string::npos)
      << Render(f);
}

TEST(LockDisciplineTest, UnlockEndsTheHold) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Flush() {
        std::unique_lock<std::mutex> lock(mu_);
        ++n_;
        lock.unlock();
        ++n_;
      }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  // Only the post-unlock access fires.
  ASSERT_EQ(f.size(), 1u) << Render(f);
  EXPECT_EQ(f[0].rule, "lock-discipline") << Render(f);
}

TEST(LockDisciplineTest, DeferLockDoesNotHold) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      void Lazy() {
        std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
        ++n_;
      }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_TRUE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, ArrayMemberAnnotation) {
  // The annotation sits after the array extent, DeviceTracker-style.
  const auto f = Lint("src/tensor/x.cc", R"cc(
    class Tracker {
     public:
      void Bad() { live_[0] = 1; }
     private:
      std::mutex mu_;
      size_t live_[2] SGNN_GUARDED_BY(mu_) = {0, 0};
    };
  )cc");
  EXPECT_TRUE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, ConstructorIsExempt) {
  // The ctor runs before the object is shared: no lock required.
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      Counter() { n_ = 0; }
      ~Counter() { n_ = 0; }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
}

TEST(LockDisciplineTest, SuppressedWithReason) {
  const auto f = Lint("src/serve/x.cc", R"cc(
    class Counter {
     public:
      uint64_t Racy() const {
        // NOLINTNEXTLINE(lock-discipline): stats peek, staleness tolerated
        return n_;
      }
     private:
      std::mutex mu_;
      uint64_t n_ SGNN_GUARDED_BY(mu_) = 0;
    };
  )cc");
  EXPECT_FALSE(HasRule(f, "lock-discipline")) << Render(f);
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
}

// --- device-pairing ---------------------------------------------------------

TEST(DevicePairingTest, FlagsEarlyReturnLeak) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Stage(DeviceTracker* t, size_t bytes, bool fail) {
      t->OnAlloc(Device::kAccel, bytes);
      if (fail) return;
      t->OnFree(Device::kAccel, bytes);
    }
  )cc");
  ASSERT_TRUE(HasRule(f, "device-pairing")) << Render(f);
  EXPECT_NE(Render(f).find("may not reach its matching"), std::string::npos)
      << Render(f);
}

TEST(DevicePairingTest, QuietWhenEveryPathReleases) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Stage(DeviceTracker* t, size_t bytes, bool fail) {
      t->OnAlloc(Device::kAccel, bytes);
      if (fail) {
        t->OnFree(Device::kAccel, bytes);
        return;
      }
      t->OnFree(Device::kAccel, bytes);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "device-pairing")) << Render(f);
}

TEST(DevicePairingTest, ResourceOwnerClassIsExempt) {
  // DeviceBytes registers in Allocate and releases in the dtor: its methods
  // hold one side of the pair by design (config.resource_owner_types).
  const auto f = Lint("src/tensor/x.cc", R"cc(
    void DeviceBytes::Allocate(size_t bytes) {
      DeviceTracker::Global().OnAlloc(device_, bytes);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "device-pairing")) << Render(f);
}

TEST(DevicePairingTest, SuppressedWithReason) {
  const auto f = Lint("src/sparse/x.cc", R"cc(
    void Seed(DeviceTracker* t) {
      // NOLINTNEXTLINE(device-pairing): accounting baseline, freed in teardown
      t->OnAlloc(Device::kAccel, 0);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "device-pairing")) << Render(f);
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
}

// --- status-flow ------------------------------------------------------------

TEST(StatusFlowTest, FlagsOneSidedDrop) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g, bool verbose) {
      Status s = SaveGraph(g, "/tmp/a");
      if (verbose) {
        Log(s);
      }
    }
  )cc");
  ASSERT_TRUE(HasRule(f, "status-flow")) << Render(f);
  EXPECT_NE(Render(f).find("silently dropped"), std::string::npos)
      << Render(f);
}

TEST(StatusFlowTest, FlagsNeverConsumed) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g) {
      Status s = SaveGraph(g, "/tmp/a");
    }
  )cc");
  ASSERT_TRUE(HasRule(f, "status-flow")) << Render(f);
  EXPECT_NE(Render(f).find("is never consumed"), std::string::npos)
      << Render(f);
}

TEST(StatusFlowTest, FlagsOverwriteBeforeCheck) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    Status Run(const Graph& g) {
      Status s = SaveGraph(g, "/tmp/a");
      s = SaveGraph(g, "/tmp/b");
      return s;
    }
  )cc");
  ASSERT_TRUE(HasRule(f, "status-flow")) << Render(f);
  EXPECT_NE(Render(f).find("overwritten before being checked"),
            std::string::npos)
      << Render(f);
}

TEST(StatusFlowTest, QuietWhenConsumedOnEveryPath) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    Status Run(const Graph& g) {
      Status s = SaveGraph(g, "/tmp/a");
      if (!s.ok()) return s;
      return Status::OK();
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "status-flow")) << Render(f);
}

TEST(StatusFlowTest, OkInitializedLocalCarriesNoObligation) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Accumulate() {
      Status s = Status::OK();
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "status-flow")) << Render(f);
}

TEST(StatusFlowTest, ImmediatelyUnwrappedCallIsConsumed) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Use(const Graph& g) {
      const bool saved = SaveGraph(g, "/tmp/a").ok();
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "status-flow")) << Render(f);
}

TEST(StatusFlowTest, LambdaInitializerDefersItsCalls) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Install() {
      auto check = [](int x) {
        return Status::InvalidArgument("bad payload");
      };
      Use(check);
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "status-flow")) << Render(f);
}

TEST(StatusFlowTest, SuppressedWithReason) {
  const auto f = Lint("src/graph/x.cc", R"cc(
    void Save(const Graph& g) {
      // NOLINTNEXTLINE(status-flow): best-effort cleanup, failure is benign
      Status s = SaveGraph(g, "/tmp/a");
    }
  )cc");
  EXPECT_FALSE(HasRule(f, "status-flow")) << Render(f);
  EXPECT_FALSE(HasRule(f, "nolint-policy")) << Render(f);
}

// --- tokenizer regressions --------------------------------------------------

TEST(TokenizerTest, DirectiveContinuationSurvivesUrlInString) {
  // A backslash-continued #define whose first line holds a string with
  // `//` inside: the slashes must not read as a comment (which would
  // swallow the continuation and lint line 3 as real code).
  const auto f = Lint("src/graph/x.cc",
                      "#define FETCH(dst) \\\n"
                      "  fetch(dst, \"http://example.com//a\", \\\n"
                      "        rand())\n"
                      "int after = rand();\n");
  int hits = 0;
  int line = 0;
  for (const auto& x : f) {
    if (x.rule == "determinism") {
      ++hits;
      line = x.line;
    }
  }
  EXPECT_EQ(hits, 1) << Render(f);
  EXPECT_EQ(line, 4) << Render(f);
}

TEST(TokenizerTest, URRawStringPrefixIsRecognized) {
  // `UR"(...)"` is a raw string: its body (with an embedded quote) must
  // stay opaque, and real code after it must still be linted.
  const auto f = Lint("src/graph/x.cc",
                      "const char32_t* s = UR\"(rand() \" still raw)\";\n"
                      "int n = rand();\n");
  int hits = 0;
  int line = 0;
  for (const auto& x : f) {
    if (x.rule == "determinism") {
      ++hits;
      line = x.line;
    }
  }
  EXPECT_EQ(hits, 1) << Render(f);
  EXPECT_EQ(line, 2) << Render(f);
}

// --- layering: annotation header exemption ----------------------------------

TEST(LayeringTest, ThreadAnnotationHeaderIsIncludableFromAnyLayer) {
  // core/thread_annotations.h is pure preprocessor, so even the bottom
  // layer may include it without growing a back-edge.
  const auto f = Lint("src/tensor/device.h", R"cc(
    #include "core/thread_annotations.h"
  )cc");
  EXPECT_FALSE(HasRule(f, "layering")) << Render(f);
}

// --- pass 1: annotation collection ------------------------------------------

TEST(CollectAnnotationsTest, IndexesGuardedRequiresAndExcludes) {
  sgnn::lint::AnnotationIndex idx;
  sgnn::lint::CollectAnnotations(R"cc(
    class Engine {
     public:
      void Stop() SGNN_EXCLUDES(queue_mu_);
     private:
      Status ServeLocked() SGNN_REQUIRES(serve_mu_);
      std::mutex serve_mu_;
      std::mutex queue_mu_;
      uint64_t queries_ SGNN_GUARDED_BY(serve_mu_) = 0;
      size_t live_[2] SGNN_GUARDED_BY(serve_mu_) = {0, 0};
    };
  )cc",
                                 &idx);
  EXPECT_EQ(idx.guarded["Engine"]["queries_"], "serve_mu_");
  EXPECT_EQ(idx.guarded["Engine"]["live_"], "serve_mu_");
  EXPECT_EQ(idx.requires_held["Engine"]["ServeLocked"].count("serve_mu_"),
            1u);
  EXPECT_EQ(idx.excludes_held["Engine"]["Stop"].count("queue_mu_"), 1u);
}

// --- pass 1: status-function collection -------------------------------------

TEST(CollectStatusFunctionsTest, FindsDeclarationsAndDefinitions) {
  std::set<std::string> fns;
  sgnn::lint::CollectStatusFunctions(R"cc(
    Status SaveGraph(const Graph& g, const std::string& path);
    Result<Graph> LoadGraph(const std::string& path);
    [[nodiscard]] Result<std::unique_ptr<Filter>> CreateFilter(int hops);
    Status PolyFilter::Precompute(const Ctx& ctx) { return Status::OK(); }
    Status status;          // member declaration: not a function
    void Use(Status s);     // parameter: not a function
  )cc",
                                     &fns);
  EXPECT_EQ(fns.count("SaveGraph"), 1u);
  EXPECT_EQ(fns.count("LoadGraph"), 1u);
  EXPECT_EQ(fns.count("CreateFilter"), 1u);
  EXPECT_EQ(fns.count("Precompute"), 1u);
  EXPECT_EQ(fns.count("status"), 0u);
  EXPECT_EQ(fns.count("s"), 0u);
  EXPECT_EQ(fns.count("Use"), 0u);
}

// --- layer mapping ----------------------------------------------------------

TEST(LayerOfTest, MapsPathsToLayers) {
  EXPECT_EQ(sgnn::lint::LayerOf("src/tensor/ops.cc"), "tensor");
  EXPECT_EQ(sgnn::lint::LayerOf("src/runtime/journal.h"), "runtime");
  EXPECT_EQ(sgnn::lint::LayerOf("bench/bench_common.h"), "bench");
  EXPECT_EQ(sgnn::lint::LayerOf("tools/lint/lint.cc"), "tools");
  EXPECT_EQ(sgnn::lint::LayerOf("tests/lint_test.cc"), "tests");
  EXPECT_EQ(sgnn::lint::LayerOf("README.md"), "");
}

}  // namespace
