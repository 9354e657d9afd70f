// sgnn_lint command-line driver.
//
//   sgnn_lint [--rules] [--budget-ms=N] [repo_root]
//
// Walks src/, bench/, tools/, tests/ under `repo_root` (default: the
// current directory), runs the two lint passes (see lint.h), prints one
// "file:line: [rule] message" per finding, and exits non-zero when any
// finding survives. An unknown `--` argument, or a root with no lintable
// file, is a usage error (exit 2): a gate that lints nothing must fail.
//
//   --budget-ms=N  fail (exit 3) when the whole run exceeds N ms of wall
//                  clock; keeps the lint gate's latency an enforced
//                  contract instead of a slow creep. The measured time is
//                  always printed to stderr. N must be wholly a
//                  non-negative integer; anything else is a usage error.
//
// Wired into CTest as `lint_repo` and into the build as the `lint`
// target, so a rule regression fails `ctest -R lint` instead of landing
// in a table.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "lint/lint.h"

namespace {

namespace fs = std::filesystem;

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// Reads a file; returns false (and warns) on IO failure.
bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "sgnn_lint: cannot read %s\n", p.string().c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void PrintRules() {
  std::printf(
      "discarded-status  bare-statement call to a Status/Result-returning "
      "function\n"
      "layering          include edge outside the tensor->...->tools DAG\n"
      "parallel-safety   non-reentrant call or mutable static in a "
      "ParallelFor body\n"
      "determinism       unseeded RNG / wall-clock read outside rng.h and "
      "eval::Timer\n"
      "hygiene           float ==/!=, std::cout, exit/abort in library "
      "code\n"
      "lock-discipline   SGNN_GUARDED_BY member touched without its mutex; "
      "SGNN_REQUIRES/SGNN_EXCLUDES call-site violations; double-lock\n"
      "device-pairing    resource acquisition (DeviceTracker OnAlloc) that "
      "misses its release on some path\n"
      "status-flow       Status/Result local checked on one path but "
      "dropped on another, or overwritten unread\n"
      "nolint-policy     suppression without a known rule and a reason\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The budget check is the one sanctioned wall-clock read in this tool:
  // it measures the linter itself and never feeds journaled results.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(determinism): lint runtime budget, not benchmark timing

  std::string root = ".";
  long budget_ms = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rules") == 0) {
      PrintRules();
      return 0;
    }
    if (std::strncmp(argv[i], "--budget-ms=", 12) == 0) {
      const std::string_view value(argv[i] + 12);
      const char* end = value.data() + value.size();
      const auto [stop, ec] = std::from_chars(value.data(), end, budget_ms);
      if (ec != std::errc() || stop != end || budget_ms < 0) {
        std::fprintf(stderr,
                     "sgnn_lint: --budget-ms needs a non-negative integer, "
                     "got \"%s\"\n",
                     argv[i] + 12);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "sgnn_lint: unknown argument \"%s\"\n", argv[i]);
      return 2;
    }
    root = argv[i];
  }

  // Gather the lintable files in deterministic order.
  std::vector<fs::path> files;
  for (const char* dir : {"src", "bench", "tools", "tests"}) {
    const fs::path top = fs::path(root) / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (entry.is_regular_file() && HasLintableExtension(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr,
                 "sgnn_lint: no lintable file under \"%s\" (src, bench, "
                 "tools, tests)\n",
                 root.c_str());
    return 2;
  }

  // Pass 1: collect Status/Result-returning function names and thread-
  // safety annotations tree-wide (so engine.cc sees engine.h's contracts).
  sgnn::lint::Config config = sgnn::lint::Config::Default();
  std::vector<std::pair<std::string, std::string>> sources;  // rel path, text
  sources.reserve(files.size());
  for (const fs::path& p : files) {
    std::string text;
    if (!ReadFile(p, &text)) return 2;
    sgnn::lint::CollectStatusFunctions(text, &config.status_functions);
    sgnn::lint::CollectAnnotations(text, &config.annotations);
    sources.emplace_back(fs::relative(p, root).generic_string(),
                         std::move(text));
  }

  // Pass 2: rules.
  size_t findings = 0;
  for (const auto& [rel, text] : sources) {
    for (const sgnn::lint::Finding& f :
         sgnn::lint::LintSource(rel, text, config)) {
      std::printf("%s\n", f.ToString().c_str());
      ++findings;
    }
  }

  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)  // NOLINT(determinism): lint runtime budget, not benchmark timing
          .count();
  std::fprintf(stderr, "sgnn_lint: %zu file(s), %zu finding(s), %lld ms\n",
               sources.size(), findings, static_cast<long long>(elapsed_ms));
  if (budget_ms >= 0 && elapsed_ms > budget_ms) {
    std::fprintf(stderr,
                 "sgnn_lint: runtime budget exceeded (%lld ms > %ld ms)\n",
                 static_cast<long long>(elapsed_ms), budget_ms);
    return 3;
  }
  return findings == 0 ? 0 : 1;
}
