#include "lint/lint.h"

#include <cstddef>
#include <utility>

#include "lint/dataflow.h"
#include "lint/lexer.h"

namespace sgnn::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule context
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string path, const LexResult& lex, const Config& config)
      : path_(std::move(path)), lex_(lex), config_(config) {}

  std::vector<Finding> Run() {
    NolintPolicy();
    Layering();
    DiscardedStatus();
    ParallelSafety();
    Determinism();
    if (InSrc()) Hygiene();
    DataflowRules();
    return std::move(findings_);
  }

 private:
  bool InSrc() const { return path_.rfind("src/", 0) == 0; }

  bool Suppressed(int line, const std::string& rule) const {
    auto it = lex_.suppressions.find(line);
    return it != lex_.suppressions.end() && it->second.rules.count(rule) > 0;
  }

  void Report(int line, const std::string& rule, std::string message) {
    if (Suppressed(line, rule)) return;
    findings_.push_back({path_, line, rule, std::move(message)});
  }

  // --- nolint-policy -------------------------------------------------------
  void NolintPolicy() {
    for (const BadNolint& bad : lex_.bad_nolints) {
      // Malformed suppressions are never themselves suppressible.
      findings_.push_back({path_, bad.line, "nolint-policy", bad.message});
    }
  }

  // --- layering ------------------------------------------------------------
  void Layering() {
    const std::string layer = LayerOf(path_);
    if (layer.empty()) return;
    auto it = config_.allowed_includes.find(layer);
    if (it == config_.allowed_includes.end()) return;  // unconstrained layer
    const std::set<std::string>& allowed = it->second;
    for (const Include& inc : lex_.includes) {
      if (!inc.quoted) continue;  // system headers are not layered
      if (config_.layering_exempt_targets.count(inc.target) > 0) {
        continue;  // dependency-free annotation headers: universal
      }
      const size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string target_layer = inc.target.substr(0, slash);
      if (config_.allowed_includes.count(target_layer) == 0 &&
          target_layer != "bench" && target_layer != "tools" &&
          target_layer != "tests") {
        continue;  // not a layered path (e.g. third-party style include)
      }
      if (allowed.count(target_layer) == 0) {
        Report(inc.line, "layering",
               "layer \"" + layer + "\" must not include \"" + inc.target +
                   "\" (allowed: " + JoinAllowed(allowed) + ")");
      }
    }
  }

  static std::string JoinAllowed(const std::set<std::string>& allowed) {
    std::string out;
    for (const std::string& a : allowed) {
      if (!out.empty()) out += ", ";
      out += a;
    }
    return out;
  }

  // --- discarded-status ----------------------------------------------------
  //
  // Flags statements of the form
  //     [obj (./->)] [ns::] callee ( ... ) ;
  // where `callee` is known to return Status/Result<T>. Statement starts
  // after ; { } :, after `else`, or after a closing `)` of a control-flow
  // condition — but not after a (void) cast, which is the compiler-parity
  // explicit-discard idiom (still visible in review, unlike a silent drop).
  void DiscardedStatus() {
    const std::vector<Tok>& t = lex_.toks;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!AtStatementStart(i)) continue;
      // Parse a postfix call chain and find its final callee.
      size_t j = i;
      if (Is(t, j, "::")) ++j;
      if (!IsIdent(t, j)) continue;
      std::string callee = t[j].text;
      ++j;
      while (j < t.size()) {
        if (Is(t, j, "::") || Is(t, j, ".") || Is(t, j, "->")) {
          if (!IsIdent(t, j + 1)) break;
          callee = t[j + 1].text;
          j += 2;
          continue;
        }
        break;
      }
      if (!Is(t, j, "(")) continue;
      const size_t close = MatchForward(t, j);
      if (close >= t.size() || !Is(t, close + 1, ";")) continue;
      if (config_.status_functions.count(callee) == 0) continue;
      Report(t[i].line, "discarded-status",
             "result of status-returning \"" + callee +
                 "\" is discarded; check it, propagate it "
                 "(SGNN_RETURN_IF_ERROR), or assert it (SGNN_CHECK_OK)");
    }
  }

  bool AtStatementStart(size_t i) const {
    const std::vector<Tok>& t = lex_.toks;
    if (i == 0) return true;
    const Tok& prev = t[i - 1];
    if (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
        prev.text == "else" || prev.text == "do") {
      return true;
    }
    if (prev.text == ")") {
      // Statement position after if(...)/for(...)/while(...), but not after
      // an explicit (void) discard cast.
      const size_t open = MatchBackward(t, i - 1);
      if (open + 2 == i - 1 && Is(t, open + 1, "void")) return false;
      return true;
    }
    return false;
  }

  // --- parallel-safety -----------------------------------------------------
  void ParallelSafety() {
    const std::vector<Tok>& t = lex_.toks;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!(t[i].kind == TokKind::kIdent && t[i].text == "ParallelFor" &&
            Is(t, i + 1, "("))) {
        continue;
      }
      const size_t call_close = MatchForward(t, i + 1);
      // Find lambda introducers in argument position within the call.
      for (size_t j = i + 2; j < call_close; ++j) {
        if (!Is(t, j, "[")) continue;
        if (!(Is(t, j - 1, "(") || Is(t, j - 1, ","))) continue;
        const size_t intro_close = MatchForward(t, j);
        if (intro_close >= call_close) break;
        // Skip the parameter list / specifiers up to the body brace.
        size_t k = intro_close + 1;
        if (Is(t, k, "(")) k = MatchForward(t, k) + 1;
        while (k < call_close && !Is(t, k, "{")) ++k;
        if (k >= call_close) break;
        const size_t body_close = MatchForward(t, k);
        CheckParallelBody(k + 1, body_close);
        j = body_close;
      }
      i = call_close;
    }
  }

  void CheckParallelBody(size_t begin, size_t end) {
    const std::vector<Tok>& t = lex_.toks;
    for (size_t i = begin; i < end && i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      if (t[i].text == "static") {
        if (!(Is(t, i + 1, "const") || Is(t, i + 1, "constexpr"))) {
          Report(t[i].line, "parallel-safety",
                 "mutable static local inside a ParallelFor body: chunk "
                 "bodies run concurrently; hoist the state out or make it "
                 "chunk-local");
        }
        continue;
      }
      if (config_.parallel_denylist.count(t[i].text) > 0 &&
          Is(t, i + 1, "(")) {
        Report(t[i].line, "parallel-safety",
               "\"" + t[i].text +
                   "\" is not reentrant and must not be called from a "
                   "ParallelFor body (journal/supervisor/device-tracker "
                   "state and process exit belong to the coordinating "
                   "thread)");
      }
    }
  }

  // --- determinism ---------------------------------------------------------
  void Determinism() {
    if (config_.determinism_allowlist.count(path_) > 0) return;
    const std::vector<Tok>& t = lex_.toks;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& w = t[i].text;
      if ((w == "rand" || w == "srand" || w == "time") && Is(t, i + 1, "(")) {
        Report(t[i].line, "determinism",
               "\"" + w +
                   "()\" is unseeded/wall-clock state; use tensor/rng.h "
                   "(seeded per cell) so every table cell replays "
                   "bit-identically");
        continue;
      }
      if (w == "random_device") {
        Report(t[i].line, "determinism",
               "std::random_device is nondeterministic; derive streams from "
               "the cell seed via tensor/rng.h");
        continue;
      }
      if (w == "now" && Is(t, i - 1, "::") && i >= 2 &&
          (t[i - 2].text == "steady_clock" || t[i - 2].text == "system_clock" ||
           t[i - 2].text == "high_resolution_clock")) {
        Report(t[i].line, "determinism",
               "raw clock read; use eval::Timer (src/eval/table.h), the one "
               "sanctioned wall-clock accessor, so timing never leaks into "
               "journaled results");
      }
    }
  }

  // --- hygiene (src/ only) -------------------------------------------------
  //
  // Float equality uses a brace-scoped symbol table built during the same
  // forward scan that checks the operators, so a `double u` in one function
  // does not poison an `int u` in the next. Comparisons against a literal
  // zero are exempt: `v == 0.0f` is the sparsity/sentinel idiom — exact in
  // IEEE754 for values that were *assigned* zero — and the hot kernels rely
  // on it (ops.cc, push.cc, the theta-skip in poly_base.cc).
  void Hygiene() {
    const std::vector<Tok>& t = lex_.toks;
    // Prepass: float/double-returning functions, visible file-wide (the
    // scan below would otherwise miss calls to functions defined later).
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent &&
          (t[i].text == "float" || t[i].text == "double") &&
          IsIdent(t, i + 1) && Is(t, i + 2, "(")) {
        float_fns_.insert(t[i + 1].text);
      }
    }
    int depth = 0;       // brace depth
    int paren_depth = 0; // function parameters live one scope deeper
    // Active float declarations with the brace depth that retires them.
    std::vector<std::pair<std::string, int>> scope;
    auto in_scope = [&](const std::string& name) {
      for (const auto& [n, d] : scope) {
        if (n == name) return true;
      }
      return false;
    };
    for (size_t i = 0; i < t.size(); ++i) {
      if (Is(t, i, "(")) ++paren_depth;
      if (Is(t, i, ")") && paren_depth > 0) --paren_depth;
      if (Is(t, i, "{")) {
        ++depth;
        continue;
      }
      if (Is(t, i, "}")) {
        --depth;
        while (!scope.empty() && scope.back().second > depth) {
          scope.pop_back();
        }
        continue;
      }
      const int decl_depth = depth + (paren_depth > 0 ? 1 : 0);
      if (t[i].kind == TokKind::kIdent) {
        const std::string& w = t[i].text;
        if (w == "float" || w == "double") {
          CollectFloatDecl(i, decl_depth, &scope);
          continue;
        }
        // std::vector<float|double> name: element access yields a float.
        if (w == "vector" && Is(t, i + 1, "<") &&
            (Is(t, i + 2, "float") || Is(t, i + 2, "double")) &&
            Is(t, i + 3, ">")) {
          size_t j = i + 4;
          while (Is(t, j, "&") || Is(t, j, "const")) ++j;
          if (IsIdent(t, j)) scope.emplace_back(t[j].text, decl_depth);
          continue;
        }
        if (w == "cout" && Is(t, i - 1, "::") && Is(t, i - 2, "std")) {
          Report(t[i].line, "hygiene",
                 "std::cout in library code; tables print via eval::Table, "
                 "errors propagate as Status");
        }
        if ((w == "exit" || w == "abort" || w == "quick_exit" ||
             w == "_Exit") &&
            Is(t, i + 1, "(")) {
          Report(t[i].line, "hygiene",
                 "\"" + w +
                     "()\" in library code; return a Status (fatal contract "
                     "violations go through SGNN_CHECK)");
        }
        continue;
      }
      if (t[i].kind == TokKind::kPunct &&
          (t[i].text == "==" || t[i].text == "!=")) {
        if (Is(t, i - 1, "operator")) continue;
        if (ZeroLiteralOperand(i)) continue;
        if (FloatOperandLeft(i, in_scope) || FloatOperandRight(i, in_scope)) {
          Report(t[i].line, "hygiene",
                 "floating-point " + t[i].text +
                     " comparison; use an explicit tolerance or a < ordering "
                     "(exact FP equality is almost never the contract)");
        }
      }
    }
  }

  /// Handles one `float`/`double` declaration head at token `i`: records
  /// declared variable names (comma lists included) at `decl_depth`, the
  /// brace depth whose closing `}` retires them (parameters pass depth+1).
  /// Pointers are skipped — comparing a pointer is exact. `double F(`
  /// (float-returning functions) is collected by the Hygiene prepass.
  void CollectFloatDecl(size_t i, int decl_depth,
                        std::vector<std::pair<std::string, int>>* scope) {
    const std::vector<Tok>& t = lex_.toks;
    size_t j = i + 1;
    while (Is(t, j, "const") || Is(t, j, "&")) ++j;
    if (Is(t, j, "*")) return;
    if (!IsIdent(t, j)) return;
    if (Is(t, j + 1, "(")) return;  // function: handled by the prepass
    scope->emplace_back(t[j].text, decl_depth);
    size_t k = j + 1;
    while (Is(t, k, ",") && IsIdent(t, k + 1) && !Is(t, k + 2, "(")) {
      scope->emplace_back(t[k + 1].text, decl_depth);
      k += 2;
    }
  }

  /// True when either side of the operator at `op` is a literal zero
  /// (0, 0.0, 0.f, ...) — the exempt sentinel idiom.
  bool ZeroLiteralOperand(size_t op) const {
    const std::vector<Tok>& t = lex_.toks;
    auto is_zero = [](const Tok& tok) {
      if (tok.kind != TokKind::kNumber) return false;
      for (char c : tok.text) {
        if (c >= '1' && c <= '9') return false;
        if (c == 'x' || c == 'X') return false;  // hex: not a float anyway
      }
      return true;  // only 0 . e f suffixes left
    };
    if (op > 0 && is_zero(t[op - 1])) return true;
    size_t r = op + 1;
    while (r < t.size() && (Is(t, r, "-") || Is(t, r, "+") || Is(t, r, "(")))
      ++r;
    return r < t.size() && is_zero(t[r]);
  }

  /// Resolves the postfix chain left of the operator at `op`: a float
  /// literal, a call to a float-returning function, or a subscripted chain
  /// whose *base* identifier is a declared float/float-vector. Any call to
  /// a non-float function (x.size(), std::fread(...)) makes the operand
  /// non-float — conservative by design.
  template <typename InScopeFn>
  bool FloatOperandLeft(size_t op, const InScopeFn& in_scope) const {
    const std::vector<Tok>& t = lex_.toks;
    if (op == 0) return false;
    size_t i = op - 1;
    if (t[i].kind == TokKind::kNumber) return IsFloatLiteral(t[i].text);
    bool saw_call = false;
    for (int guard = 0; guard < 64; ++guard) {
      if (Is(t, i, "]") || Is(t, i, ")")) {
        const bool was_call = t[i].text == ")";
        const size_t open = MatchBackward(t, i);
        if (open == 0) return false;
        i = open;
        if (i == 0) return false;
        --i;
        if (was_call) {
          if (IsIdent(t, i) && float_fns_.count(t[i].text) > 0) return true;
          saw_call = true;
        }
        continue;
      }
      if (IsIdent(t, i)) {
        if (i >= 2 && (Is(t, i - 1, ".") || Is(t, i - 1, "->") ||
                       Is(t, i - 1, "::"))) {
          i -= 2;
          continue;
        }
        // `i` is the base identifier of the chain.
        return !saw_call && in_scope(t[i].text);
      }
      return false;
    }
    return false;
  }

  /// Mirror of FloatOperandLeft for the token chain right of the operator.
  template <typename InScopeFn>
  bool FloatOperandRight(size_t op, const InScopeFn& in_scope) const {
    const std::vector<Tok>& t = lex_.toks;
    size_t i = op + 1;
    while (i < t.size() && t[i].kind == TokKind::kPunct &&
           (t[i].text == "(" || t[i].text == "-" || t[i].text == "+" ||
            t[i].text == "!" || t[i].text == "*" || t[i].text == "&")) {
      ++i;
    }
    if (i >= t.size()) return false;
    if (t[i].kind == TokKind::kNumber) return IsFloatLiteral(t[i].text);
    if (!IsIdent(t, i)) return false;
    // Walk the postfix chain forward; calls to non-float functions end the
    // float-ness, subscripts keep the base's element type.
    const bool base_float = in_scope(t[i].text);
    size_t j = i + 1;
    for (int guard = 0; guard < 64; ++guard) {
      if (Is(t, j, "(")) {
        const std::string& callee = t[j - 1].text;
        return float_fns_.count(callee) > 0;
      }
      if (Is(t, j, "[")) {
        j = MatchForward(t, j) + 1;
        continue;
      }
      if ((Is(t, j, ".") || Is(t, j, "->") || Is(t, j, "::")) &&
          IsIdent(t, j + 1)) {
        j += 2;
        continue;
      }
      break;
    }
    return base_float;
  }

  // --- lock-discipline / device-pairing / status-flow ----------------------
  //
  // The dataflow families live in dataflow.cc (function extraction + the
  // structured control-flow walk); findings route back through Report so
  // suppression works identically for them.
  void DataflowRules() {
    RunDataflowRules(lex_, config_,
                     [this](int line, const std::string& rule,
                            std::string message) {
                       Report(line, rule, std::move(message));
                     });
  }

  std::string path_;
  const LexResult& lex_;
  const Config& config_;
  std::vector<Finding> findings_;
  std::set<std::string> float_fns_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

void AnnotationIndex::MergeFrom(const AnnotationIndex& other) {
  for (const auto& [cls, members] : other.guarded) {
    for (const auto& [member, mu] : members) guarded[cls][member] = mu;
  }
  for (const auto& [cls, fns] : other.requires_held) {
    for (const auto& [fn, mus] : fns) {
      requires_held[cls][fn].insert(mus.begin(), mus.end());
    }
  }
  for (const auto& [cls, fns] : other.excludes_held) {
    for (const auto& [fn, mus] : fns) {
      excludes_held[cls][fn].insert(mus.begin(), mus.end());
    }
  }
}

std::string LayerOf(const std::string& path) {
  for (const char* top : {"bench/", "tools/", "tests/"}) {
    if (path.rfind(top, 0) == 0) {
      return std::string(top, std::string(top).size() - 1);
    }
  }
  if (path.rfind("src/", 0) == 0) {
    const size_t slash = path.find('/', 4);
    if (slash != std::string::npos) return path.substr(4, slash - 4);
  }
  return "";
}

Config Config::Default() {
  Config c;
  // Status factory helpers declared in src/tensor/status.h; the tree-wide
  // pass (CollectStatusFunctions) extends this with every Status/Result-
  // returning function it can see.
  c.status_functions = {"OK",           "InvalidArgument",
                        "OutOfMemory",  "NotFound",
                        "FailedPrecondition", "IOError",
                        "NotImplemented",     "Internal",
                        "NumericalError",     "DeadlineExceeded",
                        "Unavailable"};
  // The include DAG of the paper reproduction (docs/ARCHITECTURE.md renders
  // the same table as a diagram):
  //   tensor -> opgraph -> {sparse, shard, graph} -> {core, nn}
  //          -> {models, eval, quant} -> runtime -> {conformance, serve}
  //          -> {bench, tools, tests}.
  // A layer may include itself and anything at or below its feeder group;
  // same-group edges that exist by design (graph->sparse, core->nn,
  // models->eval) are listed explicitly — the table *is* the contract.
  c.allowed_includes = {
      {"tensor", {"tensor"}},
      // opgraph (op-graph: record/fuse/plan/execute) sits directly on
      // tensor. It must never include sparse/ — the propagation matrix is
      // abstracted behind opgraph::SpmmOperator and adapted in
      // core/filter.h, the first layer that sees both sides.
      {"opgraph", {"opgraph", "tensor"}},
      {"sparse", {"sparse", "opgraph", "tensor"}},
      // shard (edge-cut partitioner + halo exchange + sharded SpmmOperator)
      // sits beside graph, directly on sparse/opgraph. It must never reach
      // up into serve/quant or sideways into core — filters see shards only
      // through the abstract opgraph::SpmmOperator on FilterContext.
      {"shard", {"shard", "sparse", "opgraph", "tensor"}},
      {"graph", {"graph", "sparse", "opgraph", "tensor"}},
      {"nn", {"nn", "tensor"}},
      {"core", {"core", "opgraph", "nn", "sparse", "graph", "tensor"}},
      // quant (post-training int8/fp16 codecs + quantized-compute kernels)
      // sits directly above core/nn: it probes SpectralFilter::CombineTerms
      // and mirrors nn::Mlp inference, and is consumed by serve and
      // conformance. Training layers (models, runtime) never see it —
      // quantization is strictly post-training.
      {"quant",
       {"quant", "core", "opgraph", "nn", "sparse", "graph", "tensor"}},
      {"eval",
       {"eval", "core", "opgraph", "nn", "sparse", "graph", "tensor"}},
      // models lists "shard" because the trainers build shard plans and
      // sharded operators when TrainConfig::num_shards > 1.
      {"models",
       {"models", "eval", "core", "opgraph", "nn", "shard", "sparse",
        "graph", "tensor"}},
      {"runtime",
       {"runtime", "models", "eval", "core", "opgraph", "nn", "sparse",
        "graph", "tensor"}},
      // conformance sits above runtime (it journals fuzz trials through the
      // Supervisor) but below bench/tools/tests.
      {"conformance",
       {"conformance", "runtime", "models", "quant", "eval", "core",
        "opgraph", "nn", "shard", "sparse", "graph", "tensor"}},
      // serve (checkpoints, bundle cache, inference engine) also sits above
      // runtime: checkpoints capture trainer exports and serving benches
      // journal through the Supervisor. No other src/ layer lists "serve",
      // so only bench/tools/tests may include it — training code must never
      // grow a dependency on the serving stack.
      {"serve",
       {"serve", "runtime", "models", "quant", "eval", "core", "opgraph",
        "nn", "sparse", "graph", "tensor"}},
      // bench/tools/tests are deliberately absent: the top of the stack may
      // include anything.
  };
  // The thread-annotation macros are pure preprocessor (no includes, no
  // types), so every layer may see them without growing a real dependency
  // on core. Fixture-pinned in tests/lint_test.cc
  // (LockDisciplineTest.AnnotationHeaderIsLayeringExempt).
  c.layering_exempt_targets = {"core/thread_annotations.h"};
  // Non-reentrant surfaces: the JSONL journal (single FILE* + flush), the
  // Supervisor cell state machine, DeviceTracker *configuration* (the
  // OnAlloc/OnFree accounting hooks are mutex-protected and fine), fault
  // plan arming, and process exit. All belong to the coordinating thread.
  c.parallel_denylist = {
      "Append",     "Run",          "RunTraining",       "Skip",
      "exit",       "abort",        "quick_exit",        "_Exit",
      "terminate",  "srand",        "set_accel_capacity",
      "SetAllocFaultHook", "ResetPeak", "ClearOom", "ResetAll",
      "ArmFromEnv", "SetNumThreads",
  };
  // The RNG module may touch entropy primitives; eval::Timer is the one
  // sanctioned wall-clock accessor (benches time through it).
  c.determinism_allowlist = {"src/tensor/rng.h", "src/tensor/rng.cc",
                             "src/eval/table.h"};
  // RAII locks the lock-discipline rule recognizes. Tests add helper
  // wrapper types to pin the extension point.
  c.lock_types = {"lock_guard", "unique_lock", "scoped_lock"};
  // DeviceTracker accounting must balance: every OnAlloc(device, n) must
  // reach an OnFree(device, ...) on all paths, unless the enclosing class
  // owns the bytes RAII-style (releases in its destructor).
  c.resource_pairs = {{"OnAlloc", "OnFree"}};
  c.resource_owner_types = {"DeviceBytes"};
  c.known_rules = {"discarded-status", "layering",      "parallel-safety",
                   "determinism",      "hygiene",       "nolint-policy",
                   "lock-discipline",  "device-pairing", "status-flow"};
  return c;
}

void CollectStatusFunctions(const std::string& source,
                            std::set<std::string>* out) {
  // Suppression handling and rule config are irrelevant here; lex with an
  // empty config (rule names are only needed to validate suppressions).
  const LexResult lex = Lex(source, Config());
  const std::vector<Tok>& t = lex.toks;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    size_t name_at = 0;
    if (t[i].text == "Status") {
      // `Status Foo(` or `Status Class::Foo(`
      name_at = i + 1;
    } else if (t[i].text == "Result" && Is(t, i + 1, "<")) {
      // `Result<...> Foo(` — skip the template argument list; ">>" closes
      // two levels.
      int depth = 0;
      size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") --depth;
        if (t[j].text == ">>") depth -= 2;
        if (depth <= 0 && j > i + 1) break;
      }
      name_at = j + 1;
    } else {
      continue;
    }
    // Must not be a qualified-name *use* (Status::OK) or a cast/ctor.
    if (i > 0 && (Is(t, i - 1, "::") || Is(t, i - 1, ".") ||
                  Is(t, i - 1, "->") || Is(t, i - 1, "return") ||
                  Is(t, i - 1, "<") || Is(t, i - 1, "("))) {
      continue;
    }
    if (name_at == 0 || !IsIdent(t, name_at)) continue;
    std::string name = t[name_at].text;
    size_t j = name_at + 1;
    while (Is(t, j, "::") && IsIdent(t, j + 1)) {
      name = t[j + 1].text;  // qualified definition: keep the last component
      j += 2;
    }
    if (Is(t, j, "(")) out->insert(name);
  }
}

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source,
                                const Config& config) {
  const LexResult lex = Lex(source, config);
  // Fold the file's own annotations on top of the tree-wide index, so a
  // single-file fixture (or a header changed faster than the driver's
  // pass 1 reruns) is self-consistent.
  Config local = config;
  CollectAnnotationsFromTokens(lex.toks, &local.annotations);
  Linter linter(path, lex, local);
  return linter.Run();
}

}  // namespace sgnn::lint
