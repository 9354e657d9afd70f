#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

namespace sgnn::serve {

double OverloadStats::ShedRate() const {
  if (submitted == 0) return 0.0;
  return static_cast<double>(shed_total()) / static_cast<double>(submitted);
}

SloController::SloController(double target_p99_ms, double initial_wait_ms)
    : target_p99_ms_(target_p99_ms),
      max_wait_ms_(std::max(0.0, initial_wait_ms)),
      min_wait_ms_(std::min(kMinWaitMs, max_wait_ms_)),
      wait_ms_(max_wait_ms_) {}

double SloController::Update(double window_p99_ms, double mean_batch_fill) {
  if (!enabled()) return wait_ms_;
  if (window_p99_ms > target_p99_ms_) {
    wait_ms_ = std::max(min_wait_ms_, wait_ms_ * kShrink);
  } else if (mean_batch_fill >= kFillThreshold) {
    wait_ms_ = std::min(max_wait_ms_, wait_ms_ * kGrow);
  } else {
    wait_ms_ = std::max(min_wait_ms_, wait_ms_ * kShrink);
  }
  return wait_ms_;
}

Engine::Engine(ServableModel model, EngineConfig config)
    : model_(std::move(model)),
      config_(config),
      cache_(config.cache),
      slo_(config.target_p99_ms, std::max(0.0, config.max_wait_ms)),
      current_wait_ms_(std::max(0.0, config.max_wait_ms)) {
  config_.max_batch = std::max(1, config_.max_batch);
  config_.max_wait_ms = std::max(0.0, config_.max_wait_ms);
  config_.max_queue = std::max(0, config_.max_queue);
  if (model_.precision != quant::Precision::kFp32 && !model_.qterms.empty()) {
    // Fold the per-term channel scales into the probed combine weights
    // once, so the fused combine pays one multiply per element.
    const auto t = static_cast<int64_t>(model_.qterms.size());
    const int64_t f = model_.qterms[0].cols();
    eff_ = Matrix(t, f, Device::kHost);
    const bool int8 = model_.precision == quant::Precision::kInt8;
    for (int64_t k = 0; k < t; ++k) {
      const auto& scales = model_.qterms[static_cast<size_t>(k)].scales();
      for (int64_t c = 0; c < f; ++c) {
        const float s = int8 ? scales[static_cast<size_t>(c)] : 1.0f;
        eff_.at(k, c) = model_.combine_w.at(k, c) * s;
      }
    }
  }
}

Engine::~Engine() { Stop(); }

Status Engine::ServeBatch(const std::vector<int64_t>& nodes, Matrix* logits) {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return ServeBatchLocked(nodes, logits);
}

Status Engine::ServeBatchLocked(const std::vector<int64_t>& nodes,
                                Matrix* logits) {
  for (const int64_t node : nodes) {
    if (node < 0 || node >= model_.meta.n) {
      return Status::InvalidArgument("node id " + std::to_string(node) +
                                     " outside [0, " +
                                     std::to_string(model_.meta.n) + ")");
    }
  }
  if (nodes.empty()) {
    *logits = Matrix();
    return Status::OK();
  }
  if (model_.precision != quant::Precision::kFp32) {
    return ServeQuantLocked(nodes, logits);
  }
  const auto b = static_cast<int64_t>(nodes.size());
  const size_t num_terms = model_.terms.size();
  const int64_t f = model_.terms[0].cols();
  const size_t row_bytes = static_cast<size_t>(f) * sizeof(float);

  // Re-shape the per-node bundles (rows = terms) into the per-term batch
  // matrices CombineTerms consumes (rows = queries), resolving each node
  // through the tiered cache.
  std::vector<Matrix> batch_terms(num_terms);
  for (size_t k = 0; k < num_terms; ++k) {
    batch_terms[k] = Matrix(b, f, Device::kAccel);
  }
  for (int64_t i = 0; i < b; ++i) {
    const int64_t node = nodes[static_cast<size_t>(i)];
    const Bundle* bundle = cache_.Get(node);
    if (bundle != nullptr) {
      for (size_t k = 0; k < num_terms; ++k) {
        std::memcpy(batch_terms[k].row(i),
                    bundle->fp.row(static_cast<int64_t>(k)), row_bytes);
      }
      continue;
    }
    Matrix fresh(static_cast<int64_t>(num_terms), f, Device::kHost);
    for (size_t k = 0; k < num_terms; ++k) {
      std::memcpy(fresh.row(static_cast<int64_t>(k)),
                  model_.terms[k].row(node), row_bytes);
      std::memcpy(batch_terms[k].row(i), model_.terms[k].row(node), row_bytes);
    }
    cache_.Put(node, Bundle(std::move(fresh)));
  }

  std::vector<const Matrix*> ptrs;
  ptrs.reserve(num_terms);
  for (const Matrix& m : batch_terms) ptrs.push_back(&m);
  Matrix h;
  model_.filter->CombineTerms(ptrs, &h, /*cache=*/false);
  model_.phi1.ForwardInference(h, logits);
  ++batches_;
  queries_ += static_cast<uint64_t>(b);
  return Status::OK();
}

Status Engine::ServeQuantLocked(const std::vector<int64_t>& nodes,
                                Matrix* logits) {
  const auto b = static_cast<int64_t>(nodes.size());
  const size_t num_terms = model_.qterms.size();
  const int64_t f = model_.qterms[0].cols();
  const bool int8 = model_.precision == quant::Precision::kInt8;
  const size_t elem = quant::ElemSize(model_.precision);
  const size_t row_bytes = static_cast<size_t>(f) * elem;
  const size_t bundle_bytes = num_terms * row_bytes;

  // Gather stage: each node's scale-less quantized bundle, from the cache or
  // freshly gathered, is staged raw and contiguously for the fused combine.
  const size_t staged_elems =
      static_cast<size_t>(b) * num_terms * static_cast<size_t>(f);
  std::vector<int8_t> staged8(int8 ? staged_elems : 0);
  std::vector<uint16_t> staged16(int8 ? 0 : staged_elems);
  char* staged = int8 ? reinterpret_cast<char*>(staged8.data())
                      : reinterpret_cast<char*>(staged16.data());
  for (int64_t i = 0; i < b; ++i) {
    const int64_t node = nodes[static_cast<size_t>(i)];
    char* dst = staged + static_cast<size_t>(i) * bundle_bytes;
    const Bundle* cached = cache_.Get(node);
    if (cached != nullptr) {
      std::memcpy(dst, cached->q.i8(), bundle_bytes);
      continue;
    }
    quant::QuantizedMatrix fresh(model_.precision,
                                 static_cast<int64_t>(num_terms), f,
                                 Device::kHost);
    for (size_t k = 0; k < num_terms; ++k) {
      const char* src =
          reinterpret_cast<const char*>(model_.qterms[k].i8()) +
          static_cast<size_t>(node) * row_bytes;
      std::memcpy(reinterpret_cast<char*>(fresh.i8()) + k * row_bytes, src,
                  row_bytes);
    }
    // Staged before Put: the cache owns (and may drop) the bundle.
    std::memcpy(dst, fresh.i8(), bundle_bytes);
    cache_.Put(node, Bundle(std::move(fresh)));
  }

  Matrix h(b, f, Device::kAccel);
  if (int8) {
    quant::CombineStagedInt8(staged8.data(), b, eff_, &h);
  } else {
    quant::CombineStagedF16(staged16.data(), b, eff_, &h);
  }
  model_.qphi1.ForwardInference(h, logits);
  ++batches_;
  queries_ += static_cast<uint64_t>(b);
  return Status::OK();
}

void Engine::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  dispatcher_ = std::thread(&Engine::DispatchLoop, this);
}

void Engine::Stop() {
  // Move the dispatcher handle out under the lock so exactly one caller
  // joins it: two concurrent Stop()s used to both reach dispatcher_.join()
  // (UB on the second). A racing caller that sees stopping_ already set
  // waits for the owning caller to finish the shutdown instead.
  std::thread joiner;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (!running_) return;
    if (stopping_) {
      queue_cv_.wait(lock, [this] { return !running_; });
      return;
    }
    stopping_ = true;
    joiner = std::move(dispatcher_);
  }
  queue_cv_.notify_all();
  joiner.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    running_ = false;
  }
  queue_cv_.notify_all();
}

std::future<QueryResult> Engine::Submit(int64_t node, double deadline_ms) {
  Pending pending;
  pending.node = node;
  pending.deadline_ms = deadline_ms;
  std::future<QueryResult> fut = pending.promise.get_future();
  if (node < 0 || node >= model_.meta.n) {
    QueryResult r;
    r.status = Status::InvalidArgument("node id " + std::to_string(node) +
                                       " outside [0, " +
                                       std::to_string(model_.meta.n) + ")");
    pending.promise.set_value(std::move(r));
    return fut;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_ || stopping_) {
      QueryResult r;
      r.status = Status::FailedPrecondition("engine is not running");
      pending.promise.set_value(std::move(r));
      return fut;
    }
    ++overload_.submitted;
    // Admission control: bounded queue depth. Shedding here, with a
    // retryable code, is what keeps p99 finite under a burst — the queue
    // never grows past what the budget allows.
    if (config_.max_queue > 0 &&
        queue_.size() >= static_cast<size_t>(config_.max_queue)) {
      ++overload_.shed_queue_full;
      QueryResult r;
      r.status = Status::Unavailable(
          "queue depth budget exhausted (" +
          std::to_string(config_.max_queue) + " queued)");
      pending.promise.set_value(std::move(r));
      return fut;
    }
    ++overload_.admitted;
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return fut;
}

void Engine::DispatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and fully drained
      if (!stopping_) {
        // Hold the batch open for stragglers: up to the controller's
        // current hold time, measured from the *oldest* enqueued query,
        // ended early by a full batch or Stop.
        const auto target = static_cast<size_t>(config_.max_batch);
        while (queue_.size() < target && !stopping_) {
          const double left = current_wait_ms_.load(std::memory_order_relaxed) -
                              queue_.front().watch.ElapsedMs();
          if (left <= 0.0) break;
          queue_cv_.wait_for(
              lock, std::chrono::duration<double, std::milli>(left));
        }
      }
      const size_t take =
          std::min(queue_.size(), static_cast<size_t>(config_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Deadline shed at dequeue: an expired query gets a typed rejection
    // now instead of kernel time — its client has already moved on, and
    // the batch it would have joined serves the still-live queries.
    std::vector<Pending> live;
    std::vector<Pending> expired;
    live.reserve(batch.size());
    for (Pending& p : batch) {
      if (p.deadline_ms > 0.0 && p.watch.ElapsedMs() >= p.deadline_ms) {
        expired.push_back(std::move(p));
      } else {
        live.push_back(std::move(p));
      }
    }
    if (!expired.empty()) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        overload_.shed_deadline += expired.size();
      }
      RejectPending(&expired, Status::DeadlineExceeded(
                                  "deadline expired before dispatch"));
    }
    if (!live.empty()) ServeAndFulfill(&live);
  }
}

void Engine::RejectPending(std::vector<Pending>* batch,
                           const Status& status) {
  for (Pending& p : *batch) {
    QueryResult r;
    r.status = status;
    r.latency_ms = p.watch.ElapsedMs();
    p.promise.set_value(std::move(r));
  }
}

void Engine::ServeAndFulfill(std::vector<Pending>* batch) {
  std::vector<int64_t> nodes;
  nodes.reserve(batch->size());
  for (const Pending& p : *batch) nodes.push_back(p.node);

  uint64_t served_ok = 0;
  uint64_t served_late = 0;
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    Matrix logits;
    const Status status = ServeBatchLocked(nodes, &logits);
    const int64_t c = logits.cols();
    for (size_t i = 0; i < batch->size(); ++i) {
      Pending& p = (*batch)[i];
      QueryResult r;
      r.batch = static_cast<int64_t>(batch->size());
      if (status.ok()) {
        const float* row = logits.row(static_cast<int64_t>(i));
        r.logits.assign(row, row + c);
      } else {
        r.status = status;
      }
      r.latency_ms = p.watch.ElapsedMs();
      latency_.Record(r.latency_ms);
      if (status.ok()) {
        ++served_ok;
        if (p.deadline_ms > 0.0 && r.latency_ms > p.deadline_ms) {
          ++served_late;
        }
      }
      p.promise.set_value(std::move(r));
    }

    // SLO controller step: one per kWindow served queries, fed the
    // interval p99 (cumulative histogram diffed against the last step's
    // snapshot) and the window's mean batch occupancy.
    if (slo_.enabled()) {
      window_queries_ += batch->size();
      window_batches_ += 1;
      if (window_queries_ >= static_cast<uint64_t>(SloController::kWindow)) {
        const LatencyHistogram interval = latency_.DiffFrom(window_snapshot_);
        const double fill =
            static_cast<double>(window_queries_) /
            (static_cast<double>(window_batches_) * config_.max_batch);
        const double wait = slo_.Update(interval.PercentileMs(99), fill);
        current_wait_ms_.store(wait, std::memory_order_relaxed);
        window_snapshot_ = latency_;
        window_queries_ = 0;
        window_batches_ = 0;
      }
    }
  }
  std::lock_guard<std::mutex> lock(queue_mu_);
  overload_.served_ok += served_ok;
  overload_.served_late += served_late;
}

CacheStats Engine::GetCacheStats() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return cache_.stats();
}

Engine::CacheUsage Engine::GetCacheUsage() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  CacheUsage usage;
  usage.accel_bytes = cache_.accel_bytes();
  usage.host_bytes = cache_.host_bytes();
  usage.entries = cache_.entries();
  return usage;
}

LatencyHistogram Engine::GetLatency() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return latency_;
}

OverloadStats Engine::GetOverloadStats() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  OverloadStats out = overload_;
  out.current_wait_ms = current_wait_ms_.load(std::memory_order_relaxed);
  return out;
}

uint64_t Engine::queries_served() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return queries_;
}

uint64_t Engine::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return batches_;
}

}  // namespace sgnn::serve
