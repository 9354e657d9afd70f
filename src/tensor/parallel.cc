#include "tensor/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace sgnn::parallel {

namespace {

/// Set while a thread executes chunks (workers, the submitting caller, and
/// the serial fallback); nested ParallelFor calls detect it and run inline.
thread_local bool tls_in_parallel = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreads() {
  const char* env = std::getenv("SGNN_NUM_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  const int n = std::atoi(env);
  return n > 0 ? n : 1;  // malformed/zero value means "serial", not crash
}

std::atomic<int> g_override{0};

/// One ParallelFor invocation, shared between the caller and the workers.
/// Lives on the caller's stack; the protocol in Pool::Run guarantees no
/// worker touches it after Run returns.
struct Task {
  const ChunkFn* fn = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  /// Workers allowed to join (the caller is one extra thread on top); lets
  /// a bench sweep run 2 threads on a pool that already grew to 8.
  int max_workers = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
  /// Workers currently holding a pointer to this task.
  std::atomic<int> refs{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex error_mu;
  // First exception from any chunk. Written under error_mu; ParallelFor
  // reads it lock-free after Run returns, when the done_cv handshake has
  // already ordered every worker's write before the caller's read.
  std::exception_ptr error SGNN_GUARDED_BY(error_mu);

  void RunChunk(int64_t chunk) {
    const int64_t lo = begin + chunk * grain;
    const int64_t hi = std::min(end, lo + grain);
    try {
      (*fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        num_chunks) {
      // Lock-then-notify so the completion cannot slip between the waiter's
      // predicate check and its sleep.
      std::lock_guard<std::mutex> lock(done_mu);
      done_cv.notify_all();
    }
  }

  /// Claims and runs chunks until none remain.
  void Drain() {
    while (true) {
      const int64_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      RunChunk(chunk);
    }
  }

  bool Finished() const {
    return done_chunks.load(std::memory_order_acquire) >= num_chunks &&
           refs.load(std::memory_order_acquire) == 0;
  }
};

/// Lazily created worker pool. One task runs at a time: nested calls take
/// the serial fallback, concurrent top-level callers queue on submit_mu_.
/// The pool is intentionally leaked — workers blocked on the condition
/// variable at process exit must not race static destruction.
class Pool {
 public:
  static Pool& Get() {
    static Pool* pool = new Pool();
    return *pool;
  }

  void Run(Task* task) {
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    EnsureWorkers(task->max_workers);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = task;
      ++epoch_;
    }
    cv_.notify_all();
    tls_in_parallel = true;
    task->Drain();
    tls_in_parallel = false;
    // All chunks are claimed. Retract the task so no further worker can
    // acquire it, then wait for the ones that did to finish their chunks
    // and drop their references — after that the stack-allocated task is
    // safe to destroy.
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = nullptr;
    }
    std::unique_lock<std::mutex> lock(task->done_mu);
    task->done_cv.wait(lock, [task] { return task->Finished(); });
  }

 private:
  Pool() = default;

  void EnsureWorkers(int target) {
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { WorkerLoop(index); });
    }
  }

  void WorkerLoop(int index) {
    uint64_t seen_epoch = 0;
    while (true) {
      Task* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this, seen_epoch] { return epoch_ != seen_epoch; });
        seen_epoch = epoch_;
        if (current_ != nullptr && index < current_->max_workers) {
          task = current_;
          task->refs.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      if (task == nullptr) continue;
      tls_in_parallel = true;
      task->Drain();
      tls_in_parallel = false;
      {
        std::lock_guard<std::mutex> lock(task->done_mu);
        task->refs.fetch_sub(1, std::memory_order_acq_rel);
        task->done_cv.notify_all();
      }
    }
  }

  std::mutex submit_mu_;  ///< serializes top-level ParallelFor calls
  std::mutex mu_;         ///< guards current_/epoch_/workers_
  std::condition_variable cv_;
  std::vector<std::thread> workers_ SGNN_GUARDED_BY(mu_);
  Task* current_ SGNN_GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ SGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace

int NumThreads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  const int env = EnvThreads();
  if (env > 0) return env;
  return HardwareThreads();
}

void SetNumThreads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_parallel; }

int64_t NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return (end - begin + grain - 1) / grain;
}

int64_t GrainForFlops(int64_t flops_per_item, int64_t flops_per_chunk) {
  if (flops_per_item < 1) flops_per_item = 1;
  const int64_t grain = flops_per_chunk / flops_per_item;
  return grain < 1 ? 1 : grain;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const ChunkFn& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const int64_t chunks = NumChunks(begin, end, grain);
  const int threads = NumThreads();
  // Serial fallback: same chunks, same order, no pool. Nested calls always
  // take this path, so an inner kernel can neither deadlock on the single
  // task slot nor oversubscribe the machine.
  if (threads <= 1 || chunks <= 1 || tls_in_parallel) {
    const bool was_in_parallel = tls_in_parallel;
    tls_in_parallel = true;
    std::exception_ptr first_error;
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    tls_in_parallel = was_in_parallel;
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  Task task;
  task.fn = &fn;
  task.begin = begin;
  task.end = end;
  task.grain = grain;
  task.num_chunks = chunks;
  const int64_t want_workers =
      std::min<int64_t>(static_cast<int64_t>(threads) - 1, chunks - 1);
  task.max_workers = static_cast<int>(want_workers);
  Pool::Get().Run(&task);
  if (task.error) std::rethrow_exception(task.error);
}

}  // namespace sgnn::parallel
