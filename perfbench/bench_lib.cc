#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) { return Next() % n; }

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  SplitMix64 mix(seed);
  return mix.Next() ^ SplitMix64(tag ^ 0xD1B54A32D192ED03ULL).Next();
}

namespace {

int64_t SkewedNode(int64_t n, const Skew& skew, SplitMix64* rng) {
  const auto hot = static_cast<uint64_t>(std::max<int64_t>(
      1, static_cast<int64_t>(skew.hot_frac * static_cast<double>(n))));
  const bool is_hot = rng->Uniform() < skew.hot_share;
  return static_cast<int64_t>(
      rng->Below(is_hot ? hot : static_cast<uint64_t>(n)));
}

}  // namespace

std::vector<int64_t> SkewedNodes(int64_t n, size_t count, const Skew& skew,
                                 SplitMix64* rng) {
  std::vector<int64_t> nodes(count);
  for (int64_t& node : nodes) node = SkewedNode(n, skew, rng);
  return nodes;
}

std::vector<Arrival> PoissonSchedule(double qps, double duration_ms,
                                     int64_t n, const Skew& skew,
                                     uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(qps * duration_ms / 1e3 * 1.1) + 16);
  const double mean_gap_ms = 1e3 / qps;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u lies in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ms;
    if (t >= duration_ms) break;
    schedule.push_back({t, SkewedNode(n, skew, &rng)});
  }
  return schedule;
}

namespace {

void FillUniform(std::vector<float>* v, SplitMix64* rng) {
  // Never 0, so no multiply-add is skipped.
  for (float& x : *v) x = static_cast<float>(0.5 + rng->Uniform());
}

}  // namespace

Calibrator::Calibrator(const CalibShape& shape)
    : shape_(shape),
      tables_(
          static_cast<size_t>(shape.terms * shape.table_rows * shape.width)),
      rows_(static_cast<size_t>(shape.steps * shape.batch)),
      gathered_(static_cast<size_t>(shape.terms * shape.batch * shape.width)),
      x_(static_cast<size_t>(shape.batch * shape.width)),
      w_(static_cast<size_t>(shape.width * shape.hidden)),
      g_(static_cast<size_t>(shape.batch * shape.hidden)),
      out_(g_.size()),
      w_grad_(w_.size()),
      x_grad_(x_.size()),
      next_(1u << 24) {
  SplitMix64 rng(0x5EED);
  FillUniform(&tables_, &rng);
  FillUniform(&w_, &rng);
  FillUniform(&g_, &rng);
  for (int32_t& r : rows_) {
    r = static_cast<int32_t>(
        rng.Below(static_cast<uint64_t>(shape.table_rows)));
  }
  // Sattolo's shuffle: a single cycle through every slot, so the chase
  // never settles into a cache-resident loop.
  for (uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  for (size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[rng.Below(i)]);
  }
}

size_t Calibrator::resident_bytes() const {
  return (tables_.size() + gathered_.size() + x_.size() + w_.size() +
          g_.size() + out_.size() + w_grad_.size() + x_grad_.size()) *
             sizeof(float) +
         rows_.size() * sizeof(int32_t) + next_.size() * sizeof(uint32_t);
}

CalibReading Calibrator::Run() {
  CalibReading r;
  r.step_ms = RunStepMs();
  r.memory_ms = RunMemoryMs();
  return r;
}

double Calibrator::RunMemoryMs() {
  const auto t0 = std::chrono::steady_clock::now();
  uint32_t p = 0;
  for (int i = 0; i < (1 << 17); ++i) p = next_[p];
  uint64_t acc = p;
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint32_t v : next_) acc += v * 2654435761ULL;
  }
  double x = 1.0;
  for (int i = 0; i < (1 << 21); ++i) x = x * 0.999999 + 1e-7;
  sink_ += static_cast<double>(acc % 1024) + x;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double Calibrator::RunStepMs() {
  const auto t0 = std::chrono::steady_clock::now();
  const int64_t b = shape_.batch, w = shape_.width, h = shape_.hidden;
  const auto row_bytes = static_cast<size_t>(w) * sizeof(float);
  for (int step = 0; step < shape_.steps; ++step) {
    const int32_t* rows = &rows_[static_cast<size_t>(step * b)];
    for (int64_t t = 0; t < shape_.terms; ++t) {
      const float* table =
          &tables_[static_cast<size_t>(t * shape_.table_rows * w)];
      float* dst = &gathered_[static_cast<size_t>(t * b * w)];
      for (int64_t i = 0; i < b; ++i) {
        std::memcpy(dst + i * w, table + static_cast<int64_t>(rows[i]) * w,
                    row_bytes);
      }
    }
    std::fill(x_.begin(), x_.end(), 0.0f);
    for (int64_t t = 0; t < shape_.terms; ++t) {
      const float* src = &gathered_[static_cast<size_t>(t * b * w)];
      const auto theta = static_cast<float>(1.0 / static_cast<double>(t + 1));
      for (size_t i = 0; i < x_.size(); ++i) x_[i] += theta * src[i];
    }
    // out = x * w, i-k-j.
    std::fill(out_.begin(), out_.end(), 0.0f);
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t k = 0; k < w; ++k) {
        const float a = x_[static_cast<size_t>(i * w + k)];
        for (int64_t j = 0; j < h; ++j) {
          out_[static_cast<size_t>(i * h + j)] +=
              a * w_[static_cast<size_t>(k * h + j)];
        }
      }
    }
    // w_grad = x^T * g, accumulated over the batch rows.
    std::fill(w_grad_.begin(), w_grad_.end(), 0.0f);
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t k = 0; k < w; ++k) {
        const float a = x_[static_cast<size_t>(i * w + k)];
        for (int64_t j = 0; j < h; ++j) {
          w_grad_[static_cast<size_t>(k * h + j)] +=
              a * g_[static_cast<size_t>(i * h + j)];
        }
      }
    }
    // x_grad = g * w^T, one double-accumulated dot product per element.
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t k = 0; k < w; ++k) {
        double acc = 0.0;
        for (int64_t j = 0; j < h; ++j) {
          acc += static_cast<double>(g_[static_cast<size_t>(i * h + j)]) *
                 w_[static_cast<size_t>(k * h + j)];
        }
        x_grad_[static_cast<size_t>(i * w + k)] = static_cast<float>(acc);
      }
    }
    sink_ += out_[0] + w_grad_[0] + x_grad_[0];
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

WakeCalibrator::WakeCalibrator(double hold_ms, int handoffs)
    : hold_(hold_ms), handoffs_(handoffs), worker_([this] { Work(); }) {}

WakeCalibrator::~WakeCalibrator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_one();
  worker_.join();
}

double WakeCalibrator::RunMs() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sent_.clear();
    done_ms_.clear();
  }
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      hold_ + std::chrono::duration<double, std::milli>(0.3));
  Clock::time_point due = Clock::now();
  for (int i = 0; i < handoffs_; ++i) {
    due += gap;
    std::this_thread::sleep_until(due);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sent_.emplace_back(due, Clock::now());
    }
    wake_cv_.notify_one();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return done_ms_.size() == sent_.size(); });
  return Median(done_ms_);
}

void WakeCalibrator::Work() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock,
                  [this] { return stop_ || done_ms_.size() < sent_.size(); });
    if (stop_) return;
    const auto [due, sent] = sent_[done_ms_.size()];
    const auto until =
        sent + std::chrono::duration_cast<Clock::duration>(hold_);
    while (Clock::now() < until) hold_cv_.wait_until(lock, until);
    done_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due)
            .count());
    if (done_ms_.size() == sent_.size()) done_cv_.notify_one();
  }
}

void OpenLoopRecorder::Record(double due_ms, double submit_ms,
                              double engine_ms) {
  const double late = std::max(0.0, submit_ms - due_ms);
  late_.push_back(late);
  latency_.push_back(late + engine_ms);
}

bool RowsByteEqual(const float* a, const float* b, size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

bool AccountingHolds(uint64_t offered, uint64_t ok, uint64_t deadline_shed,
                     uint64_t failed) {
  return offered == ok + deadline_shed + failed;
}

Digest& Digest::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001B3ULL;
  }
  return *this;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(tracer == nullptr ? -1 : tracer->Begin(name)) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::Begin(const std::string& name) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  const int index =
      Add(name, now, now, open_.empty() ? -1 : open_.back());
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent) {
  spans_.push_back({name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::TotalMs(int index) const {
  const Span& s = spans_[static_cast<size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

double Tracer::SelfMs(int index) const {
  double self = TotalMs(index);
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) self -= TotalMs(static_cast<int>(i));
  }
  return self;
}

bool Tracer::Inside(int index, int ancestor) const {
  for (int p = spans_[static_cast<size_t>(index)].parent; p >= 0;
       p = spans_[static_cast<size_t>(p)].parent) {
    if (p == ancestor) return true;
  }
  return false;
}

double Tracer::SelfMsByName(const std::string& name, int within) const {
  double sum = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int idx = static_cast<int>(i);
    if (spans_[i].name == name && (within < 0 || Inside(idx, within))) {
      sum += SelfMs(idx);
    }
  }
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string body;
  for (const auto& [name, m] : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      v = 0.0;
      correct = false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), v, m.unit.c_str());
    body += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string(head) + "\"metrics\": {" + body + "}}";
}

}  // namespace perfbench
