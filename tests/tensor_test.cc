// Unit tests for the tensor substrate: Matrix, ops, RNG, device tracking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "quant/quantize.h"
#include "sparse/csr.h"
#include "tensor/cpu.h"
#include "tensor/device.h"
#include "tensor/gemm_kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/status.h"

namespace sgnn {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, ValueOrReturnsValueWhenOk) {
  Result<int> r(42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, ValueOrReturnsFallbackOnError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Status, NewCodesHaveNamesAndFactories) {
  EXPECT_EQ(Status::NumericalError("nan").ToString(), "NumericalError: nan");
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "DeadlineExceeded: late");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status SumPositive(int a, int b, int* out) {
  SGNN_ASSIGN_OR_RETURN(const int va, ParsePositive(a));
  SGNN_ASSIGN_OR_RETURN(const int vb, ParsePositive(b));
  *out = va + vb;
  return Status::OK();
}

TEST(AssignOrReturn, AssignsOnSuccess) {
  int sum = 0;
  ASSERT_TRUE(SumPositive(2, 3, &sum).ok());
  EXPECT_EQ(sum, 5);
}

TEST(AssignOrReturn, PropagatesErrorAndStops) {
  int sum = -7;
  const Status s = SumPositive(2, 0, &sum);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sum, -7);  // assignment after the failing expansion never ran
}

TEST(AssignOrReturn, MovesNonCopyableValues) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(9);
  };
  auto body = [&]() -> Status {
    SGNN_ASSIGN_OR_RETURN(std::unique_ptr<int> p, make());
    return p != nullptr && *p == 9 ? Status::OK()
                                   : Status::Internal("bad move");
  };
  EXPECT_TRUE(body().ok());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounded) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 4000; ++i) hits[rng.UniformInt(8)]++;
  for (int h : hits) EXPECT_GT(h, 300);  // roughly uniform
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, AtAccessors) {
  Matrix m(2, 2);
  m.at(1, 0) = 3.5f;
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.5f);
  EXPECT_FLOAT_EQ(m.row(1)[0], 3.5f);
}

TEST(Matrix, GatherRows) {
  Matrix m(4, 2);
  for (int64_t i = 0; i < 4; ++i) m.at(i, 0) = static_cast<float>(i);
  Matrix g = m.GatherRows({3, 1});
  EXPECT_EQ(g.rows(), 2);
  EXPECT_FLOAT_EQ(g.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(g.at(1, 0), 1.0f);
}

TEST(Matrix, AllCloseDetectsDifference) {
  Matrix a(2, 2), b(2, 2);
  EXPECT_TRUE(a.AllClose(b));
  b.at(0, 0) = 1e-3f;
  EXPECT_FALSE(a.AllClose(b, 1e-5f));
  EXPECT_TRUE(a.AllClose(b, 1e-2f));
}

TEST(Matrix, NormOfUnitRow) {
  Matrix m(1, 4);
  m.Fill(0.5f);
  EXPECT_NEAR(m.Norm(), 1.0, 1e-6);
}

TEST(DeviceTracker, TracksLiveBytes) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  const size_t before = t.live_bytes(Device::kHost);
  {
    Matrix m(100, 100, Device::kHost);
    EXPECT_EQ(t.live_bytes(Device::kHost), before + 100 * 100 * 4);
  }
  EXPECT_EQ(t.live_bytes(Device::kHost), before);
}

TEST(DeviceTracker, PeakHighWaterMark) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    Matrix a(10, 10, Device::kAccel);
    Matrix b(20, 10, Device::kAccel);
  }
  EXPECT_EQ(t.peak_bytes(Device::kAccel), (100 + 200) * 4u);
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
}

TEST(DeviceTracker, OomLatchesAboveCapacity) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  t.set_accel_capacity(100);
  EXPECT_FALSE(t.accel_oom());
  { Matrix m(10, 10, Device::kAccel); }
  EXPECT_TRUE(t.accel_oom());  // latched even after free
  t.ClearOom();
  EXPECT_FALSE(t.accel_oom());
  t.set_accel_capacity(0);
  t.ResetAll();
}

TEST(DeviceTracker, MoveToDeviceTransfersAccounting) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  Matrix m(10, 10, Device::kHost);
  const size_t bytes = m.bytes();
  EXPECT_EQ(t.live_bytes(Device::kHost), bytes);
  m.MoveToDevice(Device::kAccel);
  EXPECT_EQ(t.live_bytes(Device::kHost), 0u);
  EXPECT_EQ(t.live_bytes(Device::kAccel), bytes);
  t.ResetAll();
}

TEST(DeviceTracker, MoveSemanticsDoNotDoubleCount) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  Matrix a(10, 10, Device::kHost);
  const size_t bytes = a.bytes();
  Matrix b = std::move(a);
  EXPECT_EQ(t.live_bytes(Device::kHost), bytes);
  a = Matrix(5, 5, Device::kHost);
  EXPECT_EQ(t.live_bytes(Device::kHost), bytes + 100);
  t.ResetAll();
}

TEST(DeviceTracker, AllocFaultHookLatchesOom) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  int calls = 0;
  t.SetAllocFaultHook([&](Device d, size_t) {
    ++calls;
    return d == Device::kAccel;
  });
  t.OnAlloc(Device::kHost, 64);
  EXPECT_FALSE(t.accel_oom());  // hook fires only for accel allocations
  t.OnAlloc(Device::kAccel, 64);
  EXPECT_TRUE(t.accel_oom());
  EXPECT_EQ(calls, 2);
  t.OnFree(Device::kHost, 64);
  t.OnFree(Device::kAccel, 64);
  t.SetAllocFaultHook(nullptr);
  t.ResetAll();
}

TEST(DeviceTracker, OomEventCountsLatchTransitionsOnly) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  t.set_accel_capacity(100);
  t.OnAlloc(Device::kAccel, 200);  // crosses capacity: one event
  t.OnAlloc(Device::kAccel, 200);  // still latched: no new event
  EXPECT_EQ(t.oom_events(), 1u);
  t.ClearOom();
  t.OnAlloc(Device::kAccel, 200);  // second crossing after clear
  EXPECT_EQ(t.oom_events(), 2u);
  t.OnFree(Device::kAccel, 600);
  t.set_accel_capacity(0);
  t.ResetAll();
}

TEST(DeviceTracker, ConcurrentAllocFreeIsExact) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr size_t kBytes = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        t.OnAlloc(Device::kAccel, kBytes);
      }
      for (int j = 0; j < kIters; ++j) {
        t.OnFree(Device::kAccel, kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  // Peak is at least one thread's full allocation and at most all of them.
  EXPECT_GE(t.peak_bytes(Device::kAccel), kIters * kBytes);
  EXPECT_LE(t.peak_bytes(Device::kAccel), kThreads * kIters * kBytes);
  EXPECT_FALSE(t.accel_oom());
  t.ResetAll();
}

TEST(DeviceTracker, ConcurrentCapacityCrossingLatchesOnce) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  // Capacity sits above any single thread's footprint but far below the
  // combined one, so the crossing happens while threads race.
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  constexpr size_t kBytes = 64;
  t.set_accel_capacity(2 * kIters * kBytes);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kIters; ++j) {
        t.OnAlloc(Device::kAccel, kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(t.accel_oom());
  EXPECT_EQ(t.oom_events(), 1u);  // latch fires exactly once per crossing
  t.OnFree(Device::kAccel, kThreads * kIters * kBytes);
  t.set_accel_capacity(0);
  t.ResetAll();
}

// --- DeviceBytes: the one owner of a tensor's tracker registration --------

TEST(DeviceBytes, ConstructionAndCopyEachRegister) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    const DeviceBytes a(Device::kAccel, 64);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 64u);
    const DeviceBytes b(a);
    EXPECT_EQ(b.device(), Device::kAccel);
    EXPECT_EQ(b.bytes(), 64u);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 128u);
  }
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  t.ResetAll();
}

TEST(DeviceBytes, CopyAssignFreesOldBytesBeforeRegisteringNew) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  DeviceBytes target(Device::kAccel, 100);
  const DeviceBytes source(Device::kAccel, 60);
  t.ResetPeak();
  target = source;
  // Registering before freeing would have peaked at 100 + 60 + 60.
  EXPECT_EQ(t.peak_bytes(Device::kAccel), 160u);
  EXPECT_EQ(t.live_bytes(Device::kAccel), 120u);
  EXPECT_EQ(target.bytes(), 60u);
  t.ResetAll();
}

TEST(DeviceBytes, SelfAssignKeepsRegistration) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    DeviceBytes d(Device::kHost, 32);
    DeviceBytes& alias = d;
    d = alias;
    EXPECT_EQ(d.bytes(), 32u);
    EXPECT_EQ(t.live_bytes(Device::kHost), 32u);
    d = std::move(alias);
    EXPECT_EQ(d.bytes(), 32u);
    EXPECT_EQ(t.live_bytes(Device::kHost), 32u);
  }
  EXPECT_EQ(t.live_bytes(Device::kHost), 0u);
  t.ResetAll();
}

TEST(DeviceBytes, MoveHandsOverAndLeavesSourceEmptyOnItsDevice) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    DeviceBytes a(Device::kAccel, 48);
    DeviceBytes b(std::move(a));
    EXPECT_EQ(t.live_bytes(Device::kAccel), 48u);
    EXPECT_EQ(a.bytes(), 0u);
    EXPECT_EQ(a.device(), Device::kAccel);
    DeviceBytes c(Device::kAccel, 16);
    c = std::move(b);  // frees c's 16, takes b's 48
    EXPECT_EQ(t.live_bytes(Device::kAccel), 48u);
    EXPECT_EQ(b.bytes(), 0u);
    EXPECT_EQ(c.bytes(), 48u);
  }
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  t.ResetAll();
}

TEST(DeviceBytes, MoveToRehomesBytesAndIsNoOpOnSameDevice) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  int calls = 0;
  t.SetAllocFaultHook([&](Device, size_t) {
    ++calls;
    return false;
  });
  {
    DeviceBytes d(Device::kHost, 40);
    d.MoveTo(Device::kAccel);
    EXPECT_EQ(d.device(), Device::kAccel);
    EXPECT_EQ(t.live_bytes(Device::kHost), 0u);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 40u);
    EXPECT_EQ(calls, 2);
    d.MoveTo(Device::kAccel);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 40u);
    EXPECT_EQ(calls, 2);
  }
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  t.SetAllocFaultHook(nullptr);
  t.ResetAll();
}

TEST(DeviceBytes, ZeroBytesNeverReachTheAllocHook) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  int calls = 0;
  t.SetAllocFaultHook([&](Device, size_t) {
    ++calls;
    return true;
  });
  {
    DeviceBytes d(Device::kAccel, 0);
    DeviceBytes copy(d);
    copy = d;
    d.MoveTo(Device::kHost);
    d.MoveTo(Device::kAccel);
    const Matrix empty(0, 5, Device::kAccel);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(t.accel_oom());
  t.SetAllocFaultHook(nullptr);
  t.ResetAll();
}

/// Builds a non-empty instance of each tensor type that holds a DeviceBytes.
template <typename T>
T MakeOwner(Device device);
template <>
Matrix MakeOwner<Matrix>(Device device) {
  return Matrix(3, 5, device);
}
template <>
sparse::CsrMatrix MakeOwner<sparse::CsrMatrix>(Device device) {
  return sparse::CsrMatrix(2, {0, 1, 2}, {1, 0}, {0.5f, 0.5f}, device);
}
template <>
quant::QuantizedMatrix MakeOwner<quant::QuantizedMatrix>(Device device) {
  return quant::QuantizedMatrix(quant::Precision::kInt8, 3, 5, device);
}

bool IsEmptyShape(const Matrix& m) { return m.rows() == 0 && m.cols() == 0; }
bool IsEmptyShape(const sparse::CsrMatrix& m) {
  return m.n() == 0 && m.nnz() == 0;
}
bool IsEmptyShape(const quant::QuantizedMatrix& m) {
  return m.rows() == 0 && m.cols() == 0;
}

template <typename T>
class TensorOwner : public ::testing::Test {};
using OwnerTypes =
    ::testing::Types<Matrix, sparse::CsrMatrix, quant::QuantizedMatrix>;
TYPED_TEST_SUITE(TensorOwner, OwnerTypes);

TYPED_TEST(TensorOwner, CopyMoveAndMoveToDeviceKeepOneRegistration) {
  auto& t = DeviceTracker::Global();
  t.ResetAll();
  {
    const TypeParam a = MakeOwner<TypeParam>(Device::kHost);
    const size_t b = a.bytes();
    ASSERT_GT(b, 0u);
    EXPECT_EQ(t.live_bytes(Device::kHost), b);

    TypeParam copy(a);
    EXPECT_EQ(t.live_bytes(Device::kHost), 2 * b);

    TypeParam assigned = MakeOwner<TypeParam>(Device::kAccel);
    assigned = a;  // frees the accel bytes, registers a host copy
    EXPECT_EQ(assigned.device(), Device::kHost);
    EXPECT_EQ(t.live_bytes(Device::kHost), 3 * b);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);

    TypeParam moved(std::move(copy));
    EXPECT_TRUE(IsEmptyShape(copy));
    EXPECT_EQ(t.live_bytes(Device::kHost), 3 * b);

    TypeParam target = MakeOwner<TypeParam>(Device::kAccel);
    target = std::move(moved);  // frees the accel bytes, takes moved's
    EXPECT_TRUE(IsEmptyShape(moved));
    EXPECT_EQ(target.device(), Device::kHost);
    EXPECT_EQ(t.live_bytes(Device::kHost), 3 * b);
    EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);

    target.MoveToDevice(Device::kAccel);
    EXPECT_EQ(t.live_bytes(Device::kHost), 2 * b);
    EXPECT_EQ(t.live_bytes(Device::kAccel), b);
  }
  EXPECT_EQ(t.live_bytes(Device::kHost), 0u);
  EXPECT_EQ(t.live_bytes(Device::kAccel), 0u);
  t.ResetAll();
}

TEST(FormatBytes, HumanReadable) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3'500'000), "3.5 MB");
  EXPECT_EQ(FormatBytes(1'230'000'000), "1.23 GB");
}

TEST(Ops, GemmMatchesManual) {
  Matrix a(2, 3), b(3, 2), out(2, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  ops::Gemm(a, b, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154);
}

TEST(Ops, GemmTransAConsistentWithGemm) {
  Rng rng(1);
  Matrix a(4, 3), b(4, 5);
  a.FillNormal(&rng);
  b.FillNormal(&rng);
  Matrix at(3, 4);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  Matrix out1(3, 5), out2(3, 5);
  ops::GemmTransA(a, b, &out1);
  ops::Gemm(at, b, &out2);
  EXPECT_TRUE(out1.AllClose(out2, 1e-4f));
}

TEST(Ops, GemmTransBConsistentWithGemm) {
  Rng rng(2);
  Matrix a(4, 3), b(5, 3);
  a.FillNormal(&rng);
  b.FillNormal(&rng);
  Matrix bt(3, 5);
  for (int64_t i = 0; i < 5; ++i)
    for (int64_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  Matrix out1(4, 5), out2(4, 5);
  ops::GemmTransB(a, b, &out1);
  ops::Gemm(a, bt, &out2);
  EXPECT_TRUE(out1.AllClose(out2, 1e-4f));
}

// The GEMM row kernels exist once per ISA (tensor/gemm_kernels.h). Both
// sets must give the bits of the scalar loops the GEMMs ran before they
// were vectorized, which these tests keep as the reference.

/// out = a * b: i-k-j order, float sums with kk ascending, zero skip.
void ScalarGemm(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Fill(0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t kk = 0; kk < a.cols(); ++kk) {
      const float av = a.at(i, kk);
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < b.cols(); ++j) out->at(i, j) += av * b.at(kk, j);
    }
  }
}

/// out = a^T * b: same per-element order and zero skip.
void ScalarGemmTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Fill(0.0f);
  for (int64_t kk = 0; kk < a.rows(); ++kk) {
    for (int64_t i = 0; i < a.cols(); ++i) {
      const float av = a.at(kk, i);
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < b.cols(); ++j) out->at(i, j) += av * b.at(kk, j);
    }
  }
}

/// out = a * b^T: one serial double dot product per element.
void ScalarGemmTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < a.cols(); ++kk) {
        acc += double(a.at(i, kk)) * b.at(j, kk);
      }
      out->at(i, j) = static_cast<float>(acc);
    }
  }
}

/// Normal draws with every third row and about one entry in five set to
/// an exact zero, so the kernels' `av == 0` skip is taken.
Matrix RandomWithZeros(int64_t rows, int64_t cols, Rng* rng) {
  Matrix x(rows, cols);
  x.FillNormal(rng);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (i % 3 == 1 || rng->UniformInt(5) == 0) x.at(i, j) = 0.0f;
    }
  }
  return x;
}

bool SameBits(const Matrix& x, const Matrix& y) {
  // An empty matrix has a null data(), which memcmp must not see.
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.bytes() == 0 || std::memcmp(x.data(), y.data(), x.bytes()) == 0);
}

/// The three products of one path.
struct GemmProducts {
  Matrix gemm, trans_a, trans_b;
};

/// Inputs of one shape and the scalar loops' products.
struct GemmIsaCase {
  int64_t n, k, m;
  Matrix a, a_t, b, b_t;  // a (n,k), a_t (k,n), b (k,m), b_t (m,k)
  GemmProducts ref;
};

/// Rows per chunk of Gemm and GemmTransB in ops.cc: ~64k multiply-adds.
int64_t RowGrain(int64_t k, int64_t m) {
  return parallel::GrainForFlops(k * m, int64_t{1} << 16);
}

/// Rows per chunk of GemmTransA in ops.cc: at least one register tile.
int64_t TransAGrain(int64_t k, int64_t m) {
  return std::max(RowGrain(k, m), ops::gemm::kMaxTileRows);
}

/// Calls `check` on each case in turn, so one case's matrices are alive at
/// a time. m and k cross every vector tail (1, 7, 8, 9, 33 columns), every
/// register-kernel width (8, 16, 32, 64), an empty inner dimension and a
/// batch-scale one (4096, where GemmTransA's grain is a tile, not a row).
/// n lands one row either side of each grain, so a run ends on a partial
/// chunk and GemmTransA runs both full tiles and leftover rows.
template <typename Check>
void ForEachGemmIsaCase(Check check) {
  Rng rng(14);
  for (int64_t m : {1, 7, 8, 9, 16, 32, 33, 64}) {
    for (int64_t k : {0, 1, 31, 64, 4096}) {
      std::vector<int64_t> ns;
      for (int64_t grain : {RowGrain(k, m), TransAGrain(k, m)}) {
        for (int64_t n : {grain - 1, grain + 1}) {
          if (std::find(ns.begin(), ns.end(), n) == ns.end()) ns.push_back(n);
        }
      }
      for (int64_t n : ns) {
        GemmIsaCase c{n,
                      k,
                      m,
                      RandomWithZeros(n, k, &rng),
                      RandomWithZeros(k, n, &rng),
                      Matrix(k, m),
                      Matrix(m, k),
                      {Matrix(n, m), Matrix(n, m), Matrix(n, m)}};
        c.b.FillNormal(&rng);
        c.b_t.FillNormal(&rng);
        if (n >= 1 && k >= 3) {
          // Row 0 of `a` is {2^60, -2^60, 1, 0, ...} and b^T's first two
          // rows are equal, so the big products cancel exactly only when
          // they are added first: GemmTransB's double sums, which random
          // data rounds the same in any order, show their order too.
          float* a0 = c.a.row(0);
          std::fill(a0, a0 + k, 0.0f);
          a0[0] = 0x1p60f;
          a0[1] = -0x1p60f;
          a0[2] = 1.0f;
          for (int64_t j = 0; j < m; ++j) c.b_t.at(j, 1) = c.b_t.at(j, 0);
        }
        if (n >= 3 && m >= 2) {
          // Row 2 of `a` and column 2 of a_t are -1, and column m-1 of b
          // and row m-1 of b_t are +0: that output element sums only -0
          // products, and a sum that starts at +0 stays +0.
          for (int64_t kk = 0; kk < k; ++kk) {
            c.a.at(2, kk) = -1.0f;
            c.a_t.at(kk, 2) = -1.0f;
            c.b.at(kk, m - 1) = 0.0f;
            c.b_t.at(m - 1, kk) = 0.0f;
          }
        }
        if (k >= 2) {
          // a[i][1] is zero in every third row of `a`, and a_t[1][i] is
          // zero except at i = 2, so skipping those zeros leaves their sums
          // finite, where multiplying would give 0 * inf = NaN.
          c.b.at(1, 0) = std::numeric_limits<float>::infinity();
        }
        ScalarGemm(c.a, c.b, &c.ref.gemm);
        ScalarGemmTransA(c.a_t, c.b, &c.ref.trans_a);
        ScalarGemmTransB(c.a, c.b_t, &c.ref.trans_b);
        check(c);
      }
    }
  }
}

std::string CaseName(const GemmIsaCase& c, int threads) {
  return "n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
         " m=" + std::to_string(c.m) + " threads=" + std::to_string(threads);
}

/// Runs `twins`' three products over every output row in chunks of their
/// ops.cc grains on the pool.
GemmProducts RunTwins(const ops::gemm::RowKernels& twins,
                      const GemmIsaCase& c) {
  // GemmTransB's rows take b^T in double.
  std::vector<double> b_tt(static_cast<size_t>(c.k * c.m));
  for (int64_t j = 0; j < c.m; ++j) {
    for (int64_t kk = 0; kk < c.k; ++kk) {
      b_tt[static_cast<size_t>(kk * c.m + j)] = c.b_t.at(j, kk);
    }
  }
  GemmProducts p{Matrix(c.n, c.m), Matrix(c.n, c.m), Matrix(c.n, c.m)};
  p.gemm.Fill(1.0f);  // the kernels must overwrite, not accumulate
  p.trans_a.Fill(1.0f);
  p.trans_b.Fill(1.0f);
  parallel::ParallelFor(
      0, c.n, RowGrain(c.k, c.m), [&](int64_t lo, int64_t hi) {
        twins.gemm(c.a.data(), c.b.data(), p.gemm.data(), lo, hi, c.k, c.m);
        twins.trans_b(c.a.data(), b_tt.data(), p.trans_b.data(), lo, hi,
                      c.k, c.m);
      });
  parallel::ParallelFor(
      0, c.n, TransAGrain(c.k, c.m), [&](int64_t lo, int64_t hi) {
        twins.trans_a(c.a_t.data(), c.b.data(), p.trans_a.data(), lo, hi,
                      c.k, c.n, c.m);
      });
  return p;
}

void ExpectSameProducts(const GemmProducts& got, const GemmProducts& want) {
  EXPECT_TRUE(SameBits(got.gemm, want.gemm)) << "Gemm";
  EXPECT_TRUE(SameBits(got.trans_a, want.trans_a)) << "GemmTransA";
  EXPECT_TRUE(SameBits(got.trans_b, want.trans_b)) << "GemmTransB";
}

TEST(GemmIsa, BaselineAndOpsMatchScalarLoops) {
  ForEachGemmIsaCase([](const GemmIsaCase& c) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(CaseName(c, threads));
      parallel::SetNumThreads(threads);
      ExpectSameProducts(RunTwins(ops::gemm::kBaselineKernels, c), c.ref);
      // The public ops, on this host's twins and their own b^T scratch.
      GemmProducts public_ops{Matrix(c.n, c.m), Matrix(c.n, c.m),
                              Matrix(c.n, c.m)};
      ops::Gemm(c.a, c.b, &public_ops.gemm);
      ops::GemmTransA(c.a_t, c.b, &public_ops.trans_a);
      ops::GemmTransB(c.a, c.b_t, &public_ops.trans_b);
      ExpectSameProducts(public_ops, c.ref);
    }
  });
  parallel::SetNumThreads(0);
}

TEST(GemmIsa, Avx2MatchesBaselineAndScalarLoops) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  ForEachGemmIsaCase([](const GemmIsaCase& c) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(CaseName(c, threads));
      parallel::SetNumThreads(threads);
      const GemmProducts avx2 = RunTwins(ops::gemm::kAvx2Kernels, c);
      ExpectSameProducts(avx2, RunTwins(ops::gemm::kBaselineKernels, c));
      ExpectSameProducts(avx2, c.ref);
    }
  });
  parallel::SetNumThreads(0);
}

TEST(Ops, ReluBackwardMatchesBranchyLoopBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float pre[] = {nan, -nan, inf, -inf, 2.5f, -2.5f, 0.0f, -0.0f,
                       denorm, -denorm};
  const float grad[] = {1.5f, -1.5f, 0.0f, -0.0f, nan, inf};
  Matrix preact(std::size(pre), std::size(grad));
  Matrix got(preact.rows(), preact.cols());
  for (int64_t i = 0; i < preact.rows(); ++i) {
    for (int64_t j = 0; j < preact.cols(); ++j) {
      preact.at(i, j) = pre[i];
      got.at(i, j) = grad[j];
    }
  }
  // The branchy loop the kernel replaced: a NaN pre-activation keeps its
  // gradient, and so does a positive one.
  Matrix want = got;
  for (int64_t i = 0; i < want.size(); ++i) {
    if (preact.data()[i] <= 0.0f) want.data()[i] = 0.0f;
  }
  ops::ReluBackwardInPlace(preact, &got);
  EXPECT_TRUE(SameBits(got, want));
  EXPECT_EQ(got.at(0, 0), 1.5f);  // NaN pre-activation
  EXPECT_EQ(got.at(7, 0), 0.0f);  // -0 pre-activation
  EXPECT_EQ(got.at(8, 0), 1.5f);  // smallest positive pre-activation
}

TEST(Ops, AxpyAndScale) {
  Matrix x(2, 2), y(2, 2);
  x.Fill(2.0f);
  y.Fill(1.0f);
  ops::Axpy(3.0f, x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
  ops::Scale(0.5f, &y);
  EXPECT_FLOAT_EQ(y.at(1, 1), 3.5f);
}

TEST(Ops, DotIsFrobeniusInner) {
  Matrix a(2, 2), b(2, 2);
  a.Fill(2.0f);
  b.Fill(3.0f);
  EXPECT_DOUBLE_EQ(ops::Dot(a, b), 24.0);
}

TEST(Ops, AddSubMul) {
  Matrix a(1, 3), b(1, 3), out(1, 3);
  a.Fill(5.0f);
  b.Fill(2.0f);
  ops::Add(a, b, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 7.0f);
  ops::Sub(a, b, &out);
  EXPECT_FLOAT_EQ(out.at(0, 1), 3.0f);
  ops::MulInPlace(a, &b);
  EXPECT_FLOAT_EQ(b.at(0, 2), 10.0f);
}

TEST(Ops, ColumnSumAndBroadcast) {
  Matrix x(3, 2);
  for (int64_t i = 0; i < 3; ++i) {
    x.at(i, 0) = 1.0f;
    x.at(i, 1) = 2.0f;
  }
  Matrix s(1, 2);
  ops::ColumnSum(x, &s);
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.at(0, 1), 6.0f);
  ops::AddRowBroadcast(s, &x);
  EXPECT_FLOAT_EQ(x.at(2, 1), 8.0f);
}

TEST(Ops, ColumnNormAndDot) {
  Matrix x(2, 2);
  x.at(0, 0) = 3.0f;
  x.at(1, 0) = 4.0f;
  x.at(0, 1) = 1.0f;
  Matrix norm(1, 2);
  ops::ColumnNorm(x, &norm);
  EXPECT_FLOAT_EQ(norm.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(norm.at(0, 1), 1.0f);
  Matrix d(1, 2);
  ops::ColumnDot(x, x, &d);
  EXPECT_FLOAT_EQ(d.at(0, 0), 25.0f);
}

TEST(Ops, ColumnScaleAndAxpyColumnwise) {
  Matrix x(2, 2);
  x.Fill(1.0f);
  Matrix alpha(1, 2);
  alpha.at(0, 0) = 2.0f;
  alpha.at(0, 1) = 3.0f;
  ops::ColumnScale(alpha, &x);
  EXPECT_FLOAT_EQ(x.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 3.0f);
  Matrix y(2, 2);
  ops::AxpyColumnwise(alpha, x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 9.0f);
}

TEST(Ops, RowL2Normalize) {
  Matrix x(2, 2);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  ops::RowL2Normalize(&x);
  EXPECT_NEAR(x.at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(x.at(0, 1), 0.8f, 1e-6);
  // Zero row untouched.
  EXPECT_FLOAT_EQ(x.at(1, 0), 0.0f);
}

}  // namespace
}  // namespace sgnn
