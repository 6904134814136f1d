#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "tests/gemm_reference.h"

namespace prism {
namespace {

Tensor RandomTensor(size_t rows, size_t cols, uint64_t seed, MemoryTracker* tracker) {
  Tensor t(rows, cols, MemCategory::kScratch, tracker);
  Rng rng(seed);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

// Reference O(n³) matmul for cross-checking the optimised kernels.
void NaiveMatMul(const Tensor& a, const Tensor& b, Tensor* c, bool trans_b) {
  for (size_t i = 0; i < c->rows(); ++i) {
    for (size_t j = 0; j < c->cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * (trans_b ? b.at(j, k) : b.at(k, j));
      }
      c->at(i, j) = static_cast<float>(acc);
    }
  }
}

TEST(TensorTest, AllocationTracksMemory) {
  MemoryTracker tracker;
  {
    Tensor t(8, 16, MemCategory::kActivations, &tracker);
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations), 8 * 16 * 4);
    EXPECT_EQ(t.rows(), 8u);
    EXPECT_EQ(t.cols(), 16u);
  }
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations), 0);
}

TEST(TensorTest, CloneCopiesData) {
  MemoryTracker tracker;
  Tensor t(2, 2, MemCategory::kScratch, &tracker);
  t.at(0, 1) = 3.5f;
  Tensor copy = t.Clone(MemCategory::kScratch, &tracker);
  EXPECT_EQ(copy.at(0, 1), 3.5f);
  copy.at(0, 1) = 1.0f;
  EXPECT_EQ(t.at(0, 1), 3.5f);
}

TEST(TensorTest, RowSpanWrites) {
  MemoryTracker tracker;
  Tensor t(3, 4, MemCategory::kScratch, &tracker);
  auto row = t.row(1);
  row[2] = 7.0f;
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(OpsTest, MatMulMatchesNaive) {
  MemoryTracker tracker;
  const Tensor a = RandomTensor(7, 13, 1, &tracker);
  const Tensor b = RandomTensor(13, 9, 2, &tracker);
  Tensor c(7, 9, MemCategory::kScratch, &tracker);
  Tensor ref(7, 9, MemCategory::kScratch, &tracker);
  MatMul(a, b, &c);
  NaiveMatMul(a, b, &ref, /*trans_b=*/false);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.flat()[i], ref.flat()[i], 1e-4f);
  }
}

TEST(OpsTest, MatMulTransBMatchesNaive) {
  MemoryTracker tracker;
  const Tensor a = RandomTensor(11, 16, 3, &tracker);
  const Tensor b = RandomTensor(10, 16, 4, &tracker);  // [n, k]
  Tensor c(11, 10, MemCategory::kScratch, &tracker);
  Tensor ref(11, 10, MemCategory::kScratch, &tracker);
  MatMulTransB(a, b, &c);
  NaiveMatMul(a, b, &ref, /*trans_b=*/true);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.flat()[i], ref.flat()[i], 1e-4f);
  }
}

std::vector<float> RandomVector(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return v;
}

// The attention shapes of LayerForward: QKᵀ reads one head's Q and K as
// strided slices, PV reads Vᵀ with a column stride, and C is a strided slice.
TEST(GemmKernelTest, StridedAttentionBitIdenticalToScalarLoop) {
  for (const auto& [seq, dh, heads] : std::vector<std::tuple<size_t, size_t, size_t>>{
           {16, 24, 4}, {37, 24, 4}, {64, 24, 4}, {64, 16, 8}, {64, 20, 8}, {64, 26, 4}}) {
    const size_t d = dh * heads;
    const size_t h = heads - 1;  // Last head: the slice ends at the row's end.
    const std::vector<float> q = RandomVector(seq * d, seq + d);
    const std::vector<float> k = RandomVector(seq * d, seq + d + 1);
    const std::vector<float> v = RandomVector(seq * d, seq + d + 2);
    const float* qh = q.data() + h * dh;
    const float* kh = k.data() + h * dh;
    const float* vh = v.data() + h * dh;
    std::vector<float> scores_want(seq * seq);
    ScalarGemm(qh, d, seq, seq, dh, [&](size_t j, size_t x) { return kh[j * d + x]; },
               scores_want.data(), seq);
    std::vector<float> ctx_want(seq * d, 3.25f);
    ScalarGemm(scores_want.data(), seq, seq, dh, seq,
               [&](size_t x, size_t j) { return vh[j * d + x]; }, ctx_want.data() + h * dh, d);
    const Fp32MatrixView keys{kh, seq, dh, d, 1};
    const Fp32MatrixView values_t{vh, dh, seq, 1, d};
    std::vector<float> panel(PanelFloats(std::max(seq, dh)));
    for (const auto isa : SupportedGemmIsas()) {
      SCOPED_TRACE(::testing::Message() << "seq " << seq << " dh " << dh << " "
                                        << GemmIsaName(isa));
      std::vector<float> scores(seq * seq);
      PackedGemm(keys, qh, d, seq, scores.data(), seq, panel, isa);
      ExpectSameBits(scores, scores_want);
      std::vector<float> ctx(seq * d, 3.25f);
      PackedGemm(values_t, scores.data(), seq, seq, ctx.data() + h * dh, d, panel, isa);
      ExpectSameBits(ctx, ctx_want);
    }
  }
}

// The Tensor entry points run the same kernel: bit-identical to the scalar
// loop in both the Bᵀ and the plain B[k, n] orientation.
TEST(GemmKernelTest, TensorMatMulsBitIdenticalToScalarLoop) {
  MemoryTracker tracker;
  const int64_t scratch_before = MemoryTracker::Global().CurrentBytes(MemCategory::kScratch);
  const Tensor a = RandomTensor(7, 40, 7, &tracker);
  const Tensor bt = RandomTensor(19, 40, 8, &tracker);  // [n, k]
  const Tensor b = RandomTensor(40, 19, 9, &tracker);   // [k, n]
  Tensor c(7, 19, MemCategory::kScratch, &tracker);
  std::vector<float> want(7 * 19);
  MatMulTransB(a, bt, &c);
  ScalarGemm(a.data(), 40, 7, 19, 40, [&](size_t j, size_t kk) { return bt.at(j, kk); },
             want.data(), 19);
  ExpectSameBits({c.data(), c.data() + c.size()}, want);
  MatMul(a, b, &c);
  ScalarGemm(a.data(), 40, 7, 19, 40, [&](size_t j, size_t kk) { return b.at(kk, j); },
             want.data(), 19);
  ExpectSameBits({c.data(), c.data() + c.size()}, want);
  // The per-call panel is tracked scratch, released on return.
  EXPECT_EQ(MemoryTracker::Global().CurrentBytes(MemCategory::kScratch), scratch_before);
}

TEST(OpsTest, AddInPlace) {
  MemoryTracker tracker;
  Tensor a(2, 2, MemCategory::kScratch, &tracker);
  Tensor b(2, 2, MemCategory::kScratch, &tracker);
  a.Fill(1.0f);
  b.Fill(2.5f);
  AddInPlace(&a, b);
  EXPECT_EQ(a.at(1, 1), 3.5f);
}

TEST(OpsTest, AddBias) {
  MemoryTracker tracker;
  Tensor a(2, 3, MemCategory::kScratch, &tracker);
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f};
  AddBiasInPlace(&a, bias);
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_EQ(a.at(1, 2), 3.0f);
}

TEST(OpsTest, RmsNormNormalizes) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(4, 32, 5, &tracker);
  const std::vector<float> gain(32, 1.0f);
  RmsNormInPlace(&t, gain);
  for (size_t r = 0; r < t.rows(); ++r) {
    double sum_sq = 0.0;
    for (float v : t.row(r)) {
      sum_sq += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(std::sqrt(sum_sq / 32.0), 1.0, 1e-2);
  }
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(4, 64, 6, &tracker);
  const std::vector<float> gain(64, 1.0f);
  const std::vector<float> bias(64, 0.0f);
  LayerNormInPlace(&t, gain, bias);
  for (size_t r = 0; r < t.rows(); ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (float v : t.row(r)) {
      mean += v;
    }
    mean /= 64.0;
    for (float v : t.row(r)) {
      var += (v - mean) * (v - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(OpsTest, SoftmaxSumsToOne) {
  std::vector<float> row = {1.0f, 2.0f, 3.0f, 4.0f};
  SoftmaxRowInPlace(row);
  float sum = 0.0f;
  for (float v : row) {
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(row[3], row[0]);
}

TEST(OpsTest, CausalSoftmaxMasksFuture) {
  std::vector<float> row = {1.0f, 5.0f, 9.0f, 9.0f};
  SoftmaxRowInPlace(row, /*causal_limit=*/1);
  EXPECT_EQ(row[2], 0.0f);
  EXPECT_EQ(row[3], 0.0f);
  EXPECT_NEAR(row[0] + row[1], 1.0f, 1e-5f);
}

TEST(OpsTest, SoftmaxHandlesExtremeValues) {
  std::vector<float> row = {1000.0f, -1000.0f, 999.0f};
  SoftmaxRowInPlace(row);
  EXPECT_TRUE(std::isfinite(row[0]));
  EXPECT_NEAR(row[0] + row[1] + row[2], 1.0f, 1e-5f);
}

TEST(OpsTest, SiluSignsAndMagnitudes) {
  MemoryTracker tracker;
  Tensor t(1, 3, MemCategory::kScratch, &tracker);
  t.at(0, 0) = 0.0f;
  t.at(0, 1) = 10.0f;
  t.at(0, 2) = -10.0f;
  SiluInPlace(&t);
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_NEAR(t.at(0, 1), 10.0f, 1e-3f);
  EXPECT_NEAR(t.at(0, 2), 0.0f, 1e-3f);
}

TEST(OpsTest, GeluMatchesKnownPoints) {
  MemoryTracker tracker;
  Tensor t(1, 2, MemCategory::kScratch, &tracker);
  t.at(0, 0) = 0.0f;
  t.at(0, 1) = 1.0f;
  GeluInPlace(&t);
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_NEAR(t.at(0, 1), 0.8412f, 1e-3f);
}

TEST(OpsTest, SigmoidSymmetry) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(3.0f) + Sigmoid(-3.0f), 1.0f, 1e-6f);
  EXPECT_TRUE(std::isfinite(Sigmoid(-100.0f)));
  EXPECT_TRUE(std::isfinite(Sigmoid(100.0f)));
}

TEST(OpsTest, DotProduct) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, 5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 32.0f);
}

}  // namespace
}  // namespace prism
