#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/quant.h"
#include "tests/gemm_reference.h"

namespace prism {
namespace {

std::vector<float> RandomWeights(size_t n, uint64_t seed, float scale = 0.1f) {
  std::vector<float> w(n);
  Rng rng(seed);
  for (float& v : w) {
    v = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return w;
}

// Property sweep over matrix shapes and group sizes.
class QuantRoundTripTest : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(QuantRoundTripTest, ErrorBoundedByHalfScale) {
  const auto [rows, cols, group] = GetParam();
  MemoryTracker tracker;
  const std::vector<float> w = RandomWeights(rows * cols, rows * 31 + cols);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, group, MemCategory::kScratch, &tracker);
  std::vector<float> back(rows * cols);
  qm.Dequantize(back.data());
  // Symmetric 4-bit rounding: |err| <= scale/2 everywhere; check against the
  // global max scale (a loose but always-valid bound).
  const float bound = qm.MaxScale() * 0.5f + 1e-6f;
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w[i] - back[i]), bound) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuantRoundTripTest,
                         ::testing::Values(std::make_tuple(8, 32, 16),
                                           std::make_tuple(16, 64, 32),
                                           std::make_tuple(3, 32, 32),
                                           std::make_tuple(32, 128, 64),
                                           std::make_tuple(5, 96, 32)));

TEST(QuantTest, ByteSizeIsRoughlyQuarter) {
  MemoryTracker tracker;
  const size_t rows = 64;
  const size_t cols = 128;
  const std::vector<float> w = RandomWeights(rows * cols, 9);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, 32, MemCategory::kScratch, &tracker);
  const size_t f32_bytes = rows * cols * sizeof(float);
  EXPECT_LT(qm.ByteSize(), f32_bytes / 3);  // 4 bits + scales < a third of fp32.
}

TEST(QuantTest, MatMulMatchesDequantizedMatMul) {
  MemoryTracker tracker;
  const size_t rows = 12;
  const size_t cols = 32;
  const size_t m = 5;
  const std::vector<float> w = RandomWeights(rows * cols, 10);
  const std::vector<float> a = RandomWeights(m * cols, 11, 1.0f);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, 16, MemCategory::kScratch, &tracker);

  std::vector<float> dequant(rows * cols);
  qm.Dequantize(dequant.data());
  std::vector<float> expected(m * rows, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < cols; ++k) {
        acc += static_cast<double>(a[i * cols + k]) * dequant[j * cols + k];
      }
      expected[i * rows + j] = static_cast<float>(acc);
    }
  }
  std::vector<float> got(m * rows, 0.0f);
  qm.MatMulTransB(a.data(), m, got.data());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-3f);
  }
}

TEST(QuantTest, SerializeDeserializeRoundTrip) {
  MemoryTracker tracker;
  const size_t rows = 8;
  const size_t cols = 64;
  const std::vector<float> w = RandomWeights(rows * cols, 12);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, 32, MemCategory::kScratch, &tracker);
  std::vector<uint8_t> buf(qm.SerializedSize());
  qm.SerializeTo(buf.data());
  const QuantizedMatrix back = QuantizedMatrix::Deserialize(buf.data(), rows, cols, 32,
                                                            MemCategory::kScratch, &tracker);
  std::vector<float> w1(rows * cols);
  std::vector<float> w2(rows * cols);
  qm.Dequantize(w1.data());
  back.Dequantize(w2.data());
  EXPECT_EQ(w1, w2);
}

TEST(QuantTest, ViewMatchesOwningMatrix) {
  MemoryTracker tracker;
  const size_t rows = 8;
  const size_t cols = 32;
  const size_t m = 4;
  const std::vector<float> w = RandomWeights(rows * cols, 13);
  const std::vector<float> a = RandomWeights(m * cols, 14, 1.0f);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, 16, MemCategory::kScratch, &tracker);
  std::vector<uint8_t> buf(qm.SerializedSize());
  qm.SerializeTo(buf.data());

  QuantMatrixView view;
  view.rows = rows;
  view.cols = cols;
  view.group_size = 16;
  view.packed = buf.data();
  view.scales = reinterpret_cast<const float*>(buf.data() + rows * cols / 2);

  std::vector<float> got_owning(m * rows);
  std::vector<float> got_view(m * rows);
  std::vector<float> panel(PanelFloats(cols));
  qm.MatMulTransB(a.data(), m, got_owning.data());
  view.MatMulTransB(a.data(), m, got_view.data(), panel);
  EXPECT_EQ(got_owning, got_view);
}

TEST(QuantTest, SpanBytesMatchesSerializedSize) {
  MemoryTracker tracker;
  const size_t rows = 16;
  const size_t cols = 64;
  const std::vector<float> w = RandomWeights(rows * cols, 15);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), rows, cols, 32, MemCategory::kScratch, &tracker);
  EXPECT_EQ(qm.SerializedSize(), QuantMatrixView::SpanBytes(rows, cols, 32));
}

TEST(QuantTest, ZeroMatrixQuantizesToZero) {
  MemoryTracker tracker;
  const std::vector<float> w(8 * 16, 0.0f);
  const QuantizedMatrix qm =
      QuantizedMatrix::Quantize(w.data(), 8, 16, 16, MemCategory::kScratch, &tracker);
  std::vector<float> back(8 * 16, 1.0f);
  qm.Dequantize(back.data());
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

// --- int8 tier ------------------------------------------------------------

class Int8RoundTripTest : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(Int8RoundTripTest, ErrorBoundedByHalfScale) {
  const auto [rows, cols, group] = GetParam();
  const std::vector<float> w = RandomWeights(rows * cols, rows * 37 + cols);
  std::vector<uint8_t> encoded(MatrixSpanBytes(Precision::kInt8, rows, cols, group));
  std::vector<float> back(rows * cols);
  EncodeMatrix(Precision::kInt8, w.data(), rows, cols, group, encoded.data());
  DecodeMatrix(Precision::kInt8, encoded.data(), rows, cols, group, back.data());
  const float bound = Int8MaxScale(encoded.data(), rows, cols, group) * 0.5f + 1e-7f;
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w[i] - back[i]), bound) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Int8RoundTripTest,
                         ::testing::Values(std::make_tuple(8, 32, 16),
                                           std::make_tuple(16, 64, 32),
                                           std::make_tuple(3, 32, 32),
                                           std::make_tuple(5, 96, 32)));

TEST(Int8Test, MatMulMatchesDequantizedMatMul) {
  const size_t rows = 12;
  const size_t cols = 32;
  const size_t group = 16;
  const size_t m = 5;
  const std::vector<float> w = RandomWeights(rows * cols, 20);
  const std::vector<float> a = RandomWeights(m * cols, 21, 1.0f);
  std::vector<uint8_t> encoded(MatrixSpanBytes(Precision::kInt8, rows, cols, group));
  EncodeMatrix(Precision::kInt8, w.data(), rows, cols, group, encoded.data());
  std::vector<float> dequant(rows * cols);
  DecodeMatrix(Precision::kInt8, encoded.data(), rows, cols, group, dequant.data());

  std::vector<float> expected(m * rows, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < cols; ++k) {
        acc += static_cast<double>(a[i * cols + k]) * dequant[j * cols + k];
      }
      expected[i * rows + j] = static_cast<float>(acc);
    }
  }
  Int8MatrixView view;
  view.rows = rows;
  view.cols = cols;
  view.group_size = group;
  view.values = reinterpret_cast<const int8_t*>(encoded.data());
  view.scales = reinterpret_cast<const float*>(encoded.data() + rows * cols);
  std::vector<float> got(m * rows, 0.0f);
  std::vector<float> panel(PanelFloats(cols));
  view.MatMulTransB(a.data(), m, got.data(), panel);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-3f);
  }
}

TEST(Int8Test, SpanBytesIsValuesPlusScales) {
  EXPECT_EQ(Int8MatrixView::SpanBytes(16, 64, 32), 16 * 64 + 16 * 2 * sizeof(float));
  EXPECT_EQ(MatrixSpanBytes(Precision::kInt8, 16, 64, 32),
            Int8MatrixView::SpanBytes(16, 64, 32));
}

TEST(Int8Test, ZeroMatrixRoundTripsToZero) {
  const std::vector<float> w(8 * 16, 0.0f);
  std::vector<uint8_t> encoded(MatrixSpanBytes(Precision::kInt8, 8, 16, 16));
  std::vector<float> back(8 * 16, 1.0f);
  EncodeMatrix(Precision::kInt8, w.data(), 8, 16, 16, encoded.data());
  DecodeMatrix(Precision::kInt8, encoded.data(), 8, 16, 16, back.data());
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(QuantDeathTest, MisalignedScalesFailLoudly) {
  // A 1x2 matrix ends its int8 values (2 bytes) and its w4 nibbles (1 byte)
  // off a float boundary, so its scales cannot be addressed as float*.
  // Re-exec instead of fork: safe however many threads the binary started.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<float> w = {0.5f, -0.25f};
  for (const Precision precision : {Precision::kInt8, Precision::kW4}) {
    std::vector<uint8_t> encoded(MatrixSpanBytes(precision, 1, 2, 2));
    EXPECT_DEATH(EncodeMatrix(precision, w.data(), 1, 2, 2, encoded.data()), "float-aligned")
        << PrecisionName(precision);
  }
}

// --- fp16 tier ------------------------------------------------------------

TEST(Fp16Test, ExactValuesRoundTripExactly) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 0.25f, 1024.0f, 65504.0f, -65504.0f,
                  1.5f, 0.099975586f /* representable in binary16 */}) {
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
  }
}

TEST(Fp16Test, OverflowSaturatesToMaxHalf) {
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(65536.0f)), 65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-65536.0f)), -65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(std::numeric_limits<float>::infinity())), 65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-std::numeric_limits<float>::infinity())), -65504.0f);
  // 65520 is the rounding boundary: round-to-nearest-even would overflow to
  // infinity; saturation must clamp it back to 65504.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(65520.0f)), 65504.0f);
}

TEST(Fp16Test, NanIsPreserved) {
  const uint16_t h = Fp32ToFp16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(h & 0x7C00u, 0x7C00u);  // Exponent all ones...
  EXPECT_NE(h & 0x03FFu, 0u);       // ...nonzero mantissa: a NaN, not inf.
  EXPECT_TRUE(std::isnan(Fp16ToFp32(h)));
}

TEST(Fp16Test, SubnormalsRoundTrip) {
  // Largest and smallest positive binary16 subnormals, and one in between.
  for (float v : {5.9604645e-8f, 6.097555e-5f, 3.0517578e-5f}) {
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-v)), -v) << -v;
  }
  // Below half the smallest subnormal: flushes to (signed) zero.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1e-9f)), 0.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-1e-9f)), -0.0f);
}

TEST(Fp16Test, RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10): ties
  // go to the even mantissa, i.e. 1.0. Just above the tie rounds up.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 4.8828125e-4f)), 1.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 4.9e-4f)), 1.0f + 9.765625e-4f);
  // 1 + 3·2^-11 ties between consecutive halves: even side is the upper.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 3 * 4.8828125e-4f)), 1.0f + 2 * 9.765625e-4f);
}

TEST(Fp16Test, AllFiniteHalfBitPatternsRoundTrip) {
  // Exhaustive: decode→encode is the identity on every finite half. The
  // exponent-all-ones patterns are excluded — inf saturates to ±65504 by
  // design and NaNs canonicalise.
  for (uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    if ((h & 0x7C00u) == 0x7C00u) {
      continue;
    }
    EXPECT_EQ(Fp32ToFp16(Fp16ToFp32(h)), h) << "bits " << bits;
  }
}

TEST(Fp16Test, MatMulMatchesDecodedMatMul) {
  const size_t rows = 12;
  const size_t cols = 32;
  const size_t m = 5;
  const std::vector<float> w = RandomWeights(rows * cols, 22);
  const std::vector<float> a = RandomWeights(m * cols, 23, 1.0f);
  std::vector<uint8_t> encoded(MatrixSpanBytes(Precision::kFp16, rows, cols, 0));
  EncodeMatrix(Precision::kFp16, w.data(), rows, cols, 0, encoded.data());
  std::vector<float> decoded(rows * cols);
  DecodeMatrix(Precision::kFp16, encoded.data(), rows, cols, 0, decoded.data());

  std::vector<float> expected(m * rows, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < cols; ++k) {
        acc += static_cast<double>(a[i * cols + k]) * decoded[j * cols + k];
      }
      expected[i * rows + j] = static_cast<float>(acc);
    }
  }
  Fp16MatrixView view;
  view.rows = rows;
  view.cols = cols;
  view.data = reinterpret_cast<const uint16_t*>(encoded.data());
  std::vector<float> got(m * rows, 0.0f);
  std::vector<float> panel(PanelFloats(cols));
  view.MatMulTransB(a.data(), m, got.data(), panel);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-3f);
  }
}

TEST(Fp16Test, SpanBytesIsTwoPerValue) {
  EXPECT_EQ(Fp16MatrixView::SpanBytes(16, 64), 16 * 64 * 2);
  EXPECT_EQ(MatrixSpanBytes(Precision::kFp16, 16, 64, 32), Fp16MatrixView::SpanBytes(16, 64));
}

// --- precision axis -------------------------------------------------------

TEST(PrecisionTest, NamesRoundTrip) {
  for (const Precision precision : kAllPrecisions) {
    Precision back = Precision::kW4;
    ASSERT_TRUE(PrecisionByName(PrecisionName(precision), &back));
    EXPECT_EQ(back, precision);
  }
  Precision out = Precision::kFp32;
  EXPECT_FALSE(PrecisionByName("fp8", &out));
  EXPECT_FALSE(PrecisionByName("", &out));
}

TEST(PrecisionTest, SpanBytesOrderingMatchesTiers) {
  const size_t rows = 32;
  const size_t cols = 64;
  const size_t group = 16;
  const size_t f32 = MatrixSpanBytes(Precision::kFp32, rows, cols, group);
  const size_t f16 = MatrixSpanBytes(Precision::kFp16, rows, cols, group);
  const size_t i8 = MatrixSpanBytes(Precision::kInt8, rows, cols, group);
  const size_t w4 = MatrixSpanBytes(Precision::kW4, rows, cols, group);
  EXPECT_EQ(f32, rows * cols * 4);
  EXPECT_EQ(f16, f32 / 2);
  EXPECT_LT(i8, f16);
  EXPECT_LT(w4, i8);
}

// --- Shared GEMM kernel, every tier --------------------------------------

// Runs the kernel on an encoded [n, k] matrix through its tier's packer.
void PackedGemmEncoded(Precision precision, const std::vector<uint8_t>& encoded, size_t n,
                       size_t k, size_t group, const float* a, size_t m, float* c, size_t ldc,
                       std::span<float> panel, gemm_internal::Isa isa) {
  const uint8_t* p = encoded.data();
  switch (precision) {
    case Precision::kFp32:
      PackedGemm(Fp32MatrixView{reinterpret_cast<const float*>(p), n, k, k, 1}, a, k, m, c, ldc,
                 panel, isa);
      return;
    case Precision::kFp16:
      PackedGemm(Fp16MatrixView{reinterpret_cast<const uint16_t*>(p), n, k}, a, k, m, c, ldc,
                 panel, isa);
      return;
    case Precision::kInt8:
      PackedGemm(Int8MatrixView{reinterpret_cast<const int8_t*>(p),
                                reinterpret_cast<const float*>(p + n * k), n, k, group},
                 a, k, m, c, ldc, panel, isa);
      return;
    case Precision::kW4:
      PackedGemm(QuantMatrixView{p, reinterpret_cast<const float*>(p + n * k / 2), n, k, group},
                 a, k, m, c, ldc, panel, isa);
      return;
  }
}

// Each tier's packer feeds the kernel exactly the weights DecodeMatrix
// reconstructs, so the GEMM is bit-identical to the sequential-k scalar loop
// over the decoded matrix, on every kernel instance, and leaves C's padding
// columns untouched. Shapes cover ragged row tiles (m % 4 != 0), partial
// strips (n % 16 != 0), n < 16, k = 1 (k = 2 for w4, whose groups pair
// nibbles) and every zoo projection shape (hidden/ffn 96/288, 128/384,
// 160/480, 104/312, both directions). Every n·k is a multiple of 8, as in
// real layer blobs, so the fp32 scales after int8 and w4 values stay 4-byte
// aligned.
TEST(GemmKernelTest, EveryTierBitIdenticalToScalarLoopOverDecodedWeights) {
  const std::vector<std::tuple<size_t, size_t, size_t>> shapes = {
      {1, 8, 1},     {3, 24, 1},    {1, 8, 2},     {4, 16, 2},    {5, 17, 8},
      {7, 10, 4},    {2, 33, 8},    {13, 15, 16},  {6, 96, 96},   {6, 288, 96},
      {6, 96, 288},  {5, 128, 128}, {5, 384, 128}, {5, 128, 384}, {3, 160, 160},
      {3, 480, 160}, {3, 160, 480}, {7, 104, 104}, {7, 312, 104}, {7, 104, 312}};
  for (const auto& [m, n, k] : shapes) {
    const size_t group = k % 8 == 0 ? 8 : (k % 2 == 0 ? 2 : 1);
    const std::vector<float> w = RandomWeights(n * k, n * 1000 + k);
    const std::vector<float> a = RandomWeights(m * k, m * 1000 + k, 1.0f);
    std::vector<float> panel(PanelFloats(k));
    for (const Precision precision : kAllPrecisions) {
      if (precision == Precision::kW4 && group % 2 != 0) {
        continue;
      }
      std::vector<uint8_t> encoded(MatrixSpanBytes(precision, n, k, group));
      EncodeMatrix(precision, w.data(), n, k, group, encoded.data());
      std::vector<float> decoded(n * k);
      DecodeMatrix(precision, encoded.data(), n, k, group, decoded.data());
      const size_t ldc = n + 3;
      std::vector<float> want(m * ldc, -7.5f);
      ScalarGemm(a.data(), k, m, n, k, [&](size_t j, size_t kk) { return decoded[j * k + kk]; },
                 want.data(), ldc);
      for (const auto isa : SupportedGemmIsas()) {
        SCOPED_TRACE(::testing::Message() << m << "x" << n << "x" << k << " "
                                          << PrecisionName(precision) << " "
                                          << GemmIsaName(isa));
        std::vector<float> got(m * ldc, -7.5f);
        PackedGemmEncoded(precision, encoded, n, k, group, a.data(), m, got.data(), ldc, panel,
                          isa);
        ExpectSameBits(got, want);
      }
    }
  }
}

}  // namespace
}  // namespace prism
