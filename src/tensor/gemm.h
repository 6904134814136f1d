// The one GEMM micro-kernel behind every matmul in the forward pass.
//
// C[m, n] = A[m, k] · Bᵀ, where B is any [n, k] operand that can write itself
// into a packed panel: for each strip of kPanelCols output columns j0.., the
// operand's Pack writes panel[kk * kPanelCols + jj] = B(j0 + jj, kk) as fp32
// (zero past the strip's width). Each storage precision is one packer (fp32
// strided copy here; fp16 / int8 / w4 dequantising packers in quant.h), so the
// arithmetic lives in exactly one place.
//
// The kernel runs a 4-row tile over the panel, accumulating
// acc += a[r][kk] * panel[kk] for kk = 0..k-1 from 0.0f, vectorised across
// output columns and never along k. Every C element therefore sees the same
// IEEE operation sequence as the sequential scalar dot product
//   float acc = 0.0f; for (kk) acc += a[kk] * b[kk];
// so results are bit-identical whichever vector width runs (the build must
// not contract a*b+c into FMA; CMakeLists.txt passes -ffp-contract=off).
#ifndef PRISM_SRC_TENSOR_GEMM_H_
#define PRISM_SRC_TENSOR_GEMM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/check.h"

namespace prism {

// Output columns per packed panel strip.
inline constexpr size_t kPanelCols = 16;

// Floats a panel buffer needs for inner dimension k.
constexpr size_t PanelFloats(size_t k) { return k * kPanelCols; }

// Zeroes panel columns [width, kPanelCols) of every row kk < k: the tail of a
// partial strip, which the kernel reads but never stores.
inline void ClearPanelTail(float* panel, size_t k, size_t width) {
  if (width == kPanelCols) {
    return;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    std::fill(panel + kk * kPanelCols + width, panel + (kk + 1) * kPanelCols, 0.0f);
  }
}

namespace gemm_internal {

// Vector width of a micro-kernel instance: 16 bytes is the portable baseline
// (SSE2 on x86-64, NEON on aarch64); 32 bytes is the AVX2 instance on x86-64.
enum class Isa : uint8_t { kVec16, kVec32 };

// True when the host CPU can run `isa`.
bool Supported(Isa isa);

// The widest supported instance, chosen once per process.
Isa Active();

// C[i * ldc + j] = Σ_kk A[i * lda + kk] · panel[kk * kPanelCols + j] for
// i < m, j < width (width ≤ kPanelCols), accumulated in kk order from 0.0f.
void PanelGemm(Isa isa, const float* a, size_t lda, size_t m, size_t k, const float* panel,
               size_t width, float* c, size_t ldc);

}  // namespace gemm_internal

// C[m, b.rows] (row stride ldc) = A[m, b.cols] (row stride lda) · bᵀ. `b` is
// any operand with rows, cols and Pack(j0, width, panel); `panel` holds at
// least PanelFloats(b.cols) floats. `isa` is a test hook: production callers
// leave it at the active instance.
template <typename Operand>
void PackedGemm(const Operand& b, const float* a, size_t lda, size_t m, float* c, size_t ldc,
                std::span<float> panel, gemm_internal::Isa isa = gemm_internal::Active()) {
  PRISM_CHECK_GE(panel.size(), PanelFloats(b.cols));
  for (size_t j0 = 0; j0 < b.rows; j0 += kPanelCols) {
    const size_t width = std::min(kPanelCols, b.rows - j0);
    b.Pack(j0, width, panel.data());
    gemm_internal::PanelGemm(isa, a, lda, m, b.cols, panel.data(), width, c + j0, ldc);
  }
}

// Non-owning fp32 operand B[rows, cols] with element (j, kk) at
// data[j * row_stride + kk * col_stride]: a row-major weight matrix
// (row_stride = cols, col_stride = 1), or a transposed / strided slice such
// as one attention head's keys or values.
struct Fp32MatrixView {
  const float* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t row_stride = 0;
  size_t col_stride = 1;

  // Packs rows [j0, j0 + width) into a kPanelCols-wide panel.
  void Pack(size_t j0, size_t width, float* panel) const;

  // C[m, rows] = A[m, cols] · this ᵀ, both row-major and dense.
  void MatMulTransB(const float* a, size_t m, float* c, std::span<float> panel) const {
    PackedGemm(*this, a, cols, m, c, rows, panel);
  }
};

}  // namespace prism

#endif  // PRISM_SRC_TENSOR_GEMM_H_
