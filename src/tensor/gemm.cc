#include "src/tensor/gemm.h"

#include <cstring>

namespace prism {

void Fp32MatrixView::Pack(size_t j0, size_t width, float* panel) const {
  for (size_t kk = 0; kk < cols; ++kk) {
    float* dst = panel + kk * kPanelCols;
    const float* src = data + j0 * row_stride + kk * col_stride;
    for (size_t jj = 0; jj < width; ++jj) {
      dst[jj] = src[jj * row_stride];
    }
  }
  ClearPanelTail(panel, cols, width);
}

namespace gemm_internal {
namespace {

typedef float Vec16 __attribute__((vector_size(16)));
typedef float Vec32 __attribute__((vector_size(32)));

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(float);

// Columns one pass of a tile covers: two vectors, so a 4-row tile holds 8
// accumulators, 2 panel vectors and a broadcast — within the 16 registers of
// both SSE2 and AVX2, with no spills. The 16-byte instance takes two passes
// per panel strip, the 32-byte instance one.
template <typename V>
constexpr size_t kBlockCols = 2 * kLanes<V>;

// C[r, 0..cols) for R rows from one column block of the panel. Everything
// here is always_inline so the 32-byte instance is compiled only inside the
// AVX2-targeted entry point, never lowered to baseline SSE2.
template <typename V, size_t R>
[[gnu::always_inline]] inline void Tile(const float* a, size_t lda, size_t k, const float* panel,
                                        float* c, size_t ldc, size_t cols) {
  constexpr size_t kL = kLanes<V>;
  V acc[R][2] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    V b0;
    V b1;
    std::memcpy(&b0, panel + kk * kPanelCols, sizeof(V));
    std::memcpy(&b1, panel + kk * kPanelCols + kL, sizeof(V));
    // Unrolled so the accumulators live in registers, not on the stack. The
    // scalar operand broadcasts: lane l computes acc[l] + x * b[l].
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const float x = a[r * lda + kk];
      acc[r][0] += x * b0;
      acc[r][1] += x * b1;
    }
  }
  for (size_t r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    if (cols == kBlockCols<V>) {
      std::memcpy(crow, &acc[r][0], sizeof(V));
      std::memcpy(crow + kL, &acc[r][1], sizeof(V));
    } else {
      float tmp[kBlockCols<V>];
      std::memcpy(tmp, &acc[r][0], sizeof(V));
      std::memcpy(tmp + kL, &acc[r][1], sizeof(V));
      std::memcpy(crow, tmp, cols * sizeof(float));
    }
  }
}

template <typename V>
[[gnu::always_inline]] inline void PanelGemmImpl(const float* a, size_t lda, size_t m, size_t k,
                                                 const float* panel, size_t width, float* c,
                                                 size_t ldc) {
  constexpr size_t kBlock = kBlockCols<V>;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    for (size_t col = 0; col < width; col += kBlock) {
      Tile<V, 4>(a + i * lda, lda, k, panel + col, c + i * ldc + col, ldc,
                 std::min(kBlock, width - col));
    }
  }
  for (size_t col = 0; col < width; col += kBlock) {
    const size_t cols = std::min(kBlock, width - col);
    float* ct = c + i * ldc + col;
    switch (m - i) {
      case 3:
        Tile<V, 3>(a + i * lda, lda, k, panel + col, ct, ldc, cols);
        break;
      case 2:
        Tile<V, 2>(a + i * lda, lda, k, panel + col, ct, ldc, cols);
        break;
      case 1:
        Tile<V, 1>(a + i * lda, lda, k, panel + col, ct, ldc, cols);
        break;
      default:
        break;
    }
  }
}

void PanelGemmVec16(const float* a, size_t lda, size_t m, size_t k, const float* panel,
                    size_t width, float* c, size_t ldc) {
  PanelGemmImpl<Vec16>(a, lda, m, k, panel, width, c, ldc);
}

#if defined(__x86_64__)
// AVX2 without FMA: the build passes -ffp-contract=off, and the target adds
// no FMA, so multiply and add stay two rounded operations.
[[gnu::target("avx2")]] void PanelGemmVec32(const float* a, size_t lda, size_t m, size_t k,
                                            const float* panel, size_t width, float* c,
                                            size_t ldc) {
  PanelGemmImpl<Vec32>(a, lda, m, k, panel, width, c, ldc);
}
#endif

}  // namespace

bool Supported(Isa isa) {
  switch (isa) {
    case Isa::kVec16:
      return true;
    case Isa::kVec32:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Isa Active() {
  static const Isa isa = Supported(Isa::kVec32) ? Isa::kVec32 : Isa::kVec16;
  return isa;
}

void PanelGemm(Isa isa, const float* a, size_t lda, size_t m, size_t k, const float* panel,
               size_t width, float* c, size_t ldc) {
  PRISM_CHECK_LE(width, kPanelCols);
#if defined(__x86_64__)
  if (isa == Isa::kVec32) {
    PRISM_CHECK(Supported(isa));
    PanelGemmVec32(a, lda, m, k, panel, width, c, ldc);
    return;
  }
#endif
  PRISM_CHECK(isa == Isa::kVec16);
  PanelGemmVec16(a, lda, m, k, panel, width, c, ldc);
}

}  // namespace gemm_internal
}  // namespace prism
