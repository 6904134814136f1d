// Oracle for the packed-panel GEMM kernel (src/tensor/gemm.h): the
// sequential-k scalar loop whose IEEE operation order every kernel instance
// must reproduce bit for bit, and the kernel instances this host can run.
#ifndef PRISM_TESTS_GEMM_REFERENCE_H_
#define PRISM_TESTS_GEMM_REFERENCE_H_

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/tensor/gemm.h"

namespace prism {

// C[i * ldc + j] = Σ_kk A[i * lda + kk] · b(j, kk), accumulated in kk order
// from 0.0f, one rounding per multiply and per add.
template <typename B>
void ScalarGemm(const float* a, size_t lda, size_t m, size_t n, size_t k, B b, float* c,
                size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b(j, kk);
      }
      c[i * ldc + j] = acc;
    }
  }
}

// Every kernel instance the host CPU supports (the test hook of gemm.h).
inline std::vector<gemm_internal::Isa> SupportedGemmIsas() {
  std::vector<gemm_internal::Isa> isas;
  for (const auto isa : {gemm_internal::Isa::kVec16, gemm_internal::Isa::kVec32}) {
    if (gemm_internal::Supported(isa)) {
      isas.push_back(isa);
    }
  }
  return isas;
}

inline const char* GemmIsaName(gemm_internal::Isa isa) {
  return isa == gemm_internal::Isa::kVec32 ? "vec32" : "vec16";
}

// Bitwise equality of two float buffers (NaN payloads and zero signs count).
inline void ExpectSameBits(const std::vector<float>& got, const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << "first differing element " << i << ": " << got[i] << " vs " << want[i];
      return;
    }
  }
}

}  // namespace prism

#endif  // PRISM_TESTS_GEMM_REFERENCE_H_
