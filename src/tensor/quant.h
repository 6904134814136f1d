// Reduced-precision weight storage: the streaming precision tiers.
//
// The hot regime is SSD-bound, so bytes streamed per pass — not compute —
// bound throughput. Three reduced tiers sit beside fp32, each with a
// dequantising panel packer for the shared GEMM kernel (src/tensor/gemm.h),
// so the forward pass never materialises a whole fp32 weight matrix:
//
//   w4    4-bit group-wise symmetric (the W4A16 baseline, §6.1): per group a
//         float scale plus two signed 4-bit values per byte. 4× fewer bytes,
//         bounded perturbation (|err| ≤ scale/2, scale = max|w|/7).
//   int8  8-bit group-wise symmetric: per group a float scale plus one
//         signed byte per value. ~4× smaller error than w4 at 2× its bytes
//         (|err| ≤ scale/2, scale = max|w|/127).
//   fp16  scale-free IEEE binary16 storage (software conversion, no
//         compiler half type needed). Exactly 2× fewer bytes; relative
//         error ≤ one half-precision half-ulp (2⁻¹¹) for normal values.
//
// Weights W[out, in] are grouped along the `in` dimension in groups of
// `group_size` (w4/int8 only; fp16 has no groups).
#ifndef PRISM_SRC_TENSOR_QUANT_H_
#define PRISM_SRC_TENSOR_QUANT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace prism {

// Weight storage precision, a first-class streaming axis: checkpoints are
// written per precision, BlobFile v2 headers tag every blob with it, and the
// engine streams exactly the tagged bytes. Enumerator values are the on-disk
// v2 tag encoding — do not reorder.
enum class Precision : uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
  kW4 = 3,
};

// "fp32" / "fp16" / "int8" / "w4" (flag spelling and file tags).
const char* PrecisionName(Precision precision);

// Parses a PrecisionName spelling; returns false on an unknown name.
bool PrecisionByName(const std::string& name, Precision* out);

// All precisions, in tag order (for sweeps).
inline constexpr Precision kAllPrecisions[] = {Precision::kFp32, Precision::kFp16,
                                               Precision::kInt8, Precision::kW4};

// Software fp32 ↔ IEEE binary16 conversion (round to nearest even). Values
// beyond the half range saturate to ±65504 so stored weights stay finite.
uint16_t Fp32ToFp16(float v);
float Fp16ToFp32(uint16_t h);

// Non-owning view of a 4-bit quantised matrix laid out as
// [packed nibbles][scales] inside a larger blob (e.g. a streamed layer).
struct QuantMatrixView {
  const uint8_t* packed = nullptr;
  const float* scales = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t group_size = 0;

  // Dequantises rows [j0, j0 + width) into a GEMM panel (see gemm.h).
  void Pack(size_t j0, size_t width, float* panel) const;

  // C[m, rows] = A[m, cols] · Wᵀ; `panel` holds PanelFloats(cols) floats.
  void MatMulTransB(const float* a, size_t m, float* c, std::span<float> panel) const {
    PackedGemm(*this, a, cols, m, c, rows, panel);
  }

  // Bytes this view spans inside its blob.
  static size_t SpanBytes(size_t rows, size_t cols, size_t group_size) {
    return rows * cols / 2 + rows * (cols / group_size) * sizeof(float);
  }
};

// Non-owning view of an int8 group-wise symmetric matrix laid out as
// [int8 values][scales].
struct Int8MatrixView {
  const int8_t* values = nullptr;
  const float* scales = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t group_size = 0;

  void Pack(size_t j0, size_t width, float* panel) const;

  void MatMulTransB(const float* a, size_t m, float* c, std::span<float> panel) const {
    PackedGemm(*this, a, cols, m, c, rows, panel);
  }

  static size_t SpanBytes(size_t rows, size_t cols, size_t group_size) {
    return rows * cols + rows * (cols / group_size) * sizeof(float);
  }
};

// Non-owning view of a matrix stored as packed IEEE binary16 (no scales).
struct Fp16MatrixView {
  const uint16_t* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;

  void Pack(size_t j0, size_t width, float* panel) const;

  void MatMulTransB(const float* a, size_t m, float* c, std::span<float> panel) const {
    PackedGemm(*this, a, cols, m, c, rows, panel);
  }

  static size_t SpanBytes(size_t rows, size_t cols) { return rows * cols * sizeof(uint16_t); }
};

// Bytes one [rows, cols] matrix spans at `precision` (group_size ignored for
// fp32/fp16).
size_t MatrixSpanBytes(Precision precision, size_t rows, size_t cols, size_t group_size);

// Serialises `w` (row-major [rows, cols]) at the given precision into `out`
// (MatrixSpanBytes bytes). Deterministic: same input, same bytes. Used by
// checkpoint generation; the matching Decode* reconstruct fp32 for tests and
// error measurement.
void EncodeMatrix(Precision precision, const float* w, size_t rows, size_t cols,
                  size_t group_size, uint8_t* out);
void DecodeMatrix(Precision precision, const uint8_t* in, size_t rows, size_t cols,
                  size_t group_size, float* out);

// Start of the fp32 group scales inside an int8 or w4 encoding at `data`:
// they follow the rows*cols int8 values, or the rows*cols/2 packed nibbles.
// Scales are read and written through float*, so CHECK-fails when that
// address is not float-aligned — a shape whose value bytes end off a 4-byte
// boundary is unsupported and must fail loudly, not invoke undefined
// behaviour.
const float* EncodedScales(Precision precision, const uint8_t* data, size_t rows, size_t cols);

// Largest per-group scale of an int8 encoding (roundtrip bound: scale/2).
float Int8MaxScale(const uint8_t* in, size_t rows, size_t cols, size_t group_size);

class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  // Quantises `w` (row-major [rows, cols]); cols must be a multiple of
  // group_size.
  static QuantizedMatrix Quantize(const float* w, size_t rows, size_t cols, size_t group_size,
                                  MemCategory category = MemCategory::kWeights,
                                  MemoryTracker* tracker = &MemoryTracker::Global());

  // Reconstructs the full matrix (for tests / error measurement).
  void Dequantize(float* out) const;

  // C[m, rows] = A[m, cols] · Wᵀ with on-the-fly dequantisation, through a
  // per-call panel tracked as kScratch on the global tracker.
  void MatMulTransB(const float* a, size_t m, float* c) const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t group_size() const { return group_size_; }

  // Bytes of the quantised representation (packed nibbles + scales).
  size_t ByteSize() const { return packed_.size() + scales_.size() * sizeof(float); }

  // Serialisation into/out of flat buffers (for the weight store).
  size_t SerializedSize() const;
  void SerializeTo(uint8_t* out) const;
  static QuantizedMatrix Deserialize(const uint8_t* in, size_t rows, size_t cols,
                                     size_t group_size, MemCategory category,
                                     MemoryTracker* tracker);

  // Worst-case absolute reconstruction error for a group with scale s is s/2
  // (rounding half step) — checked by property tests.
  float MaxScale() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t group_size_ = 0;
  std::vector<uint8_t> packed_;  // Two 4-bit values per byte, row-major.
  std::vector<float> scales_;    // rows * (cols / group_size) scales.
  MemClaim claim_;
};

}  // namespace prism

#endif  // PRISM_SRC_TENSOR_QUANT_H_
