// Supporting kernel microbenchmarks (google-benchmark): the GEMM at every
// storage tier over the proxy's projection shapes, softmax, RMSNorm, 1-D
// k-means, BM25 — the primitives whose costs set the compute side of the
// overlap window.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/rng.h"
#include "src/core/cluster.h"
#include "src/model/weights.h"
#include "src/retrieval/bm25.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

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

// Projection shapes {m rows, in, out} of the Qwen3-0.6B proxy: the 96→96
// attention projections at three chunk sizes, then the FFN up (96→288) and
// down (288→96) projections.
void ProjectionShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "in", "out"});
  for (const int64_t m : {64, 256, 1024}) {
    b->Args({m, 96, 96});
  }
  b->Args({1024, 96, 288});
  b->Args({1024, 288, 96});
}

struct GemmShape {
  size_t m;
  size_t in;
  size_t out;
};

GemmShape ShapeOf(const benchmark::State& state) {
  return {static_cast<size_t>(state.range(0)), static_cast<size_t>(state.range(1)),
          static_cast<size_t>(state.range(2))};
}

void SetGemmItems(benchmark::State& state, const GemmShape& s) {
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * s.m * s.in * s.out));
}

// The Tensor entry point: fp32 weights, one tracked panel allocated per call.
void BM_MatMulTransB(benchmark::State& state) {
  MemoryTracker tracker;
  const GemmShape s = ShapeOf(state);
  const Tensor a = RandomTensor(s.m, s.in, 1, &tracker);
  const Tensor w = RandomTensor(s.out, s.in, 2, &tracker);
  Tensor c(s.m, s.out, MemCategory::kScratch, &tracker);
  for (auto _ : state) {
    MatMulTransB(a, w, &c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetGemmItems(state, s);
}
BENCHMARK(BM_MatMulTransB)->Apply(ProjectionShapes);

// The layer's path at each storage tier: an encoded weight packed through
// its tier's dequantising packer into a reused panel.
void BM_TierMatMulTransB(benchmark::State& state, Precision precision) {
  MemoryTracker tracker;
  const GemmShape s = ShapeOf(state);
  const size_t group = 32;
  const Tensor a = RandomTensor(s.m, s.in, 3, &tracker);
  const Tensor w = RandomTensor(s.out, s.in, 4, &tracker);
  std::vector<uint8_t> encoded(MatrixSpanBytes(precision, s.out, s.in, group));
  EncodeMatrix(precision, w.data(), s.out, s.in, group, encoded.data());
  const WeightView view = WeightView::Encoded(precision, encoded.data(), s.out, s.in, group);
  std::vector<float> panel(PanelFloats(s.in));
  std::vector<float> c(s.m * s.out);
  for (auto _ : state) {
    view.MatMulTransB(a.data(), s.m, c.data(), panel);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetGemmItems(state, s);
}
BENCHMARK_CAPTURE(BM_TierMatMulTransB, fp32, Precision::kFp32)->Apply(ProjectionShapes);
BENCHMARK_CAPTURE(BM_TierMatMulTransB, fp16, Precision::kFp16)->Apply(ProjectionShapes);
BENCHMARK_CAPTURE(BM_TierMatMulTransB, int8, Precision::kInt8)->Apply(ProjectionShapes);
BENCHMARK_CAPTURE(BM_TierMatMulTransB, w4, Precision::kW4)->Apply(ProjectionShapes);

void BM_SoftmaxRow(benchmark::State& state) {
  std::vector<float> row(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (float& v : row) {
    v = static_cast<float>(rng.NextGaussian());
  }
  for (auto _ : state) {
    SoftmaxRowInPlace(row);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_SoftmaxRow)->Arg(64)->Arg(512);

void BM_RmsNorm(benchmark::State& state) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(static_cast<size_t>(state.range(0)), 96, 6, &tracker);
  const std::vector<float> gain(96, 1.0f);
  for (auto _ : state) {
    RmsNormInPlace(&t, gain);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_RmsNorm)->Arg(64)->Arg(1024);

void BM_ClusterScores(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> scores(static_cast<size_t>(state.range(0)));
  for (float& s : scores) {
    s = static_cast<float>(rng.NextDouble());
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    const Clustering c = ClusterScores(scores, 4, seed++);
    benchmark::DoNotOptimize(c.assignment.data());
  }
}
BENCHMARK(BM_ClusterScores)->Arg(20)->Arg(60);

void BM_Bm25Search(benchmark::State& state) {
  Bm25Index index;
  Rng rng(8);
  for (int d = 0; d < 1000; ++d) {
    std::vector<uint32_t> doc;
    for (int t = 0; t < 30; ++t) {
      doc.push_back(static_cast<uint32_t>(rng.NextBelow(5000)));
    }
    index.Add(doc);
  }
  std::vector<uint32_t> query;
  for (int t = 0; t < 8; ++t) {
    query.push_back(static_cast<uint32_t>(rng.NextBelow(5000)));
  }
  for (auto _ : state) {
    const auto hits = index.Search(query, 10);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_Bm25Search);

}  // namespace
}  // namespace prism

BENCHMARK_MAIN();
