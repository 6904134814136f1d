#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "src/model/embedding.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"
#include "src/model/synthetic.h"
#include "src/model/weights.h"
#include "src/storage/blob_file.h"
#include "tests/test_util.h"

namespace prism {
namespace {

SsdConfig Unthrottled() {
  SsdConfig config;
  config.throttle = false;
  return config;
}

// Loads everything needed to run layers of a test checkpoint in memory, at
// every storage precision.
struct LoadedModel {
  ModelConfig config;
  std::unique_ptr<BlobFileReader> reader;
  std::unique_ptr<FullEmbeddingTable> embedding;
  // Indexed by static_cast<size_t>(Precision), then layer.
  std::array<std::vector<std::vector<uint8_t>>, 4> layers;
  HeadWeights head;
  MemoryTracker tracker;
};

std::unique_ptr<LoadedModel> Load(ModelArch arch) {
  auto m = std::make_unique<LoadedModel>();
  m->config = TestModel(arch);
  auto reader = BlobFileReader::Open(TestCheckpoint(m->config), Unthrottled());
  PRISM_CHECK(reader.ok());
  m->reader = std::move(reader).value();
  m->embedding = std::make_unique<FullEmbeddingTable>(m->config, m->reader.get(), &m->tracker);
  for (const Precision precision : kAllPrecisions) {
    auto r = precision == Precision::kFp32
                 ? nullptr
                 : std::move(BlobFileReader::Open(TestCheckpoint(m->config, precision),
                                                  Unthrottled()))
                       .value();
    BlobFileReader* src = r != nullptr ? r.get() : m->reader.get();
    auto& dst = m->layers[static_cast<size_t>(precision)];
    for (size_t layer = 0; layer < m->config.n_layers; ++layer) {
      std::vector<uint8_t> blob(static_cast<size_t>(src->BlobSize(LayerBlobIndex(layer))));
      PRISM_CHECK(src->ReadBlob(LayerBlobIndex(layer), blob).ok());
      dst.push_back(std::move(blob));
    }
  }
  std::vector<uint8_t> head(static_cast<size_t>(m->reader->BlobSize(HeadBlobIndex(m->config))));
  PRISM_CHECK(m->reader->ReadBlob(HeadBlobIndex(m->config), head).ok());
  m->head = ParseHeadBlob(m->config, head);
  return m;
}

Tensor EmbedBatch(LoadedModel* m, const RerankRequest& request, size_t seq_len) {
  Tensor hidden(request.docs.size() * seq_len, m->config.hidden, MemCategory::kHiddenStates,
                &m->tracker);
  std::vector<PairInput> pairs;
  for (size_t c = 0; c < request.docs.size(); ++c) {
    pairs.push_back(
        BuildPairInput(m->config, request.query, request.docs[c], request.planted_r[c], seq_len));
  }
  const RowTable rows = GatherPairRows(m->embedding.get(), pairs);
  EmbedPairsInto(m->config, rows, m->head, pairs, seq_len, &hidden);
  return hidden;
}

std::vector<float> ForwardAll(LoadedModel* m, Tensor* hidden, size_t seq_len,
                              Precision precision = Precision::kFp32) {
  LayerScratch scratch = LayerScratch::Make(m->config, hidden->rows(), seq_len, &m->tracker);
  const auto& blobs = m->layers[static_cast<size_t>(precision)];
  for (size_t layer = 0; layer < m->config.n_layers; ++layer) {
    const AnyLayerView view = ParseAnyLayerBlob(m->config, blobs[layer], precision);
    LayerForward(m->config, view, seq_len, hidden, &scratch);
  }
  std::vector<float> scores;
  ScoreChunk(m->config, m->head, *hidden, seq_len, &scores);
  return scores;
}

// Per-precision score tolerance vs fp32 for TestModel-sized layers: fp16 is
// nearly exact, int8 a little looser, w4 the loosest (calibrated once against
// the planted-relevance model, with ~3× headroom over observed drift).
float ScoreTolerance(Precision precision) {
  switch (precision) {
    case Precision::kFp16:
      return 0.01f;
    case Precision::kInt8:
      return 0.05f;
    default:
      return 0.15f;
  }
}

class LayerArchTest : public ::testing::TestWithParam<ModelArch> {};

TEST_P(LayerArchTest, ForwardIsDeterministic) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 6, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor h1 = EmbedBatch(m.get(), request, seq_len);
  Tensor h2 = EmbedBatch(m.get(), request, seq_len);
  const auto s1 = ForwardAll(m.get(), &h1, seq_len);
  const auto s2 = ForwardAll(m.get(), &h2, seq_len);
  EXPECT_EQ(s1, s2);
}

TEST_P(LayerArchTest, BatchPartitioningDoesNotChangeScores) {
  // Forward 6 candidates as one batch vs. two batches of 3: per-candidate
  // attention means scores must be bit-identical — the invariant that makes
  // chunked execution exact (§4.3).
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 6, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor whole = EmbedBatch(m.get(), request, seq_len);
  const auto s_whole = ForwardAll(m.get(), &whole, seq_len);

  std::vector<float> s_split;
  for (size_t half = 0; half < 2; ++half) {
    RerankRequest sub;
    sub.query = request.query;
    sub.k = request.k;
    for (size_t c = half * 3; c < half * 3 + 3; ++c) {
      sub.docs.push_back(request.docs[c]);
      sub.planted_r.push_back(request.planted_r[c]);
    }
    Tensor part = EmbedBatch(m.get(), sub, seq_len);
    const auto s = ForwardAll(m.get(), &part, seq_len);
    s_split.insert(s_split.end(), s.begin(), s.end());
  }
  ASSERT_EQ(s_whole.size(), s_split.size());
  for (size_t i = 0; i < s_whole.size(); ++i) {
    EXPECT_EQ(s_whole[i], s_split[i]) << "candidate " << i;
  }
}

TEST_P(LayerArchTest, ScoresAreProbabilities) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 8, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor hidden = EmbedBatch(m.get(), request, seq_len);
  const auto scores = ForwardAll(m.get(), &hidden, seq_len);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST_P(LayerArchTest, ReducedPrecisionScoresCloseToF32) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 8, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor h1 = EmbedBatch(m.get(), request, seq_len);
  const auto f32 = ForwardAll(m.get(), &h1, seq_len);
  for (const Precision precision :
       {Precision::kFp16, Precision::kInt8, Precision::kW4}) {
    Tensor h2 = EmbedBatch(m.get(), request, seq_len);
    const auto reduced = ForwardAll(m.get(), &h2, seq_len, precision);
    for (size_t i = 0; i < f32.size(); ++i) {
      EXPECT_NEAR(f32[i], reduced[i], ScoreTolerance(precision))
          << PrecisionName(precision) << " candidate " << i;
    }
  }
}

TEST_P(LayerArchTest, PlantedRelevanceDrivesScores) {
  // Two candidates with identical text but extreme planted relevance must
  // separate decisively after the full forward pass.
  auto m = Load(GetParam());
  RerankRequest request;
  request.query = {40, 41, 42, 43};
  request.docs = {std::vector<uint32_t>{60, 61, 62, 63, 64, 65},
                  std::vector<uint32_t>{60, 61, 62, 63, 64, 65}};
  request.planted_r = {0.95f, 0.05f};
  request.k = 1;
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor hidden = EmbedBatch(m.get(), request, seq_len);
  const auto scores = ForwardAll(m.get(), &hidden, seq_len);
  EXPECT_GT(scores[0], scores[1] + 0.2f);
}

INSTANTIATE_TEST_SUITE_P(Archs, LayerArchTest,
                         ::testing::Values(ModelArch::kDecoderOnly, ModelArch::kEncoderOnly));

TEST(LayerScratchTest, BytesForMatchesAllocation) {
  const ModelConfig config = TestModel();
  MemoryTracker tracker;
  const size_t rows = 4 * 16;
  const LayerScratch scratch = LayerScratch::Make(config, rows, 16, &tracker);
  (void)scratch;
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations),
            LayerScratch::BytesFor(config, rows, 16));
}

TEST(LayerScratchTest, EncoderScratchSmaller) {
  const ModelConfig dec = TestModel(ModelArch::kDecoderOnly);
  const ModelConfig enc = TestModel(ModelArch::kEncoderOnly);
  EXPECT_GT(LayerScratch::BytesFor(dec, 64, 16), LayerScratch::BytesFor(enc, 64, 16));
}

}  // namespace
}  // namespace prism
