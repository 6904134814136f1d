#include "src/runtime/hf_runner.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/data/metrics.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"

namespace prism {

RerankRequest RerankRequest::FromQuery(const RerankQuery& q, size_t k) {
  RerankRequest request;
  request.query = q.tokens;
  for (const CandidateDoc& c : q.candidates) {
    request.docs.push_back(c.tokens);
    request.planted_r.push_back(c.planted_r);
  }
  request.k = k;
  return request;
}

HfRunner::HfRunner(const ModelConfig& config, const std::string& checkpoint_path,
                   HfRunnerOptions options, MemoryTracker* tracker)
    : config_(config), options_(options), tracker_(tracker) {
  if (options_.batch_size == 0) {
    options_.batch_size = options_.device.hf_batch_size;
  }
  // Loading the checkpoint happens once at startup; it is charged through the
  // device model like any other read (the paper's HF baseline pays it too,
  // but outside the per-request latency we report).
  SsdConfig load_config = options_.device.ssd;
  load_config.throttle = false;
  auto reader = BlobFileReader::Open(checkpoint_path, load_config);
  PRISM_CHECK_MSG(reader.ok(), reader.status().ToString().c_str());
  reader_ = std::move(reader).value();
  const Status ckpt_status = ValidateCheckpoint(*reader_, config_, options_.precision);
  PRISM_CHECK_MSG(ckpt_status.ok(), ckpt_status.ToString().c_str());

  embedding_ = std::make_unique<FullEmbeddingTable>(config_, reader_.get(), tracker_);
  int64_t total_layer_bytes = 0;
  for (size_t layer = 0; layer < config_.n_layers; ++layer) {
    std::vector<uint8_t> blob(static_cast<size_t>(reader_->BlobSize(LayerBlobIndex(layer))));
    const Status status = reader_->ReadBlob(LayerBlobIndex(layer), blob);
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    total_layer_bytes += static_cast<int64_t>(blob.size());
    layer_blobs_.push_back(std::move(blob));
  }
  layers_claim_ = MemClaim(tracker_, MemCategory::kWeights, total_layer_bytes);

  std::vector<uint8_t> head_blob(static_cast<size_t>(reader_->BlobSize(HeadBlobIndex(config_))));
  const Status status = reader_->ReadBlob(HeadBlobIndex(config_), head_blob);
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  head_ = ParseHeadBlob(config_, head_blob);
}

RerankResult HfRunner::Rerank(const RerankRequest& request) {
  const WallTimer total_timer;
  RerankResult result;
  const size_t n = request.docs.size();
  PRISM_CHECK_EQ(n, request.planted_r.size());
  const size_t seq_len = ChooseSeqLen(config_, request.query, request.docs);
  result.scores.assign(n, 0.0f);

  // Every pair input, and all their rows in one gather (pointers into the
  // resident table: nothing is copied).
  const WallTimer gather_timer;
  std::vector<PairInput> pairs;
  pairs.reserve(n);
  for (size_t id = 0; id < n; ++id) {
    pairs.push_back(
        BuildPairInput(config_, request.query, request.docs[id], request.planted_r[id], seq_len));
  }
  const RowTable rows = GatherPairRows(embedding_.get(), pairs);
  result.stats.embed_ms += gather_timer.ElapsedMillis();

  const size_t batch = std::min(options_.batch_size, n);
  LayerScratch scratch = LayerScratch::Make(config_, batch * seq_len, seq_len, tracker_);

  for (size_t b0 = 0; b0 < n; b0 += batch) {
    const size_t b1 = std::min(b0 + batch, n);
    const size_t bsz = b1 - b0;
    Tensor hidden(bsz * seq_len, config_.hidden, MemCategory::kHiddenStates, tracker_);

    {
      const WallTimer embed_timer;
      EmbedPairsInto(config_, rows, head_, std::span<const PairInput>(pairs).subspan(b0, bsz),
                     seq_len, &hidden);
      result.stats.embed_ms += embed_timer.ElapsedMillis();
    }

    const WallTimer compute_timer;
    for (size_t layer = 0; layer < config_.n_layers; ++layer) {
      const AnyLayerView view =
          ParseAnyLayerBlob(config_, layer_blobs_[layer], options_.precision);
      LayerForward(config_, view, seq_len, &hidden, &scratch);
      result.stats.candidate_layers += static_cast<int64_t>(bsz);
    }
    std::vector<float> batch_scores;
    ScoreChunk(config_, head_, hidden, seq_len, &batch_scores);
    for (size_t c = 0; c < bsz; ++c) {
      result.scores[b0 + c] = batch_scores[c];
    }
    const int64_t compute_micros = compute_timer.ElapsedMicros();
    result.stats.compute_ms += static_cast<double>(compute_micros) / 1000.0;
    ApplyComputeSlowdown(options_.device, compute_micros);
  }

  result.topk = TopKIndices(result.scores, request.k);
  result.stats.layers_until_done = config_.n_layers;
  result.stats.latency_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace prism
