#include "src/runtime/offload_runner.h"

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/data/metrics.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"

namespace prism {

OffloadRunner::OffloadRunner(const ModelConfig& config, const std::string& checkpoint_path,
                             OffloadRunnerOptions options, MemoryTracker* tracker)
    : config_(config), options_(options), tracker_(tracker) {
  if (options_.batch_size == 0) {
    options_.batch_size = options_.device.hf_batch_size;
  }
  auto reader = BlobFileReader::Open(checkpoint_path, options_.device.ssd);
  PRISM_CHECK_MSG(reader.ok(), reader.status().ToString().c_str());
  reader_ = std::move(reader).value();
  const Status ckpt_status = ValidateCheckpoint(*reader_, config_, options_.precision);
  PRISM_CHECK_MSG(ckpt_status.ok(), ckpt_status.ToString().c_str());
  embedding_ = std::make_unique<FullEmbeddingTable>(config_, reader_.get(), tracker_);
  std::vector<uint8_t> head_blob(static_cast<size_t>(reader_->BlobSize(HeadBlobIndex(config_))));
  const Status status = reader_->ReadBlob(HeadBlobIndex(config_), head_blob);
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  head_ = ParseHeadBlob(config_, head_blob);
}

RerankResult OffloadRunner::Rerank(const RerankRequest& request) {
  const WallTimer total_timer;
  RerankResult result;
  const size_t n = request.docs.size();
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
  std::vector<uint8_t> layer_blob(LayerBlobBytes(config_, options_.precision));

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

    for (size_t layer = 0; layer < config_.n_layers; ++layer) {
      // Synchronous load right before execution — the defining trait of the
      // Accelerate offload baseline. The load is charged by the device model.
      {
        const WallTimer io_timer;
        MemClaim claim(tracker_, MemCategory::kWeights,
                       static_cast<int64_t>(layer_blob.size()));
        const Status status = reader_->ReadBlob(LayerBlobIndex(layer), layer_blob);
        PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
        result.stats.io_stall_ms += io_timer.ElapsedMillis();
        result.stats.bytes_streamed += static_cast<int64_t>(layer_blob.size());

        const WallTimer compute_timer;
        const AnyLayerView view = ParseAnyLayerBlob(config_, layer_blob, options_.precision);
        LayerForward(config_, view, seq_len, &hidden, &scratch);
        result.stats.candidate_layers += static_cast<int64_t>(bsz);
        const int64_t compute_micros = compute_timer.ElapsedMicros();
        result.stats.compute_ms += static_cast<double>(compute_micros) / 1000.0;
        ApplyComputeSlowdown(options_.device, compute_micros);
        // `claim` releases here: the layer's weights are discarded after use.
      }
    }
    std::vector<float> batch_scores;
    ScoreChunk(config_, head_, hidden, seq_len, &batch_scores);
    for (size_t c = 0; c < bsz; ++c) {
      result.scores[b0 + c] = batch_scores[c];
    }
  }

  result.topk = TopKIndices(result.scores, request.k);
  result.stats.layers_until_done = config_.n_layers;
  result.stats.latency_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace prism
