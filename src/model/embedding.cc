#include "src/model/embedding.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/common/check.h"
#include "src/model/weights.h"

namespace prism {

FullEmbeddingTable::FullEmbeddingTable(const ModelConfig& config, BlobFileReader* reader,
                                       MemoryTracker* tracker)
    : config_(config) {
  table_.resize(config.vocab_size * config.hidden);
  auto* bytes = reinterpret_cast<uint8_t*>(table_.data());
  const Status status =
      reader->ReadBlob(EmbeddingBlobIndex(), {bytes, table_.size() * sizeof(float)});
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  claim_ = MemClaim(tracker, MemCategory::kEmbedding,
                    static_cast<int64_t>(table_.size() * sizeof(float)));
}

RowTable::RowTable(std::span<const uint32_t> tokens, size_t hidden, size_t vocab)
    : hidden_(hidden), tokens_(tokens.begin(), tokens.end()) {
  std::sort(tokens_.begin(), tokens_.end());
  tokens_.erase(std::unique(tokens_.begin(), tokens_.end()), tokens_.end());
  if (!tokens_.empty()) {
    PRISM_CHECK_LT(tokens_.back(), vocab);
  }
  rows_.resize(tokens_.size());
}

std::span<const float> RowTable::Row(uint32_t token) const {
  const auto it = std::lower_bound(tokens_.begin(), tokens_.end(), token);
  PRISM_CHECK_MSG(it != tokens_.end() && *it == token, "token was not gathered");
  return {rows_[static_cast<size_t>(it - tokens_.begin())], hidden_};
}

void EmbeddingSource::Lookup(uint32_t token, std::span<float> dest) {
  const RowTable rows = Gather({&token, 1});
  const std::span<const float> row = rows.Row(token);
  PRISM_CHECK_EQ(dest.size(), row.size());
  std::memcpy(dest.data(), row.data(), row.size() * sizeof(float));
}

RowTable FullEmbeddingTable::Gather(std::span<const uint32_t> tokens) {
  RowTable table(tokens, config_.hidden, config_.vocab_size);
  for (size_t i = 0; i < table.tokens_.size(); ++i) {
    table.rows_[i] = Row(table.tokens_[i]).data();
  }
  table.stats_.hits = static_cast<int64_t>(table.tokens_.size());
  return table;
}

int64_t FullEmbeddingTable::ResidentBytes() const {
  return static_cast<int64_t>(table_.size() * sizeof(float));
}

std::span<const float> FullEmbeddingTable::Row(uint32_t token) const {
  PRISM_CHECK_LT(token, config_.vocab_size);
  return {table_.data() + static_cast<size_t>(token) * config_.hidden, config_.hidden};
}

EmbeddingCache::EmbeddingCache(const ModelConfig& config, BlobFileReader* reader,
                               size_t capacity_rows, MemoryTracker* tracker)
    : config_(config), reader_(reader), tracker_(tracker), capacity_rows_(capacity_rows) {
  PRISM_CHECK_GT(capacity_rows_, 0u);
  claim_ = MemClaim(tracker, MemCategory::kEmbedding,
                    static_cast<int64_t>(capacity_rows_ * config_.hidden * sizeof(float)));
}

RowTable EmbeddingCache::Gather(std::span<const uint32_t> tokens) {
  const size_t hidden = config_.hidden;
  const size_t row_bytes = hidden * sizeof(float);
  RowTable table(tokens, hidden, config_.vocab_size);
  const size_t unique = table.tokens_.size();
  table.storage_.resize(unique * hidden);
  table.claim_ =
      MemClaim(tracker_, MemCategory::kScratch, static_cast<int64_t>(unique * row_bytes));
  for (size_t i = 0; i < unique; ++i) {
    table.rows_[i] = table.storage_.data() + i * hidden;
  }

  // Hits: copy out and touch under the lock.
  std::vector<size_t> missing;  // Indices into table.tokens_.
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < unique; ++i) {
      const auto it = map_.find(table.tokens_[i]);
      if (it == map_.end()) {
        missing.push_back(i);
        continue;
      }
      lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
      std::memcpy(table.storage_.data() + i * hidden, it->second->second.data(), row_bytes);
    }
    table.stats_.hits = static_cast<int64_t>(unique - missing.size());
    stats_.hits += table.stats_.hits;
  }
  if (missing.empty()) {
    return table;
  }
  table.stats_.misses = static_cast<int64_t>(missing.size());
  table.stats_.miss_bytes = static_cast<int64_t>(missing.size() * row_bytes);

  // Misses: one scattered device read straight into the table, with mu_
  // released so concurrent hits never wait on the device.
  std::vector<std::pair<int64_t, std::span<uint8_t>>> ranges;
  ranges.reserve(missing.size());
  for (size_t i : missing) {
    ranges.emplace_back(
        static_cast<int64_t>(table.tokens_[i]) * static_cast<int64_t>(row_bytes),
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(table.storage_.data() + i * hidden),
                           row_bytes));
  }
  const Status status = reader_->ReadBlobRanges(EmbeddingBlobIndex(), ranges);
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());

  MutexLock lock(mu_);
  stats_.misses += table.stats_.misses;
  stats_.miss_bytes += table.stats_.miss_bytes;
  // Inserting more than the capacity would only evict the earlier inserts
  // again, so only the last capacity_rows misses enter the LRU.
  const size_t first = missing.size() > capacity_rows_ ? missing.size() - capacity_rows_ : 0;
  for (size_t m = first; m < missing.size(); ++m) {
    const size_t i = missing[m];
    // A concurrent gather may have inserted the token while the lock was
    // released; its row is bit-identical, so ours is dropped.
    if (map_.find(table.tokens_[i]) == map_.end()) {
      InsertRowLocked(table.tokens_[i], {table.rows_[i], hidden});
    }
  }
  return table;
}

void EmbeddingCache::InsertRowLocked(uint32_t token, std::span<const float> row) {
  if (lru_.size() == capacity_rows_) {
    // Recycle the least-recent node and its row buffer.
    map_.erase(lru_.back().first);
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
    lru_.front().first = token;
    std::copy(row.begin(), row.end(), lru_.front().second.begin());
  } else {
    lru_.emplace_front(token, std::vector<float>(row.begin(), row.end()));
  }
  map_[token] = lru_.begin();
}

size_t EmbeddingCache::resident_rows() const {
  MutexLock lock(mu_);
  return map_.size();
}

EmbeddingCacheStats EmbeddingCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

int64_t EmbeddingCache::ResidentBytes() const {
  return static_cast<int64_t>(capacity_rows_ * config_.hidden * sizeof(float));
}

}  // namespace prism
