// Embedding sources: the fully-resident table and the LRU-cached table.
//
// §4.4 of the paper: after layer streaming, the embedding table dominates the
// remaining memory footprint, but its activation is highly sparse (a 20×512
// request touches ≤ 6.75% of the vocabulary) and Zipf-skewed. EmbeddingCache
// keeps only `capacity_rows` rows in memory (LRU); §4.5: a request's missing
// rows arrive in one batched device read. Every consumer therefore asks for
// a request's rows in a single Gather call.
#ifndef PRISM_SRC_MODEL_EMBEDDING_H_
#define PRISM_SRC_MODEL_EMBEDDING_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/memory_tracker.h"
#include "src/common/mutex.h"
#include "src/model/config.h"
#include "src/storage/blob_file.h"

namespace prism {

// Cache counters. A gather counts each unique row it needs once — a hit
// when the row was resident, a miss when it came from the device — however
// many token positions name it.
struct EmbeddingCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t miss_bytes = 0;

  double HitRate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// The rows one gather returned: the sorted unique token ids and, for each,
// its `hidden` floats. Rows either point into a resident table (no copy) or
// into one contiguous buffer the table owns and charges to the tracker until
// it is destroyed — under kScratch, as a per-request staging buffer, so
// kEmbedding stays the §4.4 budget (table or cache capacity). Movable; row
// pointers survive the move.
class RowTable {
 public:
  // The row of `token`, which must be one of the gathered tokens.
  std::span<const float> Row(uint32_t token) const;
  const std::vector<uint32_t>& tokens() const { return tokens_; }
  // This gather's own counters (all hits for a resident table).
  const EmbeddingCacheStats& stats() const { return stats_; }

 private:
  friend class FullEmbeddingTable;
  friend class EmbeddingCache;

  // Sorts and dedups `tokens` into tokens_, checking each is below `vocab`.
  RowTable(std::span<const uint32_t> tokens, size_t hidden, size_t vocab);

  size_t hidden_ = 0;
  std::vector<uint32_t> tokens_;    // Sorted, unique.
  std::vector<const float*> rows_;  // rows_[i] is tokens_[i]'s row.
  std::vector<float> storage_;      // Owned copies; empty over a resident table.
  MemClaim claim_;                  // Charges storage_.
  EmbeddingCacheStats stats_;
};

// Common interface so runners can swap the resident table for the cache.
class EmbeddingSource {
 public:
  virtual ~EmbeddingSource() = default;
  // Every row `tokens` names (duplicates allowed, any order), in one call.
  virtual RowTable Gather(std::span<const uint32_t> tokens) = 0;
  virtual int64_t ResidentBytes() const = 0;

  // Single-token convenience over Gather: copies `token`'s row into `dest`
  // (size == hidden).
  void Lookup(uint32_t token, std::span<float> dest);
};

// Loads blob 0 fully into memory (the baseline runners' behaviour).
class FullEmbeddingTable : public EmbeddingSource {
 public:
  FullEmbeddingTable(const ModelConfig& config, BlobFileReader* reader,
                     MemoryTracker* tracker = &MemoryTracker::Global());

  // Points into the resident table; copies nothing and claims no memory.
  RowTable Gather(std::span<const uint32_t> tokens) override;
  int64_t ResidentBytes() const override;

  std::span<const float> Row(uint32_t token) const;

 private:
  ModelConfig config_;
  std::vector<float> table_;
  MemClaim claim_;
};

// LRU row cache over the on-disk embedding blob (§4.4). A gather copies
// its hits out and reads all of its misses in one scattered device read
// (§4.5), so a request pays the device latency at most once.
//
// Thread-safe: the cache is shared by every request in flight through the
// engine, so all LRU bookkeeping (and the stats) is mutex-guarded. The row
// *values* a gather returns are independent of hit/miss interleavings, which
// is what keeps concurrently-served requests bit-identical to serial runs;
// only the hit-rate stats depend on arrival order.
class EmbeddingCache : public EmbeddingSource {
 public:
  EmbeddingCache(const ModelConfig& config, BlobFileReader* reader, size_t capacity_rows,
                 MemoryTracker* tracker = &MemoryTracker::Global());

  // Copies the resident rows out (touching them in the LRU), then reads
  // every missing row straight into the table in one ReadBlobRanges call
  // with the lock released, so concurrent gathers' hits never wait on the
  // device. The misses then enter the LRU, at most capacity_rows of them;
  // one that lost a concurrent-insert race is dropped (the rows are
  // bit-identical). The returned table's buffer is charged to the tracker.
  RowTable Gather(std::span<const uint32_t> tokens) override;
  int64_t ResidentBytes() const override;

  size_t capacity_rows() const { return capacity_rows_; }
  size_t resident_rows() const;
  EmbeddingCacheStats stats() const;  // Snapshot (cumulative).

 private:
  void InsertRowLocked(uint32_t token, std::span<const float> row) PRISM_REQUIRES(mu_);

  ModelConfig config_;
  BlobFileReader* reader_;
  MemoryTracker* tracker_;
  size_t capacity_rows_;
  mutable Mutex mu_;
  // LRU: most-recent at front. map_ points into lru_.
  std::list<std::pair<uint32_t, std::vector<float>>> lru_ PRISM_GUARDED_BY(mu_);
  std::unordered_map<uint32_t, std::list<std::pair<uint32_t, std::vector<float>>>::iterator> map_
      PRISM_GUARDED_BY(mu_);
  EmbeddingCacheStats stats_ PRISM_GUARDED_BY(mu_);
  MemClaim claim_;  // Claims capacity upfront: the cache is a fixed budget.
};

}  // namespace prism

#endif  // PRISM_SRC_MODEL_EMBEDDING_H_
