// Indexed-blob container on top of SimulatedSsd.
//
// Model checkpoints are laid out as a sequence of blobs (embedding table,
// one blob per transformer layer, classifier head) so that the layer streamer
// can fetch exactly one layer's bytes per request. Format v2 tags every blob
// with its storage precision so checkpoints are self-describing:
//
//   [magic u32][version u32][count u64]                          header
//   v2: count × { offset u64, size u64, precision u32, group u32 }  table
//   v1: count × { offset u64, size u64 }                            table
//   blob bytes ...                                                data
//
// v1 files (written before the precision axis existed) still open; their
// blobs read as untagged (fp32, group 0).
#ifndef PRISM_SRC_STORAGE_BLOB_FILE_H_
#define PRISM_SRC_STORAGE_BLOB_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/ssd.h"
#include "src/tensor/quant.h"

namespace prism {

inline constexpr uint32_t kBlobFileMagic = 0x50524C42;  // "PRLB"
inline constexpr uint32_t kBlobFileVersion = 2;
inline constexpr uint32_t kBlobFileVersionLegacy = 1;

class BlobFileWriter {
 public:
  // Writes blobs sequentially through an *unthrottled* SSD handle (checkpoint
  // creation is setup work, not part of any measured experiment).
  explicit BlobFileWriter(const std::string& path);

  // Appends a blob; returns its index. The default overload tags the blob
  // fp32 / group 0 (raw bytes, no quantisation metadata).
  size_t AddBlob(std::span<const uint8_t> bytes);
  size_t AddBlob(std::span<const uint8_t> bytes, Precision precision, uint32_t quant_group);

  // Writes the header + table. Must be called exactly once, after all blobs.
  Status Finish();

 private:
  struct Entry {
    int64_t offset = 0;
    int64_t size = 0;
    Precision precision = Precision::kFp32;
    uint32_t quant_group = 0;
  };

  std::string path_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::vector<Entry> table_;
  std::vector<uint8_t> scratch_;  // Staged blob bytes until Finish.
  int64_t data_cursor_ = 0;
  bool finished_ = false;
};

class BlobFileReader {
 public:
  // Opens an existing blob file through a throttled simulated device.
  static Result<std::unique_ptr<BlobFileReader>> Open(const std::string& path, SsdConfig config);

  size_t blob_count() const { return table_.size(); }
  int64_t BlobSize(size_t index) const;

  // Format version of the opened file (kBlobFileVersion or the legacy 1).
  uint32_t version() const { return version_; }
  bool has_precision_tags() const { return version_ >= 2; }

  // Per-blob precision tag. v1 files report kFp32 / group 0 for every blob
  // (the legacy format carried no metadata; callers that streamed w4 from v1
  // files supplied the precision out of band).
  Precision BlobPrecision(size_t index) const;
  uint32_t BlobQuantGroup(size_t index) const;

  // Reads blob `index` fully into `dest` (must be exactly BlobSize bytes).
  // `cancel` passes through to SimulatedSsd::Read.
  Status ReadBlob(size_t index, std::span<uint8_t> dest, CancelToken* cancel = nullptr);

  // Reads a byte range within blob `index` (for row-granular embedding-table
  // fetches on cache miss, §4.4).
  Status ReadBlobRange(size_t index, int64_t offset_in_blob, std::span<uint8_t> dest);

  // Scattered ranges within one blob as a single device request (§4.5's
  // batched unique-token load).
  Status ReadBlobRanges(size_t index,
                        std::span<const std::pair<int64_t, std::span<uint8_t>>> ranges);

  SimulatedSsd& ssd() { return *ssd_; }

 private:
  struct Entry {
    int64_t offset = 0;
    int64_t size = 0;
    Precision precision = Precision::kFp32;
    uint32_t quant_group = 0;
  };

  BlobFileReader() = default;

  std::unique_ptr<SimulatedSsd> ssd_;
  std::vector<Entry> table_;
  uint32_t version_ = kBlobFileVersion;
};

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_BLOB_FILE_H_
