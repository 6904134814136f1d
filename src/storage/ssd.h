// SimulatedSsd: file-backed storage with a configurable performance model.
//
// The paper's overlap-window insight (§3.2) hinges on the *ratio* between a
// layer's compute time and the time to load its weights from SSD. This class
// performs real file I/O (so data round-trips are genuine) and then enforces a
// device model on top: a single request queue with fixed per-request latency
// and a bandwidth cap. Concurrent readers serialise behind the queue exactly
// like a single NVMe device at queue depth 1, which is the regime a
// double-buffered layer streamer operates in.
//
// A read may carry a CancelToken. Cancelling it while the read waits out its
// modelled transfer returns kCancelled at once. If that read is the tail of
// the device queue, the device frees up at the cancel instant: the next
// request starts then, and busy time keeps only the part already served. A
// cancelled read with others queued behind it leaves the queue untouched, so
// no request ever moves ahead of an earlier one.
#ifndef PRISM_SRC_STORAGE_SSD_H_
#define PRISM_SRC_STORAGE_SSD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/status.h"

namespace prism {

struct SsdConfig {
  // Sustained throughput of the simulated device. The default approximates a
  // PCIe-4.0 SSD scaled by the same factor as the scaled-down model zoo, so
  // that layer-load / layer-compute ratios match the paper's platforms.
  double bandwidth_bytes_per_sec = 512.0 * 1024 * 1024;
  // Fixed per-request latency (submission + flash access).
  int64_t latency_micros = 80;
  // When false, the device model is bypassed (raw file I/O speed) — useful in
  // unit tests that only care about data integrity.
  bool throttle = true;
};

struct SsdStats {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t read_requests = 0;
  int64_t write_requests = 0;
  int64_t busy_micros = 0;  // Modelled device-busy time.
};

// A cancellation signal for one read at a time. Cancel wakes a read blocked
// in its device-queue wait; Reset re-arms the token for the next read.
class CancelToken {
 public:
  CancelToken() : cv_(WallClock::Get().MakeCondVar()) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel();
  void Reset();
  bool cancelled() const;

  // Parks until the wall clock reads `deadline_ms` or the token is
  // cancelled, whichever comes first. Returns true iff cancelled first.
  bool WaitUntil(double deadline_ms);

 private:
  mutable Mutex mu_;
  // Device-domain wait: the throttle stretches real I/O on the wall clock,
  // even under a SimClock (see ChargeTransfer).
  std::unique_ptr<ClockCondVar> cv_;
  bool cancelled_ PRISM_GUARDED_BY(mu_) = false;
};

class SimulatedSsd {
 public:
  // Opens (creating if necessary) the backing file.
  SimulatedSsd(std::string path, SsdConfig config);
  ~SimulatedSsd();

  SimulatedSsd(const SimulatedSsd&) = delete;
  SimulatedSsd& operator=(const SimulatedSsd&) = delete;

  // With `cancel`, the read returns kCancelled as soon as the token fires
  // before the transfer's modelled end (see file comment); a cancelled read
  // counts toward neither bytes_read nor read_requests.
  Status Read(int64_t offset, std::span<uint8_t> dest, CancelToken* cancel = nullptr);
  Status Write(int64_t offset, std::span<const uint8_t> src);

  // Scattered read submitted as one request: the device model charges the
  // fixed latency once plus bandwidth for the total bytes (NVMe-style queued
  // submission). Used for batched embedding-row fetches (§4.5).
  Status ReadScattered(std::span<const std::pair<int64_t, std::span<uint8_t>>> requests);

  // Appends at the current end-of-device offset; returns the offset written.
  Result<int64_t> Append(std::span<const uint8_t> src);

  int64_t SizeBytes() const;
  const SsdConfig& config() const { return config_; }
  SsdStats stats() const;
  const std::string& path() const { return path_; }

 private:
  // Blocks the caller to model `bytes` moving through the device queue.
  // Returns kCancelled iff `cancel` fires before the transfer's end.
  Status ChargeTransfer(int64_t bytes, CancelToken* cancel = nullptr);

  std::string path_;
  SsdConfig config_;
  int fd_ = -1;
  mutable Mutex mu_;
  int64_t append_offset_ PRISM_GUARDED_BY(mu_) = 0;
  // Queue model: when the device frees up.
  int64_t device_free_at_micros_ PRISM_GUARDED_BY(mu_) = 0;
  // Transfers ever queued; a transfer whose number equals it is the tail.
  uint64_t transfers_queued_ PRISM_GUARDED_BY(mu_) = 0;
  SsdStats stats_ PRISM_GUARDED_BY(mu_);
};

// Creates a unique temp-file path under /tmp for simulated devices.
std::string MakeTempDevicePath(const std::string& tag);

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_SSD_H_
