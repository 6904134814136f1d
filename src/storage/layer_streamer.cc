#include "src/storage/layer_streamer.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace prism {

LayerStreamer::LayerStreamer(BlobFileReader* reader, std::vector<size_t> schedule,
                             size_t buffer_count, MemoryTracker* tracker, bool cyclic)
    : reader_(reader), schedule_(std::move(schedule)), tracker_(tracker), cyclic_(cyclic) {
  PRISM_CHECK_GE(buffer_count, 2u);
  PRISM_CHECK_GT(schedule_.size(), 0u);
  buffers_.resize(buffer_count);
  schedule_end_ = cyclic_ ? SIZE_MAX : schedule_.size();
  prefetcher_ = std::thread([this] { PrefetchLoop(); });
}

LayerStreamer::~LayerStreamer() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
    read_cancel_.Cancel();  // Nobody consumes anything from here on.
  }
  cv_.NotifyAll();
  prefetcher_.join();
}

StreamerCycleStats& LayerStreamer::CycleSlotLocked(size_t seq) {
  const size_t cycle =
      std::min(seq / schedule_.size(), StreamerStats::kMaxTrackedCycles - 1);
  if (stats_.per_cycle.size() <= cycle) {
    stats_.per_cycle.resize(cycle + 1);
  }
  return stats_.per_cycle[cycle];
}

void LayerStreamer::FreeBufferLocked(Buffer* buf) {
  buf->seq = SIZE_MAX;
  buf->ready = false;
  buf->bytes.clear();
  buf->bytes.shrink_to_fit();
  buf->claim.ReleaseNow();
}

std::span<const uint8_t> LayerStreamer::Acquire(size_t seq) {
  const int64_t start = NowMicros();
  MutexLock lock(mu_);
  PRISM_CHECK_LT(seq, schedule_end_);
  PRISM_CHECK_GE(seq, release_floor_);  // Released or skipped positions are gone.
  Buffer* hit = nullptr;
  for (;;) {
    for (auto& buf : buffers_) {
      if (buf.seq == seq && buf.ready) {
        hit = &buf;
        break;
      }
    }
    if (hit != nullptr) {
      break;
    }
    cv_.Wait(mu_);
  }
  const int64_t stalled = NowMicros() - start;
  stats_.stall_micros += stalled;
  CycleSlotLocked(seq).stall_micros += stalled;
  return {hit->bytes.data(), hit->bytes.size()};
}

void LayerStreamer::Release(size_t seq) {
  {
    MutexLock lock(mu_);
    bool found = false;
    for (auto& buf : buffers_) {
      if (buf.seq == seq) {
        FreeBufferLocked(&buf);
        found = true;
        break;
      }
    }
    PRISM_CHECK_MSG(found, "Release of blob that is not resident");
    release_floor_ = std::max(release_floor_, seq + 1);
  }
  cv_.NotifyAll();
}

void LayerStreamer::TruncateSchedule(size_t last_seq) {
  {
    MutexLock lock(mu_);
    schedule_end_ = std::min(schedule_end_, last_seq + 1);
    if (in_flight_seq_ != SIZE_MAX && in_flight_seq_ >= schedule_end_) {
      read_cancel_.Cancel();
    }
  }
  cv_.NotifyAll();
}

void LayerStreamer::SkipTo(size_t seq) {
  {
    MutexLock lock(mu_);
    PRISM_CHECK_GE(seq, release_floor_);
    release_floor_ = seq;
    next_to_load_ = std::max(next_to_load_, seq);
    for (auto& buf : buffers_) {
      // Ready buffers below the new floor are dead weight; free them now. A
      // buffer still loading (seq set, !ready) is being written outside the
      // lock — its read is cancelled and the prefetcher frees it.
      if (buf.seq != SIZE_MAX && buf.seq < seq && buf.ready) {
        FreeBufferLocked(&buf);
      }
    }
    if (in_flight_seq_ < seq) {
      read_cancel_.Cancel();
    }
  }
  cv_.NotifyAll();
}

StreamerStats LayerStreamer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void LayerStreamer::PrefetchLoop() {
  for (;;) {
    size_t seq = 0;
    Buffer* target = nullptr;
    size_t blob_index = 0;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (shutting_down_) {
          return;
        }
        // A position must be pending, within `buffer_count` of the release
        // floor (so at most that many blobs are ever resident), and a free
        // buffer must exist.
        if (next_to_load_ < schedule_end_ &&
            next_to_load_ < release_floor_ + buffers_.size()) {
          for (auto& buf : buffers_) {
            if (buf.seq == SIZE_MAX) {
              target = &buf;
              break;
            }
          }
        }
        if (target != nullptr) {
          break;
        }
        cv_.Wait(mu_);
      }
      seq = next_to_load_++;
      blob_index = schedule_[seq % schedule_.size()];
      target->seq = seq;
      target->ready = false;
      const int64_t size = reader_->BlobSize(blob_index);
      target->bytes.resize(static_cast<size_t>(size));
      target->claim = MemClaim(tracker_, MemCategory::kWeights, size);
      in_flight_seq_ = seq;
      read_cancel_.Reset();
    }
    // I/O happens outside the lock; the device model inside SimulatedSsd
    // provides the timing.
    const Status status = reader_->ReadBlob(blob_index, target->bytes, &read_cancel_);
    {
      MutexLock lock(mu_);
      in_flight_seq_ = SIZE_MAX;
      if (status.code() == StatusCode::kCancelled) {
        // Truncated, skipped or torn down mid-read: nobody will consume the
        // position, and the bytes were never delivered, so count nothing.
        FreeBufferLocked(target);
      } else {
        PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
        stats_.bytes_loaded += static_cast<int64_t>(target->bytes.size());
        ++stats_.blobs_loaded;
        StreamerCycleStats& cycle = CycleSlotLocked(target->seq);
        cycle.bytes_loaded += static_cast<int64_t>(target->bytes.size());
        ++cycle.blobs_loaded;
        if (target->seq < release_floor_) {
          // Skipped after the read had completed: the bytes were paid for
          // (counted above) but nobody will consume them.
          FreeBufferLocked(target);
        } else {
          target->ready = true;
        }
      }
    }
    cv_.NotifyAll();
  }
}

}  // namespace prism
