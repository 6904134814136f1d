// Cache-line-padded atomic counter cells: the primitive behind ResultCache's
// per-shard hit/miss counters.
//
// A mutation-heavy counter shared by many client threads bounces its cache
// line between cores on every fetch_add. Each cell here is a single relaxed
// atomic padded to its own cache line, so counters written on different
// paths never false-share with their neighbours (or with the lock-guarded
// state next to them). Reads fold cells; a fold is a snapshot, not a
// linearizable total — torn reads across cells are possible by design.
#ifndef PRISM_SRC_COMMON_STRIPED_H_
#define PRISM_SRC_COMMON_STRIPED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace prism {

// Destination cache-line size for the cells below. std::hardware_
// destructive_interference_size exists but is unreliably defined across
// toolchains (and tying ABI to a -mtune flag is worse); 64 bytes is right
// for every x86-64 and most AArch64 parts.
inline constexpr size_t kCacheLineBytes = 64;

// One integral counter on its own cache line. Relaxed everywhere: these are
// statistics, ordered against nothing; cross-cell snapshots may tear.
struct alignas(kCacheLineBytes) CounterCell {
  std::atomic<int64_t> value{0};

  void Add(int64_t delta) { value.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Load() const { return value.load(std::memory_order_relaxed); }
};

}  // namespace prism

#endif  // PRISM_SRC_COMMON_STRIPED_H_
