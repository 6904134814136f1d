// Request admission for RerankService.
//
// A Scheduler decides how concurrent Rerank calls reach the engine:
//
//   SerialScheduler  — one request at a time through a Runner (the original
//                      behaviour; callers take a ticket and are served in
//                      arrival order). Required when the runner is
//                      stateful, e.g. the OnlineCalibrator. Deadlines are
//                      honoured at dispatch: a request whose budget expired
//                      while waiting its turn is shed.
//   CarouselScheduler — continuous batching: callers enqueue into a
//                      ticketed RequestQueue and a dispatcher thread rides a
//                      cyclic layer pass (CarouselRunner::BeginCarousel)
//                      that never ends while traffic flows. At each arriving
//                      layer k it forwards every resident request whose
//                      next-needed layer is k: one weight fetch serves them
//                      all (the paper's §3.3 global view extended across
//                      requests) and their compute fans out on a worker
//                      pool. New requests board at a layer-0 boundary. A
//                      boundary stays open while its joiners embed: a
//                      request that arrives during that embed boards the
//                      same boundary, and layer 0 steps only once the queue
//                      is empty or the carousel is full. A request that
//                      arrives after layer 0 has stepped waits for the next
//                      boundary (worst-case wait one cycle). A request that
//                      terminates — pruned to completion or failed — exits
//                      and answers its caller immediately. When the
//                      carousel drains mid-cycle with work queued, it skips
//                      the rest of the cycle (the layers nobody needs are
//                      never fetched) and wraps early. Admission order, not
//                      thread timing, decides who boards when, and
//                      per-request pruning keeps every result bit-identical
//                      to serial.
//
// Admission order is priority-then-FIFO: within a priority class, tickets
// (monotonic admission sequence numbers) decide; a higher class always
// dispatches before a lower one. Requests carrying a deadline are shed the
// moment the dispatcher observes them expired — their caller receives a
// kDeadlineExceeded RerankResult instead of burning an engine pass — so an
// overloaded service degrades by answering late requests cheaply rather
// than queueing unboundedly.
//
// Every blocking wait and every timestamp in this file goes through the
// Clock seam (src/common/clock.h). With the default wall clock nothing
// changes; under a SimClock the queue's deadline expiry, the schedulers'
// waits, and the carousel's linger window all run on deterministic virtual
// time, and the dispatcher yields to quiescence before draining the queue so
// boarding is a pure function of the virtual arrival schedule.
#ifndef PRISM_SRC_CORE_SCHEDULER_H_
#define PRISM_SRC_CORE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/runtime/runner.h"

namespace prism {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Blocks until the request has been served (or shed); thread-safe. A shed
  // or failed request is reported through `result.status`.
  virtual RerankResult Submit(const RerankRequest& request) = 0;
  virtual std::string name() const = 0;
};

// The result handed to a caller whose request was shed after waiting
// `waited_ms` against `deadline_ms`. topk stays empty; scores are not
// filled (the request never reached an engine). stats.queue_wait_ms and
// stats.latency_ms both carry `waited_ms`: a shed request's whole life was
// queue wait.
RerankResult MakeShedResult(double deadline_ms, double waited_ms);

// One-at-a-time pass-through to a Runner: each caller takes a ticket under
// the lock and waits (clock-aware, so waiters are visible to a SimClock)
// until the tickets before it have been served or shed, so callers run in
// arrival order and a caller that just finished cannot cut back in.
class SerialScheduler : public Scheduler {
 public:
  explicit SerialScheduler(Runner* runner, Clock* clock = nullptr)
      : runner_(runner), clock_(ResolveClock(clock)), cv_(clock_->MakeCondVar()) {}

  RerankResult Submit(const RerankRequest& request) override;
  std::string name() const override { return "serial"; }

 private:
  Runner* runner_;
  Clock* clock_;
  std::unique_ptr<ClockCondVar> cv_;
  Mutex mu_;
  // Ticket-lock: Submit takes next_ticket_ and runs when serving_ reaches it.
  uint64_t next_ticket_ PRISM_GUARDED_BY(mu_) = 0;
  uint64_t serving_ PRISM_GUARDED_BY(mu_) = 0;
};

// Ticketed priority-then-FIFO queue of pending requests, single-consumer by
// contract: any number of producers may Push concurrently, but at most one
// thread (the scheduler's dispatcher) calls the pop variants.
//
// One mutex guards everything. A Push stamps its ticket and inserts straight
// into the deque kept sorted (priority desc, ticket asc); a pop sheds expired
// entries and takes the head of that deque under the same lock. A lock-free
// staging ring was measured against this and did not beat it beyond run-to-run
// noise even at 32 client threads: the whole serving hot path costs ~5 µs per
// request beside tens of milliseconds of layer forwarding (see "Admission and
// stats" in docs/ARCHITECTURE.md).
//
// Pushes never wait for capacity; PopBatch blocks until at least one unexpired request is
// pending (or the queue is closed) and then takes up to `max_batch` entries in
// (priority desc, ticket asc) order. Expired entries are shed inside the pops:
// their promises are fulfilled with a kDeadlineExceeded result and they never
// surface to the dispatcher. All timestamps are clock milliseconds; all waits
// go through the clock's condition variables, so SimClock determinism is
// preserved — every pop yields to quiescence before it takes.
class RequestQueue {
 public:
  explicit RequestQueue(Clock* clock = nullptr);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  struct Pending {
    const RerankRequest* request = nullptr;
    std::promise<RerankResult> promise;
    uint64_t ticket = 0;
    int priority = 0;
    // Admission events — pops that handed out a non-empty batch — from this
    // entry's Push up to and including the pop that handed it out. Push and
    // pop serialise on the queue mutex, so the count is exact: with free
    // capacity it is always 1, and each pop that skips the entry adds 1.
    uint64_t admission_wait = 0;
    double admitted_ms = 0.0;
    // Absolute expiry instant (clock ms); only meaningful when has_deadline.
    double deadline_at_ms = 0.0;
    bool has_deadline = false;

    bool ExpiredAt(double now_ms) const { return has_deadline && now_ms >= deadline_at_ms; }
  };

  std::future<RerankResult> Push(const RerankRequest& request);
  std::vector<Pending> PopBatch(size_t max_batch);

  // Non-blocking PopBatch: sheds expired entries, then returns up to
  // `max_batch` pending requests — possibly none. Never waits on the queue
  // (it does yield to clock quiescence first, a no-op on the wall clock);
  // used by the carousel to admit whatever is queued at a cycle boundary.
  std::vector<Pending> TryPopBatch(size_t max_batch);

  // PopBatch that gives up after `timeout_ms`: returns an empty batch when
  // no unexpired request arrived in time (or the queue closed). The
  // carousel's linger window — a drained pass waits warm for the next
  // arrival instead of tearing its prefetch pipeline down.
  std::vector<Pending> PopBatchFor(size_t max_batch, double timeout_ms);

  // Wakes PopBatch; subsequent pushes are rejected (CHECK). Entries still
  // pending are drained by subsequent PopBatch calls.
  void Close();

  // Entries pending (pushed, not yet popped or shed).
  size_t size() const;

  // Requests shed on an expired deadline so far.
  size_t shed_count() const;

 private:
  // One pass shared by the pop variants: under mu_, shed expired entries and
  // take up to max_batch survivors (a non-empty batch is an admission event);
  // then answer the shed entries outside the lock.
  std::vector<Pending> ShedAndTake(size_t max_batch);

  Clock* clock_;
  std::unique_ptr<ClockCondVar> cv_;  // Dispatcher parks here.
  mutable Mutex mu_;
  // Sorted: priority descending, ticket ascending. Push inserts from the
  // back, so the common single-priority case stays O(1) per entry.
  std::deque<Pending> pending_ PRISM_GUARDED_BY(mu_);
  uint64_t next_ticket_ PRISM_GUARDED_BY(mu_) = 0;
  // Admission events so far; Pending::admission_wait is measured against it.
  uint64_t epoch_ PRISM_GUARDED_BY(mu_) = 0;
  size_t shed_ PRISM_GUARDED_BY(mu_) = 0;
  bool closed_ PRISM_GUARDED_BY(mu_) = false;
};

// Continuous batching over a cyclic layer pass (see file comment). The
// dispatcher owns one CarouselPass per busy period: it admits up to
// `max_inflight` resident requests at each layer-0 boundary (priority-then-
// FIFO, deadline shedding via RequestQueue), steps every arriving layer's
// depth group, and answers each request the moment it finishes. A boundary
// closes only when the queue is empty or the carousel is full: requests that
// queue while the boundary's joiners embed board it too, so a closed-loop
// cohort returning at the wrap rides one cycle instead of straggling over
// several. The embed that already stalls the boundary is the only window;
// there is no timer.
class CarouselScheduler : public Scheduler {
 public:
  // Progress counters, mainly for tests and benches. `max_boundary_wait` is
  // the most admission events any request saw between enqueue and
  // admission (RequestQueue::Pending::admission_wait): with
  // free capacity it is exactly 1 (a request enqueued mid-cycle is admitted
  // at the very next boundary, one enqueued while a boundary's joiners embed
  // at that same boundary), which is the "worst-case wait one cycle"
  // admission-latency guarantee; each capacity-bound skip adds 1.
  struct Stats {
    size_t passes = 0;     // Busy periods (carousel spin-ups).
    size_t cycles = 0;     // Layer-0 admission boundaries crossed.
    size_t admitted = 0;   // Requests that reached the carousel.
    size_t exited_early = 0;  // Finished before their admission cycle ended.
    size_t max_boundary_wait = 0;
  };

  // `compute_threads` sizes the per-depth-group fan-out pool (0 = one per
  // core, at least one per carousel slot). `linger_ms` is how long a drained
  // pass waits — prefetch pipeline warm, next cycle's first layers already
  // loading — for new traffic before tearing down; arrivals inside the
  // window start on warm weights instead of a cold streamer.
  CarouselScheduler(CarouselRunner* runner, size_t max_inflight, size_t compute_threads = 0,
                    double linger_ms = 200.0, Clock* clock = nullptr);
  ~CarouselScheduler() override;

  CarouselScheduler(const CarouselScheduler&) = delete;
  CarouselScheduler& operator=(const CarouselScheduler&) = delete;

  RerankResult Submit(const RerankRequest& request) override;
  std::string name() const override { return "carousel"; }

  size_t max_inflight() const { return max_inflight_; }
  Stats stats() const;

 private:
  struct Resident {
    std::unique_ptr<CarouselTicket> ticket;
    std::promise<RerankResult> promise;
    double queue_wait_ms = 0.0;
  };

  void DispatchLoop();
  // Admits `batch` into `pass` at a layer-0 boundary, then keeps the
  // boundary open for whatever queued while that batch embedded, until the
  // queue is empty or the carousel is full. Updates the admission stats.
  void AdmitBoundary(CarouselPass* pass, std::vector<RequestQueue::Pending> batch,
                     std::vector<Resident>* residents);

  CarouselRunner* runner_;
  size_t max_inflight_;
  double linger_ms_;
  Clock* clock_;
  RequestQueue queue_;
  std::unique_ptr<ThreadPool> compute_pool_;
  mutable Mutex stats_mu_;
  Stats stats_ PRISM_GUARDED_BY(stats_mu_);
  std::thread dispatcher_;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_SCHEDULER_H_
