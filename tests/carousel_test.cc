// CarouselScheduler and CarouselPass mechanics: continuous batching over the
// cyclic layer stream must keep every result bit-identical to serial
// execution while admitting at layer-0 boundaries, exiting finished requests
// mid-cycle, and reusing streamer buffers across wrap-arounds. The boarding
// rule — a boundary stays open while its joiners embed — is checked on
// virtual time against a scripted pass. Runs in the TSan and
// concurrency-stress CI lanes.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "src/core/service.h"
#include "src/tensor/quant.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class CarouselTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    for (size_t i = 0; i < 8; ++i) {
      requests_.push_back(TestRequest(config_, 10 + i % 4, 3, i));
    }
  }

  PrismOptions EngineOptions() const {
    PrismOptions options;
    options.device = FastDevice();
    return options;
  }

  std::vector<RerankResult> SerialReference() {
    MemoryTracker tracker;
    PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
    std::vector<RerankResult> results;
    for (const RerankRequest& request : requests_) {
      results.push_back(engine.Rerank(request));
    }
    return results;
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> requests_;
};

TEST_F(CarouselTest, SchedulerMatchesSerialBitIdentically) {
  const std::vector<RerankResult> reference = SerialReference();

  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  CarouselScheduler scheduler(&engine, /*max_inflight=*/3, /*compute_threads=*/2);

  std::vector<RerankResult> results(requests_.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests_.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = scheduler.Submit(requests_[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "request " << i;
    EXPECT_EQ(results[i].topk, reference[i].topk) << "request " << i;
    EXPECT_EQ(results[i].scores, reference[i].scores) << "request " << i;
    // The carousel runs exactly the layers the serial plan ran — no request
    // is forwarded outside its plan (also CHECKed inside ForwardGroup).
    EXPECT_EQ(results[i].stats.layers_until_done, reference[i].stats.layers_until_done)
        << "request " << i;
    EXPECT_EQ(results[i].stats.candidate_layers, reference[i].stats.candidate_layers)
        << "request " << i;
  }

  const CarouselScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, requests_.size());
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GE(stats.cycles, stats.passes);

  // A request whose serial plan terminated before the last layer must have
  // exited the carousel mid-cycle instead of waiting for the wrap.
  size_t early_in_serial = 0;
  for (const RerankResult& result : reference) {
    if (result.stats.layers_until_done < config_.n_layers) {
      ++early_in_serial;
    }
  }
  if (early_in_serial > 0) {
    EXPECT_GE(stats.exited_early, 1u);
  }
}

TEST_F(CarouselTest, SchedulerMatchesSerialAtEveryReducedPrecision) {
  // The bit-identical-to-serial contract is precision-blind: the carousel
  // decodes the same quantized layer stream the serial path decodes, so each
  // tier must agree with its own serial baseline to the last bit. Cross-tier
  // drift against fp32 is golden_test's calibrated business, not ours.
  for (const Precision precision :
       {Precision::kFp16, Precision::kInt8, Precision::kW4}) {
    const std::string ckpt = TestCheckpoint(config_, precision);
    PrismOptions options = EngineOptions();
    options.precision = precision;
    MemoryTracker ref_tracker;
    PrismEngine reference(config_, ckpt, options, &ref_tracker);
    std::vector<RerankResult> expected;
    for (const RerankRequest& request : requests_) {
      expected.push_back(reference.Rerank(request));
    }

    MemoryTracker tracker;
    PrismEngine engine(config_, ckpt, options, &tracker);
    CarouselScheduler scheduler(&engine, /*max_inflight=*/3, /*compute_threads=*/2);
    std::vector<RerankResult> results(requests_.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests_.size(); ++i) {
      clients.emplace_back([&, i] { results[i] = scheduler.Submit(requests_[i]); });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    for (size_t i = 0; i < requests_.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].topk, expected[i].topk)
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].scores, expected[i].scores)
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].stats.layers_until_done, expected[i].stats.layers_until_done)
          << PrecisionName(precision) << " request " << i;
    }
    EXPECT_EQ(scheduler.stats().admitted, requests_.size()) << PrecisionName(precision);
  }
}

TEST_F(CarouselTest, LingerKeepsOnePassWarmAcrossSequentialRequests) {
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  // Reference results up front so nothing but the inter-submit gap is on
  // the clock against the linger window.
  std::vector<RerankResult> expected;
  for (size_t round = 0; round < 3; ++round) {
    expected.push_back(reference.Rerank(requests_[round]));
  }
  // On virtual time the test is deterministic rather than merely likely:
  // this thread joins the simulation, so while it is between submissions the
  // clock cannot advance — the dispatcher's 2000 ms linger timeout can never
  // fire early, and every submission lands inside the warm window by
  // construction.
  SimClock clock;
  CarouselScheduler scheduler(&engine, /*max_inflight=*/2, /*compute_threads=*/2,
                              /*linger_ms=*/2000.0, &clock);
  {
    const ClockMembership membership(&clock);
    for (size_t round = 0; round < 3; ++round) {
      const RerankResult result = scheduler.Submit(requests_[round]);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.topk, expected[round].topk) << "round " << round;
    }
    const CarouselScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_GE(stats.cycles, 3u);
  }
}

TEST_F(CarouselTest, ZeroLingerSpinsUpOnePassPerBusyPeriod) {
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  SimClock clock;
  CarouselScheduler scheduler(&engine, /*max_inflight=*/2, /*compute_threads=*/2,
                              /*linger_ms=*/0.0, &clock);

  // Without a linger window each sequential submission finds the carousel
  // torn down and must spin it up again. A 1 ms virtual sleep between
  // submissions guarantees (not just makes likely, as a real-time sleep
  // would) that the dispatcher ended the pass first: virtual time can only
  // reach now+1 once every participant is parked without a nearer tag, and
  // the dispatcher's only such parking spot is the torn-down idle wait —
  // with linger 0 its timeout wait gives up at `now` without parking.
  {
    const ClockMembership membership(&clock);
    for (size_t round = 0; round < 3; ++round) {
      const RerankResult result = scheduler.Submit(requests_[round]);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.topk, reference.Rerank(requests_[round]).topk) << "round " << round;
      clock.SleepFor(1.0);
    }
  }
  EXPECT_EQ(scheduler.stats().passes, 3u);
}

TEST_F(CarouselTest, PassWrapAroundServesLateJoinerBitIdentically) {
  // Drive a CarouselPass by hand: admit A and B together, but hold B back
  // from every group of the first cycle (a late joiner riding the next
  // revolution). B's layers arrive from the *wrapped* schedule — the cyclic
  // streamer's second cycle — and its result must still be bit-identical.
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  const RerankResult expected_a = reference.Rerank(requests_[0]);
  const RerankResult expected_b = reference.Rerank(requests_[1]);

  std::unique_ptr<CarouselPass> pass = engine.BeginCarousel();
  ASSERT_NE(pass, nullptr);
  ASSERT_EQ(pass->n_layers(), config_.n_layers);
  std::unique_ptr<CarouselTicket> a = pass->Admit(requests_[0]);
  std::unique_ptr<CarouselTicket> b = pass->Admit(requests_[1]);

  // Cycle 0: A only. B stays parked at depth 0.
  size_t steps = 0;
  std::vector<CarouselTicket*> group;
  for (size_t layer = 0; layer < config_.n_layers && !a->done(); ++layer) {
    group.assign(1, a.get());
    pass->Step(layer, group, /*compute_pool=*/nullptr);
    ++steps;
  }
  ASSERT_TRUE(a->done());
  const RerankResult result_a = a->TakeResult();
  a.reset();

  // Realign at the next boundary if A terminated mid-cycle.
  if (steps % config_.n_layers != 0) {
    pass->SkipToNextCycle();
  }

  // Cycle 1: B rides the wrapped schedule from layer 0.
  EXPECT_EQ(b->next_layer(), 0u);
  for (size_t layer = 0; layer < config_.n_layers && !b->done(); ++layer) {
    group.assign(1, b.get());
    pass->Step(layer, group, /*compute_pool=*/nullptr);
  }
  ASSERT_TRUE(b->done());
  const RerankResult result_b = b->TakeResult();
  b.reset();

  EXPECT_EQ(result_a.topk, expected_a.topk);
  EXPECT_EQ(result_a.scores, expected_a.scores);
  EXPECT_EQ(result_b.topk, expected_b.topk);
  EXPECT_EQ(result_b.scores, expected_b.scores);
}

TEST_F(CarouselTest, AbandonedTicketReleasesSpilledChunks) {
  PrismOptions options = EngineOptions();
  options.offload_hidden = true;
  options.chunk_candidates = 3;
  options.pruning = false;  // Keep the request alive past its first layer.
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  ASSERT_NE(engine.spill_pool(), nullptr);

  std::unique_ptr<CarouselPass> pass = engine.BeginCarousel();
  std::unique_ptr<CarouselTicket> ticket = pass->Admit(requests_[0]);
  std::vector<CarouselTicket*> group{ticket.get()};
  pass->Step(0, group, nullptr);  // Chunks now parked in the spill pool.
  ASSERT_FALSE(ticket->done());
  EXPECT_GT(engine.spill_pool()->live_entries(), 0u);
  ticket.reset();  // Abandon mid-flight (what a fault wrapper does).
  EXPECT_EQ(engine.spill_pool()->live_entries(), 0u);
  // The pass is still usable for other requests afterwards.
  pass->SkipToNextCycle();
  std::unique_ptr<CarouselTicket> next = pass->Admit(requests_[1]);
  for (size_t layer = 0; layer < config_.n_layers && !next->done(); ++layer) {
    group.assign(1, next.get());
    pass->Step(layer, group, nullptr);
  }
  ASSERT_TRUE(next->done());
  EXPECT_TRUE(next->TakeResult().status.ok());
  next.reset();
  EXPECT_EQ(engine.spill_pool()->live_entries(), 0u);
}

TEST(RequestQueueTryPopTest, NonBlockingPopShedsAndDrains) {
  SimClock clock;
  RequestQueue queue(&clock);
  const ModelConfig config = TestModel();
  EXPECT_TRUE(queue.TryPopBatch(4).empty());  // Empty queue: returns, no block.

  std::vector<RerankRequest> requests;
  for (size_t i = 0; i < 3; ++i) {
    requests.push_back(TestRequest(config, 8, 2, i));
  }
  requests[1].deadline_ms = 7.0;
  std::vector<std::future<RerankResult>> futures;
  for (const RerankRequest& request : requests) {
    futures.push_back(queue.Push(request));
  }
  // Expiry is `now >= admitted + deadline`: advancing virtual time to the
  // exact expiry instant — not a tick further — must shed entry 1.
  clock.SleepUntil(7.0);
  EXPECT_EQ(clock.NowMs(), 7.0);
  std::vector<RequestQueue::Pending> batch = queue.TryPopBatch(2);
  ASSERT_EQ(batch.size(), 2u);  // Entry 1 shed, entries 0 and 2 popped.
  EXPECT_EQ(batch[0].ticket, 0u);
  EXPECT_EQ(batch[1].ticket, 2u);
  EXPECT_EQ(queue.shed_count(), 1u);
  // AwaitFuture, not a bare get(): the shed answer carries a PreWake token
  // that the awaiting side must consume (as every scheduler's Submit does).
  EXPECT_EQ(AwaitFuture(&clock, std::move(futures[1])).status.code(),
            StatusCode::kDeadlineExceeded);
  for (auto& pending : batch) {
    pending.promise.set_value(RerankResult{});
  }
  EXPECT_TRUE(queue.TryPopBatch(2).empty());
}

TEST(RequestQueueTryPopTest, AdmissionWaitCountsNonEmptyPops) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  const RerankRequest request = TestRequest(config, 8, 2);
  auto first = queue.Push(request);
  auto second = queue.Push(request);
  // Empty pops are not admission events.
  EXPECT_TRUE(queue.TryPopBatch(0).empty());
  std::vector<RequestQueue::Pending> batch = queue.TryPopBatch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].ticket, 0u);
  EXPECT_EQ(batch[0].admission_wait, 1u);  // Taken by the first admission event.
  batch[0].promise.set_value(RerankResult{});
  // The second entry was skipped by that event and taken by the next.
  batch = queue.TryPopBatch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].ticket, 1u);
  EXPECT_EQ(batch[0].admission_wait, 2u);
  batch[0].promise.set_value(RerankResult{});
  // A push after both events counts from there, not from queue start.
  auto third = queue.Push(request);
  batch = queue.TryPopBatch(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].admission_wait, 1u);
  batch[0].promise.set_value(RerankResult{});
  first.get();
  second.get();
  third.get();
}

// A scripted carousel on virtual time: every AdmitBatch call costs
// `embed_ms` and every Step `step_ms` on the clock, and a ticket is done
// after its `n_layers` steps. The runner logs each AdmitBatch call (the
// requests it boarded, in order) and each layer-0 group size, so a test can
// read off which boundary every request boarded. Logs are written by the
// dispatcher thread only; read them after the scheduler is destroyed.
class EmbedWindowRunner : public CarouselRunner {
 public:
  EmbedWindowRunner(Clock* clock, size_t n_layers, double embed_ms, double step_ms)
      : clock_(clock), n_layers_(n_layers), embed_ms_(embed_ms), step_ms_(step_ms) {}

  RerankResult Rerank(const RerankRequest& /*request*/) override { return RerankResult{}; }
  std::string name() const override { return "embed-window"; }

  std::unique_ptr<CarouselPass> BeginCarousel() override {
    return std::make_unique<Pass>(this);
  }

  // One entry per AdmitBatch call: the requests it boarded.
  std::vector<std::vector<const RerankRequest*>> admit_rounds;
  // One entry per layer-0 step: how many tickets it forwarded.
  std::vector<size_t> layer0_groups;

 private:
  struct Ticket : CarouselTicket {
    Ticket(const RerankRequest* r, size_t n) : request(r), n_layers(n) {}
    size_t next_layer() const override { return steps; }
    bool done() const override { return steps == n_layers; }
    RerankResult TakeResult() override { return RerankResult{}; }

    const RerankRequest* request;
    size_t n_layers;
    size_t steps = 0;
  };

  class Pass : public CarouselPass {
   public:
    explicit Pass(EmbedWindowRunner* runner) : runner_(runner) {}

    size_t n_layers() const override { return runner_->n_layers_; }

    std::unique_ptr<CarouselTicket> Admit(const RerankRequest& request) override {
      return std::make_unique<Ticket>(&request, runner_->n_layers_);
    }

    std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
        std::span<const RerankRequest* const> requests, ThreadPool* /*compute_pool*/) override {
      runner_->admit_rounds.emplace_back(requests.begin(), requests.end());
      runner_->clock_->SleepFor(runner_->embed_ms_);
      std::vector<std::unique_ptr<CarouselTicket>> tickets;
      for (const RerankRequest* request : requests) {
        tickets.push_back(Admit(*request));
      }
      return tickets;
    }

    void Step(size_t layer, std::span<CarouselTicket* const> group,
              ThreadPool* /*compute_pool*/) override {
      if (layer == 0) {
        runner_->layer0_groups.push_back(group.size());
      }
      runner_->clock_->SleepFor(runner_->step_ms_);
      for (CarouselTicket* ticket : group) {
        ++static_cast<Ticket*>(ticket)->steps;
      }
    }

    void SkipToNextCycle() override {}

   private:
    EmbedWindowRunner* runner_;
  };

  Clock* clock_;
  size_t n_layers_;
  double embed_ms_;
  double step_ms_;
};

// Virtual-time boarding scenario: client i sleeps until `arrive_ms[i]`, then
// submits requests[i] once. Returns each client's result.
std::vector<RerankResult> SubmitAt(SimClock* clock, CarouselScheduler* scheduler,
                                   const std::vector<RerankRequest>& requests,
                                   const std::vector<double>& arrive_ms) {
  std::vector<RerankResult> results(arrive_ms.size());
  clock->ExpectParticipants(arrive_ms.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < arrive_ms.size(); ++i) {
    clients.emplace_back([&, i] {
      const ClockMembership membership(clock);
      clock->SleepUntil(arrive_ms[i]);
      results[i] = scheduler->Submit(requests[i]);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  return results;
}

TEST(CarouselBoardingTest, ArrivalDuringJoinerEmbedBoardsTheSameBoundary) {
  // A arrives at 0 and embeds over [0, 5); B arrives at 2, inside that
  // window. The boundary stays open for B, so both ride layer 0 together:
  // one cycle, one layer-0 group of two.
  SimClock clock;
  EmbedWindowRunner runner(&clock, /*n_layers=*/2, /*embed_ms=*/5.0, /*step_ms=*/10.0);
  const std::vector<RerankRequest> requests(2);
  std::vector<RerankResult> results;
  CarouselScheduler::Stats stats;
  {
    CarouselScheduler scheduler(&runner, /*max_inflight=*/4, /*compute_threads=*/1,
                                /*linger_ms=*/0.0, &clock);
    results = SubmitAt(&clock, &scheduler, requests, {0.0, 2.0});
    stats = scheduler.stats();
  }
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.cycles, 1u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.max_boundary_wait, 1u);
  ASSERT_EQ(runner.admit_rounds.size(), 2u);  // A's round, then B's.
  EXPECT_EQ(runner.admit_rounds[0], std::vector<const RerankRequest*>{&requests[0]});
  EXPECT_EQ(runner.admit_rounds[1], std::vector<const RerankRequest*>{&requests[1]});
  EXPECT_EQ(runner.layer0_groups, std::vector<size_t>{2});
  // B boarded the moment A's embed ended, not a cycle later.
  EXPECT_DOUBLE_EQ(results[0].stats.queue_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(results[1].stats.queue_wait_ms, 3.0);
}

TEST(CarouselBoardingTest, ArrivalAfterLayerZeroSteppedWaitsForNextBoundary) {
  // A embeds over [0, 5) and layer 0 steps over [5, 15). B arrives at 7:
  // the boundary has closed, so B boards at the wrap (t = 25).
  SimClock clock;
  EmbedWindowRunner runner(&clock, /*n_layers=*/2, /*embed_ms=*/5.0, /*step_ms=*/10.0);
  const std::vector<RerankRequest> requests(2);
  std::vector<RerankResult> results;
  CarouselScheduler::Stats stats;
  {
    CarouselScheduler scheduler(&runner, /*max_inflight=*/4, /*compute_threads=*/1,
                                /*linger_ms=*/0.0, &clock);
    results = SubmitAt(&clock, &scheduler, requests, {0.0, 7.0});
    stats = scheduler.stats();
  }
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.max_boundary_wait, 1u);
  EXPECT_EQ(runner.layer0_groups, (std::vector<size_t>{1, 1}));
  EXPECT_DOUBLE_EQ(results[1].stats.queue_wait_ms, 25.0 - 7.0);
}

TEST(CarouselBoardingTest, FullCarouselClosesTheBoundary) {
  // Two slots, three clients: A at 0, B and C at 2 (inside A's embed). The
  // open boundary tops the carousel up with B alone — exactly max_inflight
  // riders — and C boards at the next boundary, skipped once.
  SimClock clock;
  EmbedWindowRunner runner(&clock, /*n_layers=*/2, /*embed_ms=*/5.0, /*step_ms=*/10.0);
  const std::vector<RerankRequest> requests(3);
  std::vector<RerankResult> results;
  CarouselScheduler::Stats stats;
  {
    CarouselScheduler scheduler(&runner, /*max_inflight=*/2, /*compute_threads=*/1,
                                /*linger_ms=*/0.0, &clock);
    results = SubmitAt(&clock, &scheduler, requests, {0.0, 2.0, 2.0});
    stats = scheduler.stats();
  }
  for (const RerankResult& result : results) {
    EXPECT_TRUE(result.status.ok());
  }
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.cycles, 2u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.max_boundary_wait, 2u);
  ASSERT_EQ(runner.admit_rounds.size(), 3u);
  EXPECT_EQ(runner.admit_rounds[0].size(), 1u);
  EXPECT_EQ(runner.admit_rounds[1].size(), 1u);
  EXPECT_EQ(runner.admit_rounds[2].size(), 1u);
  EXPECT_EQ(runner.layer0_groups, (std::vector<size_t>{2, 1}));
}

}  // namespace
}  // namespace prism
