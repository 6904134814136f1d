#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "src/core/service.h"
#include "src/data/dataset.h"
#include "src/data/metrics.h"
#include "src/model/config.h"
#include "src/model/pair_encoder.h"
#include "src/model/synthetic.h"
#include "src/model/weights.h"
#include "src/serving/result_cache.h"
#include "src/serving/workload.h"
#include "src/storage/blob_file.h"
#include "src/storage/layer_streamer.h"
#include "trace.h"

namespace perfbench {
namespace {

using prism::CarouselPass;
using prism::CarouselTicket;
using prism::MemCategory;
using prism::MemoryTracker;
using prism::ModelConfig;
using prism::PrismEngine;
using prism::PrismOptions;
using prism::RerankRequest;
using prism::RerankResult;
using prism::Rng;

// Weight seed of every checkpoint, and the data seed of the fixed query
// population the engine workloads draw from (the values the repo's figure
// benches use, so populations match theirs).
constexpr uint64_t kWeightSeed = 42;
constexpr uint64_t kDataSeed = 7;
// Set-up is repeated this many times per process and its median reported
// (run.py averages the medians of several processes).
constexpr int kSetupRepeats = 201;

double SecondsSince(double start_us) { return (NowUs() - start_us) / 1e6; }

// Generates the checkpoint into the work directory, outside the set-up
// timing. Every run regenerates it, so set-up never depends on a cache's
// state; a set-up-only process reuses the checkpoint its run has just written.
std::string WriteCheckpoint(const ModelConfig& model, const RunConfig& config, double* seconds) {
  std::string name = model.name;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
      c = '_';
    }
  }
  const std::string path = config.work_dir + "/" + name + ".fp32.bin";
  if (config.setup_only && std::filesystem::exists(path)) {
    return path;
  }
  const std::string tmp = path + ".tmp";
  const double start = NowUs();
  const prism::Status status = prism::GenerateCheckpoint(model, kWeightSeed, tmp);
  if (!status.ok() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot write checkpoint %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
  *seconds = SecondsSince(start);
  return path;
}

std::string MemPeaksJson(const MemoryTracker& tracker) {
  JsonObject out;
  for (int c = 0; c < static_cast<int>(MemCategory::kCount); ++c) {
    const auto category = static_cast<MemCategory>(c);
    out.Int(prism::MemCategoryName(category), tracker.PeakBytes(category));
  }
  return out.Int("total", tracker.PeakTotal()).Close();
}

void Shuffle(std::vector<size_t>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

std::string NumArray(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) {
    items.push_back(JsonNumber(v));
  }
  return JsonArray(items);
}

// Multiply-adds of one candidate through one layer, from the tensor shapes
// LayerForward uses: Q/K/V/O projections, full score matrix, causal
// context sum, and the three SwiGLU (two for GELU) FFN projections.
double LayerFlops(const ModelConfig& model, size_t seq_len) {
  const auto s = static_cast<double>(seq_len);
  const auto d = static_cast<double>(model.hidden);
  const auto f = static_cast<double>(model.ffn);
  const double ffn_mats = model.arch == prism::ModelArch::kDecoderOnly ? 3.0 : 2.0;
  return 2.0 * (4.0 * s * d * d + s * s * d + 0.5 * s * (s + 1.0) * d + ffn_mats * s * d * f);
}

// The counters one rerank returned, as a JSON fragment.
JsonObject& AddStats(JsonObject& out, const ModelConfig& model, const RerankRequest& request,
                     const RerankResult& result) {
  const prism::RerankStats& st = result.stats;
  const size_t seq_len = prism::ChooseSeqLen(model, request.query, request.docs);
  return out.Num("embed_ms", st.embed_ms)
      .Num("compute_ms", st.compute_ms)
      .Num("io_stall_ms", st.io_stall_ms)
      .Num("queue_wait_ms", st.queue_wait_ms)
      .Num("first_layer_ms", st.first_layer_ms)
      .Num("engine_latency_ms", st.latency_ms)
      .Int("candidates", static_cast<int64_t>(request.docs.size()))
      .Int("candidate_layers", st.candidate_layers)
      .Int("layers", static_cast<int64_t>(st.layers_until_done))
      .Int("bytes", st.bytes_streamed)
      .Num("flops", static_cast<double>(st.candidate_layers) * LayerFlops(model, seq_len));
}

bool SameBits(const RerankResult& a, const RerankResult& b) {
  return a.status.ok() == b.status.ok() && a.topk == b.topk &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(), a.scores.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// lone_rerank / slow_flash: one client calling PrismEngine directly.

struct EngineShape {
  size_t candidates;
  size_t k;
  // Fixed query population, cycled in a seeded order, so runs at different
  // seeds do the same work. (Permuting candidates is not work-preserving:
  // k-means pruning depends on candidate order, which moved work per
  // request by up to 10% between seeds.)
  size_t population;
  double ssd_mib_per_s;  // 0 keeps the device profile's bandwidth.
};

struct PopulationQuery {
  RerankRequest request;
  std::vector<size_t> relevant;
};

std::vector<PopulationQuery> MakePopulation(const ModelConfig& model, const EngineShape& shape) {
  const prism::SyntheticDataset data(prism::DatasetByName("beir-msmarco"), model, kDataSeed);
  std::vector<PopulationQuery> population;
  for (size_t i = 0; i < shape.population; ++i) {
    const prism::RerankQuery query = data.MakeQuery(i, shape.candidates);
    population.push_back({RerankRequest::FromQuery(query, shape.k), query.relevant});
  }
  return population;
}

// Drives one request through the carousel interface — BeginCarousel, Admit,
// Step per layer, TakeResult — with a span around each call.
RerankResult TracedRerank(PrismEngine* engine, const RerankRequest& request, SpanLog* log,
                          uint64_t id) {
  const ScopedSpan root(log, "request", id, -1);
  std::unique_ptr<CarouselPass> pass;
  {
    const ScopedSpan span(log, "core.begin_carousel", id, root.id());
    pass = engine->BeginCarousel();
  }
  std::unique_ptr<CarouselTicket> ticket;
  {
    const ScopedSpan span(log, "core.admit", id, root.id());
    ticket = pass->Admit(request);
  }
  while (!ticket->done()) {
    const size_t layer = ticket->next_layer();
    CarouselTicket* group[] = {ticket.get()};
    const ScopedSpan span(log, "core.step", id, root.id(), static_cast<int64_t>(layer));
    pass->Step(layer, group, nullptr);
  }
  RerankResult result;
  {
    const ScopedSpan span(log, "core.finalize", id, root.id());
    result = ticket->TakeResult();
  }
  {
    const ScopedSpan span(log, "core.end_carousel", id, root.id());
    ticket.reset();
    pass.reset();
  }
  return result;
}

// Standalone storage pass: streams every layer through a LayerStreamer with
// no compute, twice, so the per-layer load time is seen without overlap.
void StreamPasses(const std::string& checkpoint, const prism::SsdConfig& ssd, size_t n_layers,
                  SpanLog* log, uint64_t* next_id, JsonObject* counters) {
  auto reader = prism::BlobFileReader::Open(checkpoint, ssd);
  if (!reader.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", reader.status().ToString().c_str());
    std::exit(2);
  }
  std::vector<size_t> schedule;
  for (size_t layer = 0; layer < n_layers; ++layer) {
    schedule.push_back(prism::LayerBlobIndex(layer));
  }
  MemoryTracker scratch;
  std::vector<double> pass_ms;
  for (int rep = 0; rep < 2; ++rep) {
    const uint64_t id = (*next_id)++;
    const double start = NowUs();
    const ScopedSpan root(log, "storage.stream_pass", id, -1);
    prism::LayerStreamer streamer(reader.value().get(), schedule, 2, &scratch);
    for (size_t layer = 0; layer < n_layers; ++layer) {
      const ScopedSpan span(log, "storage.acquire", id, root.id(), static_cast<int64_t>(layer));
      streamer.Acquire(layer);
      streamer.Release(layer);
    }
    pass_ms.push_back((NowUs() - start) / 1000.0);
  }
  counters->Raw("stream_pass_ms", NumArray(pass_ms))
      .Int("stream_pass_layers", static_cast<int64_t>(n_layers));
}

// Declared so the engine is destroyed before the tracker it reports to.
struct Engine {
  std::unique_ptr<MemoryTracker> tracker;
  std::unique_ptr<PrismEngine> engine;
};

std::string RunEngineWorkload(const RunConfig& config, const EngineShape& shape) {
  const ModelConfig model = prism::Qwen3Reranker0_6B();
  double checkpoint_s = 0.0;
  const std::string checkpoint = WriteCheckpoint(model, config, &checkpoint_s);
  PrismOptions options;
  options.device = prism::NvidiaProfile();
  if (shape.ssd_mib_per_s > 0.0) {
    options.device.ssd.bandwidth_bytes_per_sec = shape.ssd_mib_per_s * 1024.0 * 1024.0;
  }
  const std::vector<PopulationQuery> population = MakePopulation(model, shape);

  auto build = [&] {
    auto e = std::make_unique<Engine>();
    e->tracker = std::make_unique<MemoryTracker>();
    e->engine = std::make_unique<PrismEngine>(model, checkpoint, options, e->tracker.get());
    return e;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    const double start = NowUs();
    engine = build();
    setup_s.push_back(SecondsSince(start));
  }
  if (config.setup_only) {
    return JsonObject().Raw("setup_s", NumArray(setup_s)).Close();
  }

  Rng order_rng(prism::MixSeed(config.seed, 0x0DE5));
  SpanLog log(config.trace);
  std::vector<std::string> records;
  std::vector<std::optional<RerankResult>> reference(population.size());
  size_t mismatches = 0;
  uint64_t next_id = 0;

  // Whole cycles of the population, so every phase serves each query
  // equally often. Another cycle starts only if it would end no more than
  // half a cycle past the phase length, which keeps the phase within half a
  // cycle of its nominal length.
  auto run_phase = [&](const char* phase, bool traced, Engine& e) {
    const double deadline = NowUs() + config.PhaseSeconds() * 1e6;
    size_t cycle = 0;
    double cycle_us = 0.0;
    do {
      const double cycle_start = NowUs();
      std::vector<size_t> order(population.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      Shuffle(&order, &order_rng);
      for (const size_t q : order) {
        const RerankRequest& request = population[q].request;
        const uint64_t id = next_id++;
        const double start = NowUs();
        RerankResult result = traced ? TracedRerank(e.engine.get(), request, &log, id)
                                     : e.engine->Rerank(request);
        const double end = NowUs();
        bool match = true;
        if (!reference[q].has_value()) {
          reference[q] = result;
        } else {
          match = SameBits(*reference[q], result);
        }
        mismatches += match ? 0 : 1;
        JsonObject rec;
        rec.Str("phase", phase)
            .Int("id", static_cast<int64_t>(id))
            .Int("cycle", static_cast<int64_t>(cycle))
            .Int("q", static_cast<int64_t>(q))
            .Num("sched_us", start)
            .Num("start_us", start)
            .Num("end_us", end)
            .Bool("ok", result.status.ok())
            .Bool("match", match)
            .Num("quality", prism::PrecisionAtK(result.topk, population[q].relevant, shape.k));
        AddStats(rec, model, request, result);
        records.push_back(rec.Close());
      }
      ++cycle;
      cycle_us = NowUs() - cycle_start;
    } while (NowUs() + 0.5 * cycle_us < deadline);
  };

  JsonObject counters;
  auto phase_counters = [&](const char* prefix, const Engine& e) {
    const prism::EmbeddingCacheStats embed =
        e.engine->embed_cache_stats().value_or(prism::EmbeddingCacheStats{});
    counters.Int(std::string(prefix) + "embed_hits", embed.hits)
        .Int(std::string(prefix) + "embed_misses", embed.misses)
        .Raw(std::string(prefix) + "mem_peak_bytes", MemPeaksJson(*e.tracker));
  };
  run_phase("untraced", false, *engine);
  phase_counters("", *engine);
  if (config.trace) {
    engine.reset();
    engine = build();
    run_phase("traced", true, *engine);
    phase_counters("traced_", *engine);
    StreamPasses(checkpoint, options.device.ssd, model.n_layers, &log, &next_id, &counters);
  }

  return JsonObject()
      .Raw("setup_s", NumArray(setup_s))
      .Num("checkpoint_s", checkpoint_s)
      .Int("population", static_cast<int64_t>(population.size()))
      .Int("k", static_cast<int64_t>(shape.k))
      .Int("n_layers", static_cast<int64_t>(model.n_layers))
      .Raw("requests", JsonArray(records))
      .Raw("counters", counters.Close())
      .Raw("checks", JsonObject().Int("bit_mismatches", static_cast<int64_t>(mismatches)).Close())
      .Raw("spans", SpansJson(log.Take()))
      .Close();
}

// ---------------------------------------------------------------------------
// rag_open_loop: ScenarioHarness(kRag) into a ResultCache in front of a
// carousel RerankService, first closed-loop (capacity), then open-loop
// Poisson arrivals at fixed rates.

constexpr size_t kRagQueries = 24;
// A sixth of the query universe: the hit ratio lands at 0.26-0.29, inside
// the 0.2-0.8 the workload is meant to have, and the median request stays a
// cache miss. With 3 entries it was 0.20-0.24 and fell below 0.2 on some
// seeds.
constexpr size_t kRagCacheEntries = 4;
constexpr size_t kLoadThreads = 4;
// Requests per Zipf quota in the closed-loop phase, four times the query
// universe: about 2 s of work on a 4-core host.
constexpr size_t kClosedQuota = 4 * kRagQueries;

// The span a timing wrapper should hang under, per load thread.
thread_local uint64_t tl_request = 0;
thread_local int64_t tl_parent = -1;

// A Runner that times each call into `inner` as a span and, when asked,
// keeps the counters the call returned.
class TimingRunner final : public prism::Runner {
 public:
  TimingRunner(prism::Runner* inner, const char* span, SpanLog* log, const ModelConfig* model)
      : inner_(inner), span_(span), log_(log), model_(model) {}

  RerankResult Rerank(const RerankRequest& request) override {
    const ScopedSpan span(log_, span_, tl_request, tl_parent);
    const int64_t saved = tl_parent;
    tl_parent = span.id();
    RerankResult result = inner_->Rerank(request);
    tl_parent = saved;
    if (model_ != nullptr) {
      JsonObject rec;
      rec.Int("req", static_cast<int64_t>(tl_request)).Bool("ok", result.status.ok());
      AddStats(rec, *model_, request, result);
      const std::lock_guard<std::mutex> lock(mu_);
      records_.push_back(rec.Close());
    }
    return result;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<std::string> TakeRecords() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(records_);
  }

 private:
  prism::Runner* inner_;
  const char* span_;
  SpanLog* log_;
  const ModelConfig* model_;
  std::mutex mu_;
  std::vector<std::string> records_;
};

struct RagStack {
  std::unique_ptr<MemoryTracker> tracker;
  std::unique_ptr<prism::RerankService> service;
  std::unique_ptr<TimingRunner> to_service;  // Traced phases only.
  std::unique_ptr<prism::ResultCache> cache;
  std::unique_ptr<TimingRunner> to_cache;  // Traced phases only.
};

// The query ids of `n` requests: each id appears in proportion to its Zipf
// weight (largest-remainder rounding), in a seeded order. A fixed mix keeps
// the result-cache hit ratio and the work per phase the same at every seed;
// sampling ids independently moved pooled p50 latency by 50% between seeds.
std::vector<size_t> ZipfQuota(size_t n, size_t universe, double skew, Rng& rng) {
  std::vector<double> weight(universe);
  double sum = 0.0;
  for (size_t i = 0; i < universe; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), skew);
    sum += weight[i];
  }
  std::vector<size_t> count(universe);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t i = 0; i < universe; ++i) {
    const double exact = static_cast<double>(n) * weight[i] / sum;
    count[i] = static_cast<size_t>(exact);
    assigned += count[i];
    remainder.emplace_back(exact - static_cast<double>(count[i]), i);
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (size_t r = 0; assigned < n; ++r, ++assigned) {
    ++count[remainder[r].second];
  }
  std::vector<size_t> ids;
  for (size_t i = 0; i < universe; ++i) {
    ids.insert(ids.end(), count[i], i);
  }
  Shuffle(&ids, &rng);
  return ids;
}

// Arrival instants (µs from phase start) of a Poisson process at `rate_hz`
// conditioned on its count: round(rate · span) sorted uniform instants, so
// every seed offers exactly the same load.
std::vector<double> ConditionedPoisson(double rate_hz, double span_s, Rng& rng) {
  const auto n = static_cast<size_t>(std::llround(rate_hz * span_s));
  std::vector<double> at(n);
  for (double& t : at) {
    t = rng.NextDouble() * span_s * 1e6;
  }
  std::sort(at.begin(), at.end());
  return at;
}

// Hands out the query ids of the closed-loop phase: whole Zipf quotas of
// kClosedQuota ids, each in its own seeded order, so every quota has the same
// mix. Another quota starts only if it would end no more than half a quota
// past `deadline_us`, like the engine workloads' cycles.
class QuotaFeed {
 public:
  QuotaFeed(uint64_t seed, double start_us, double deadline_us)
      : rng_(prism::MixSeed(seed, 0xC105)), start_us_(start_us), deadline_us_(deadline_us) {}

  // Sets `*qid` to the next query id; false once the phase is over.
  bool Next(size_t* qid) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (next_ == qids_.size()) {
      const double now = NowUs();
      const size_t quotas = qids_.size() / kClosedQuota;
      if (stopped_ ||
          (quotas > 0 && now + 0.5 * (now - start_us_) / static_cast<double>(quotas) >=
                             deadline_us_)) {
        stopped_ = true;
        return false;
      }
      const std::vector<size_t> quota = ZipfQuota(kClosedQuota, kRagQueries, 0.9, rng_);
      qids_.insert(qids_.end(), quota.begin(), quota.end());
    }
    *qid = qids_[next_++];
    return true;
  }

 private:
  std::mutex mu_;
  Rng rng_;
  const double start_us_;
  const double deadline_us_;
  std::vector<size_t> qids_;
  size_t next_ = 0;
  bool stopped_ = false;
};

std::string RunRag(const RunConfig& config) {
  // The 4-layer test model keeps one request near 40 ms, so a run serves about
  // 900 requests. With the 28-layer proxy a run served about 150 and pooled
  // p90 latency moved by 20-80% between seeds.
  const ModelConfig model = prism::TestModel();
  double checkpoint_s = 0.0;
  const std::string checkpoint = WriteCheckpoint(model, config, &checkpoint_s);
  // Fixed absolute offered rates (req/s): about 30%, 60% and 90% of the
  // closed-loop capacity with four clients (about 50 req/s on a 4-core
  // 2.1 GHz x86 host); see perfbench/README.md.
  const std::vector<double> rates = {15.0, 30.0, 45.0};
  const double phase_s = config.PhaseSeconds() / 2.0 / static_cast<double>(rates.size());

  // The RAG corpus and pipeline are the workload's generated input, like the
  // engine workloads' query population: built once, outside set-up timing,
  // and shared by every stack (ScenarioHarness::Run is const).
  prism::ScenarioOptions scenario;
  scenario.n_queries = kRagQueries;
  const prism::ScenarioHarness harness(prism::ScenarioKind::kRag, model, scenario);

  SpanLog log(config.trace);
  auto build = [&](bool traced) {
    auto stack = std::make_unique<RagStack>();
    RagStack& s = *stack;
    s.tracker = std::make_unique<MemoryTracker>();
    prism::ServiceOptions options;
    options.engine.device = prism::NvidiaProfile();
    options.scheduler = prism::SchedulerKind::kCarousel;
    options.max_inflight = 4;
    options.compute_threads = 4;
    s.service = std::make_unique<prism::RerankService>(model, checkpoint, options,
                                                       s.tracker.get());
    prism::Runner* inner = s.service.get();
    if (traced) {
      s.to_service = std::make_unique<TimingRunner>(inner, "core.service", &log, &model);
      inner = s.to_service.get();
    }
    prism::ResultCacheOptions cache_options;
    cache_options.capacity = kRagCacheEntries;
    cache_options.shards = 1;
    s.cache = std::make_unique<prism::ResultCache>(inner, cache_options);
    if (traced) {
      s.to_cache = std::make_unique<TimingRunner>(s.cache.get(), "serving.cache", &log, nullptr);
    }
    return stack;
  };
  std::vector<double> setup_s;
  std::unique_ptr<RagStack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const double start = NowUs();
    stack = build(false);
    setup_s.push_back(SecondsSince(start));
  }
  if (config.setup_only) {
    return JsonObject().Raw("setup_s", NumArray(setup_s)).Close();
  }
  // Reference selections from a single-client pass straight into the
  // engine, outside the set-up timing.
  const double baseline_start = NowUs();
  const std::vector<std::vector<size_t>> baseline =
      prism::BaselineSelections(harness, &stack->service->engine());
  const double baseline_s = SecondsSince(baseline_start);
  // The per-selection footprint: that pass serves one request at a time.
  const std::string serial_mem = MemPeaksJson(*stack->tracker);

  // The open-loop phases, after the closed-loop capacity phase (rate 0).
  Rng rng(prism::MixSeed(config.seed, 0x4A6A));
  struct Phase {
    double rate;
    std::vector<double> at;
    std::vector<size_t> qids;
  };
  std::vector<Phase> open_plan;
  for (const double rate : rates) {
    Phase p{rate, ConditionedPoisson(rate, phase_s, rng), {}};
    p.qids = ZipfQuota(p.at.size(), kRagQueries, 0.9, rng);
    open_plan.push_back(std::move(p));
  }
  const double closed_s = config.PhaseSeconds() / 2.0;

  std::vector<std::string> records;
  std::mutex records_mu;
  std::atomic<uint64_t> next_id{0};
  SpanLog off(false);
  // Runs phases from `kLoadThreads` threads. In the closed loop each thread
  // sends its next request as soon as its last one returns. In an open loop
  // each claims the next arrival, sleeps until it is due, and runs it;
  // latency counts from the due time, so a stall that delays later sends is
  // charged to them.
  auto run_phases = [&](const char* phase_name, RagStack& s, bool traced) {
    SpanLog* phase_log = traced ? &log : &off;
    prism::Runner* runner = traced ? static_cast<prism::Runner*>(s.to_cache.get())
                                   : static_cast<prism::Runner*>(s.cache.get());
    const auto embed_before =
        s.service->engine().embed_cache_stats().value_or(prism::EmbeddingCacheStats{});
    auto serve = [&](double rate, size_t qid, double due) {
      const uint64_t id = next_id++;
      tl_request = id;
      const double start = NowUs();
      prism::ScenarioOutcome outcome;
      {
        const ScopedSpan span(phase_log, "apps.run", id, -1);
        tl_parent = span.id();
        outcome = harness.Run(qid, runner);
        tl_parent = -1;
      }
      const double end = NowUs();
      const bool match = outcome.served && outcome.selection == baseline[qid];
      const std::string rec = JsonObject()
                                  .Str("phase", phase_name)
                                  .Int("id", static_cast<int64_t>(id))
                                  .Num("rate_hz", rate)
                                  .Int("q", static_cast<int64_t>(qid))
                                  .Num("sched_us", due)
                                  .Num("start_us", start)
                                  .Num("end_us", end)
                                  .Bool("ok", outcome.served)
                                  .Bool("shed", outcome.shed)
                                  .Bool("match", match)
                                  .Num("quality", outcome.quality)
                                  .Close();
      const std::lock_guard<std::mutex> lock(records_mu);
      records.push_back(rec);
    };
    auto on_threads = [](const std::function<void()>& body) {
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kLoadThreads; ++t) {
        threads.emplace_back(body);
      }
      for (std::thread& t : threads) {
        t.join();
      }
    };

    const double closed_start = NowUs();
    QuotaFeed feed(config.seed, closed_start, closed_start + closed_s * 1e6);
    on_threads([&] {
      for (size_t qid = 0; feed.Next(&qid);) {
        serve(0.0, qid, NowUs());
      }
    });
    for (const Phase& p : open_plan) {
      std::atomic<size_t> next{0};
      const double t0 = NowUs() + 1000.0;
      on_threads([&] {
        for (size_t i = next++; i < p.qids.size(); i = next++) {
          const double wait_us = t0 + p.at[i] - NowUs();
          if (wait_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int64_t>(wait_us)));
          }
          serve(p.rate, p.qids[i], t0 + p.at[i]);
        }
      });
    }
    const auto embed_after =
        s.service->engine().embed_cache_stats().value_or(prism::EmbeddingCacheStats{});
    const prism::ResultCacheStats cache = s.cache->stats();
    const prism::ServiceStats service = s.service->stats();
    prism::CarouselScheduler::Stats carousel;
    if (const auto* sched =
            dynamic_cast<const prism::CarouselScheduler*>(&s.service->scheduler())) {
      carousel = sched->stats();
    }
    return JsonObject()
        .Int("cache_lookups", static_cast<int64_t>(cache.lookups))
        .Int("cache_hits", static_cast<int64_t>(cache.hits + cache.similarity_hits))
        .Int("cache_coalesced", static_cast<int64_t>(cache.coalesced))
        .Int("carousel_cycles", static_cast<int64_t>(carousel.cycles))
        .Int("carousel_admitted", static_cast<int64_t>(carousel.admitted))
        .Int("carousel_exited_early", static_cast<int64_t>(carousel.exited_early))
        .Int("service_shed", static_cast<int64_t>(service.shed))
        .Int("service_errors", static_cast<int64_t>(service.errors))
        .Int("embed_hits", embed_after.hits - embed_before.hits)
        .Int("embed_misses", embed_after.misses - embed_before.misses)
        .Raw("mem_peak_bytes", MemPeaksJson(*s.tracker))
        .Close();
  };

  JsonObject phases;
  stack.reset();
  stack = build(false);
  phases.Raw("untraced", run_phases("untraced", *stack, false));
  std::vector<std::string> reranks;
  JsonObject counters;
  if (config.trace) {
    stack.reset();
    stack = build(true);
    phases.Raw("traced", run_phases("traced", *stack, true));
    reranks = stack->to_service->TakeRecords();
    uint64_t id = next_id;
    StreamPasses(checkpoint, prism::NvidiaProfile().ssd, model.n_layers, &log, &id, &counters);
  }
  return JsonObject()
      .Raw("setup_s", NumArray(setup_s))
      .Num("checkpoint_s", checkpoint_s)
      .Num("baseline_s", baseline_s)
      .Raw("serial_mem_peak_bytes", serial_mem)
      .Raw("rates_hz", NumArray(rates))
      .Num("phase_s", phase_s)
      .Int("n_layers", static_cast<int64_t>(model.n_layers))
      .Raw("requests", JsonArray(records))
      .Raw("reranks", JsonArray(reranks))
      .Raw("phases", phases.Close())
      .Raw("counters", counters.Close())
      .Raw("spans", SpansJson(log.Take()))
      .Close();
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "lone_rerank" || name == "slow_flash" || name == "rag_open_loop";
}

std::string RunNamedWorkload(const RunConfig& config) {
  if (config.workload == "lone_rerank") {
    return RunEngineWorkload(config, {.candidates = 20, .k = 10, .population = 8,
                                      .ssd_mib_per_s = 0.0});
  }
  if (config.workload == "slow_flash") {
    // Phone-class flash at the model zoo's 64x scale (the bandwidth the
    // scenario bench uses for its SSD-bound regime).
    return RunEngineWorkload(config, {.candidates = 4, .k = 2, .population = 12,
                                      .ssd_mib_per_s = 12.0});
  }
  return RunRag(config);
}

}  // namespace perfbench
