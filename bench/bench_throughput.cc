// Serving throughput: serial vs. carousel scheduler under concurrent load.
//
// N client threads hammer one RerankService; we compare the default
// SerialScheduler (max_inflight=1, the paper's single-request deployment)
// against the CarouselScheduler (max_inflight>=4, picked by the default
// `auto` scheduler), whose resident requests share one cyclic layer stream —
// each streamed layer is fetched once for every in-flight request and
// per-request compute fans out across cores. Reported: requests/sec plus
// client-observed p50/p99 latency (queueing included). Results are
// bit-identical across schedulers, so the comparison is pure throughput.
//
// The default workload sits in the regime PRISM targets (few candidates per
// request, weights streamed from SSD), where layer-load amortisation alone
// beats serial scheduling even on a single core. Larger --candidates shift
// the bottleneck to per-layer compute; the carousel's win then comes from
// the compute pool and needs a multi-core host to show up.
//
// Flags: --model=Qwen3-Reranker-0.6B --device=nvidia|apple --clients=8
//        --requests=48 --candidates=4 --k=2 --max_inflight=4
//        --compute_threads=0 (0 = max(cores, max_inflight)) --threshold=0.40
#include <cstdio>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/service.h"

namespace prism {
namespace {

struct LoadRun {
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<std::vector<size_t>> topks;
};

LoadRun RunLoad(RerankService* service, const std::vector<BenchCase>& cases, size_t clients,
                size_t total_requests) {
  std::vector<std::vector<size_t>> topks(total_requests);
  std::atomic<size_t> next{0};
  const WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      size_t i;
      while ((i = next.fetch_add(1)) < total_requests) {
        const RerankResult result = service->Rerank(cases[i % cases.size()].request);
        topks[i] = result.topk;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  LoadRun run;
  run.wall_seconds = wall.ElapsedSeconds();
  run.requests_per_sec = static_cast<double>(total_requests) / run.wall_seconds;
  const ServiceStats stats = service->stats();
  run.p50_ms = stats.P50LatencyMs();
  run.p99_ms = stats.P99LatencyMs();
  run.topks = std::move(topks);
  return run;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const ModelConfig model = ModelByName(flags.GetString("model", "Qwen3-Reranker-0.6B"));
  const DeviceProfile device = DeviceByName(flags.GetString("device", "nvidia"));
  const size_t clients = static_cast<size_t>(flags.GetInt("clients", 8));
  const size_t total_requests = static_cast<size_t>(flags.GetInt("requests", 48));
  const size_t candidates = static_cast<size_t>(flags.GetInt("candidates", 4));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 2));
  const size_t max_inflight = static_cast<size_t>(flags.GetInt("max_inflight", 4));
  const size_t compute_threads = static_cast<size_t>(flags.GetInt("compute_threads", 0));
  const float threshold = static_cast<float>(flags.GetDouble("threshold", kThresholdHigh));

  PrintHeader("Serving throughput — serial vs. carousel scheduler (" + model.name + ", " +
              device.name + ", " + std::to_string(clients) + " clients, " +
              std::to_string(total_requests) + " requests of " + std::to_string(candidates) +
              " candidates)");

  const auto cases = MakeCases(model, "wikipedia", /*queries=*/8, candidates, k);
  const std::string checkpoint = EnsureCheckpoint(model, kBenchSeed);

  auto run_mode = [&](size_t inflight) {
    MemoryTracker::Global().Reset();
    ServiceOptions options;
    options.engine.device = device;
    options.engine.dispersion_threshold = threshold;
    options.max_inflight = inflight;
    options.compute_threads = compute_threads;
    RerankService service(model, checkpoint, options);
    return RunLoad(&service, cases, clients, total_requests);
  };

  const LoadRun serial = run_mode(1);
  const LoadRun carousel = run_mode(max_inflight);

  std::printf("%-28s %10s %12s %10s %10s\n", "scheduler", "wall s", "req/s", "p50 ms",
              "p99 ms");
  std::printf("%-28s %10.2f %12.2f %10.2f %10.2f\n", "serial (max_inflight=1)",
              serial.wall_seconds, serial.requests_per_sec, serial.p50_ms, serial.p99_ms);
  const std::string carousel_name =
      "carousel (max_inflight=" + std::to_string(max_inflight) + ")";
  std::printf("%-28s %10.2f %12.2f %10.2f %10.2f\n", carousel_name.c_str(),
              carousel.wall_seconds, carousel.requests_per_sec, carousel.p50_ms,
              carousel.p99_ms);
  std::printf("\nthroughput speedup: %.2fx\n",
              carousel.requests_per_sec / serial.requests_per_sec);

  // Sanity: sharing the layer stream must not change any result.
  size_t mismatches = 0;
  for (size_t i = 0; i < serial.topks.size(); ++i) {
    if (serial.topks[i] != carousel.topks[i]) {
      ++mismatches;
    }
  }
  std::printf("result mismatches vs serial: %zu (expected 0)\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) { return prism::Main(argc, argv); }
