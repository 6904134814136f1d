// The benchmark's three workloads, driven from outside the program: every
// measurement is a timed call into a public PRISM function or a counter that
// call returned. See perfbench/README.md for why each workload exists.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced runs measure an untraced phase and then a traced phase of the
  // same inputs, so the record carries both and the tracing overhead. Each
  // phase gets half of `seconds`, so a traced run takes as long as an
  // untraced one.
  bool trace = false;

  // How long each measured phase runs.
  double PhaseSeconds() const { return trace ? seconds / 2.0 : seconds; }
  // Checkpoints are written here (inside the checkout's build directory).
  std::string work_dir;
  // Stop after timing set-up and return only the set-up samples.
  bool setup_only = false;
};

bool KnownWorkload(const std::string& name);

// Runs one workload and returns its raw record, a JSON object: set-up
// samples, per-request records, spans, counters and correctness checks.
std::string RunNamedWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
