// perfbench: runs one workload of the repository benchmark and writes its
// raw record (JSON) to --out. perfbench/run.py builds this binary, runs it,
// checks the outputs and reduces the record to metrics.
//
//   perfbench --workload=lone_rerank --seed=1 --seconds=10 --trace=0
//             --out=record.json --work_dir=DIR [--setup_only=1]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --out=PATH --work_dir=DIR [--setup_only=0|1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    char* end = nullptr;
    if (Flag(arg, "workload", &v)) {
      config.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      config.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        return Usage("--seed must be a whole number");
      }
    } else if (Flag(arg, "seconds", &v)) {
      config.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(config.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (Flag(arg, "trace", &v)) {
      if (v != "0" && v != "1") {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = v == "1";
    } else if (Flag(arg, "setup_only", &v)) {
      if (v != "0" && v != "1") {
        return Usage("--setup_only must be 0 or 1");
      }
      config.setup_only = v == "1";
    } else if (Flag(arg, "out", &v)) {
      out_path = v;
    } else if (Flag(arg, "work_dir", &v)) {
      config.work_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::KnownWorkload(config.workload)) {
    return Usage("unknown --workload");
  }
  if (out_path.empty() || config.work_dir.empty()) {
    return Usage("--out and --work_dir are required");
  }

  const std::string record = perfbench::JsonObject()
                                 .Str("workload", config.workload)
                                 .Int("seed", static_cast<int64_t>(config.seed))
                                 .Num("seconds", config.seconds)
                                 .Bool("trace", config.trace)
                                 .Str("compiler", __VERSION__)
                                 .Str("build_type", PERFBENCH_BUILD_TYPE)
                                 .Raw("run", perfbench::RunNamedWorkload(config))
                                 .Close();
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr || std::fputs(record.c_str(), out) < 0 || std::fclose(out) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
