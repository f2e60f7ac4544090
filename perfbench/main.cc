// datapath_bench: runs one data-path workload and prints its report as one
// JSON object on the last line of stdout. run.py builds and invokes it;
// it can also be run by hand:
//
//   datapath_bench --workload warm_remote --seed 1 --seconds 10 --trace 0

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
               "          [--trace-out FILE]\n"
               "workloads:",
               argv0);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      Usage(argv[0]);
    }
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (options.seconds <= 0) {
    Usage(argv[0]);
  }
  sand::SetLogLevel(sand::LogLevel::kWarning);
  perfbench::Report report;
  if (!perfbench::RunWorkload(options, report)) {
    Usage(argv[0]);
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return 0;
}
