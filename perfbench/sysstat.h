// Process and host counters read around a measured window: process CPU,
// context switches and peak RSS (getrusage), and host steal time
// (/proc/stat). Steal is recorded beside every run so a slow run on a busy
// host can be told apart from a program regression.

#ifndef SAND_PERFBENCH_SYSSTAT_H_
#define SAND_PERFBENCH_SYSSTAT_H_

#include <cstdint>

namespace perfbench {

struct ProcUsage {
  int64_t cpu_ns = 0;  // user + system CPU of the whole process
  int64_t voluntary_ctx = 0;
  int64_t involuntary_ctx = 0;
  int64_t max_rss_kib = 0;  // peak resident set since process start
};

ProcUsage ReadProcUsage();

// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};

// Zeros when /proc/stat is unreadable.
HostCpu ReadHostCpu();

// Steal ticks as a percentage of all ticks between two readings.
double StealPercent(const HostCpu& before, const HostCpu& after);

// Monotonic nanoseconds (steady clock).
int64_t NowNs();

}  // namespace perfbench

#endif  // SAND_PERFBENCH_SYSSTAT_H_
