#include "sysstat.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

ProcUsage ReadProcUsage() {
  ProcUsage usage;
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) {
    return usage;
  }
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 + static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  usage.cpu_ns = ns(ru.ru_utime) + ns(ru.ru_stime);
  usage.voluntary_ctx = ru.ru_nvcsw;
  usage.involuntary_ctx = ru.ru_nivcsw;
  usage.max_rss_kib = ru.ru_maxrss;
  return usage;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line) || line.rfind("cpu ", 0) != 0) {
    return cpu;
  }
  // cpu user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already included in user/nice, so it is not summed.
  std::istringstream fields(line.substr(4));
  uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    cpu.total += value;
    if (i == 7) {
      cpu.steal = value;
    }
  }
  return cpu;
}

double StealPercent(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
