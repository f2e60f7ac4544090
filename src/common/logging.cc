#include "src/common/logging.h"

#include <cstdio>
#include <cstring>
#include <mutex>

#include "src/common/threading.h"

namespace sand {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_mutex;

char LevelChar(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarning:
      return 'W';
    case LogLevel::kError:
      return 'E';
    case LogLevel::kNone:
      return '-';
  }
  return '?';
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(static_cast<int>(level)); }

void LogLine(LogLevel level, const std::string& message) {
  // Monotonic seconds since process start + small thread id: the same
  // epoch and ids the tracer stamps on spans, so log lines and trace
  // events correlate directly.
  double ts = ToSeconds(SinceProcessStart());
  uint32_t tid = SmallThreadId();
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%c %.6f t%02u] %s\n", LevelChar(level), ts, tid, message.c_str());
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), enabled_(static_cast<int>(level) >= g_level.load()) {
  if (enabled_) {
    stream_ << Basename(file) << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    LogLine(level_, stream_.str());
  }
}

}  // namespace sand
