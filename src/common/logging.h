// Minimal leveled logger.
//
// SAND_LOG(kInfo) << "decoded " << n << " frames";
//
// The logger is process-global, thread-safe, and writes to stderr. Benches
// and tests lower the level to kWarning to keep output stable.

#ifndef SAND_COMMON_LOGGING_H_
#define SAND_COMMON_LOGGING_H_

#include <atomic>
#include <sstream>
#include <string>

namespace sand {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kNone = 4,
};

// Global threshold; messages below it are discarded.
void SetLogLevel(LogLevel level);

// Internal: emits one formatted line ("[I 12.345678 t03] message"): level,
// monotonic seconds since process start, small thread id — the same epoch
// and thread ids trace spans carry (src/common/threading.h), so log output
// correlates with captured traces.
void LogLine(LogLevel level, const std::string& message);

// Stream-style log statement builder; flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) {
      stream_ << value;
    }
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace sand

#define SAND_LOG(severity) \
  ::sand::LogMessage(::sand::LogLevel::severity, __FILE__, __LINE__)

#endif  // SAND_COMMON_LOGGING_H_
