// Minimal leveled logger. Campaigns run millions of executions, so only
// Warn and above are emitted.
#pragma once

#include <sstream>
#include <string>

namespace icsfuzz {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// The minimum level; messages below it are discarded.
inline constexpr LogLevel kLogLevel = LogLevel::Warn;

/// Emits one line to stderr with a level tag. Thread-compatible (single
/// writer per line via local buffering).
void log_line(LogLevel level, const std::string& message);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() {
    if (level_ >= kLogLevel) log_line(level_, stream_.str());
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

#define ICSFUZZ_LOG_DEBUG ::icsfuzz::detail::LogStream(::icsfuzz::LogLevel::Debug)
#define ICSFUZZ_LOG_INFO ::icsfuzz::detail::LogStream(::icsfuzz::LogLevel::Info)
#define ICSFUZZ_LOG_WARN ::icsfuzz::detail::LogStream(::icsfuzz::LogLevel::Warn)
#define ICSFUZZ_LOG_ERROR ::icsfuzz::detail::LogStream(::icsfuzz::LogLevel::Error)

}  // namespace icsfuzz
