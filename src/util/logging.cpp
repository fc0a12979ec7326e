#include "util/logging.hpp"

#include <cstdio>

namespace icsfuzz {
namespace {

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void log_line(LogLevel level, const std::string& message) {
  std::string line = "[icsfuzz ";
  line += level_tag(level);
  line += "] ";
  line += message;
  line += "\n";
  std::fputs(line.c_str(), stderr);
}

}  // namespace icsfuzz
