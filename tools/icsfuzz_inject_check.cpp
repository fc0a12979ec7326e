// icsfuzz-inject-check — probes what a target binary supports under the
// out-of-process execution contract and prints one JSON report.
//
//   # a native protocol speaker (the shim)
//   icsfuzz-inject-check -- icsfuzz-shim-target
//
//   # a stock binary under the LD_PRELOAD injection runtime
//   icsfuzz-inject-check --preload ./libicsfuzz-preload.so -- ./some-server
//
// The report answers, per target: did the fork-server handshake complete
// and at which protocol version; is persistent mode advertised and active;
// did a benign probe packet execute and with what classification; how many
// instrumentation events / nonzero coverage cells did it produce; and —
// via the inject-info block the preload runtime publishes into the shm
// segment — whether a SanitizerCoverage bridge is live and how many guards
// the target registered (docs/INJECTION.md describes the block).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "coverage/instrument.hpp"
#include "exec_oop/oop_executor.hpp"
#include "inject/inject_protocol.hpp"
#include "util/strings.hpp"

namespace {

using namespace icsfuzz;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] -- TARGET [ARGS...]\n"
               "  --preload PATH     spawn TARGET under the injection runtime"
               " (libicsfuzz-preload.so)\n"
               "  --timeout-ms N     probe execution deadline (default"
               " 2000)\n"
               "  --persistent K     request persistent mode with budget K"
               " (default off)\n",
               argv0);
  return 2;
}

std::size_t count_nonzero_cells(const std::uint64_t* words) {
  if (words == nullptr) return 0;
  std::size_t cells = 0;
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      cells += (word & 0xFF) != 0 ? 1 : 0;
      word >>= 8;
    }
  }
  return cells;
}

const char* json_bool(bool value) { return value ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  oop::OopExecutorConfig config;
  config.exec_timeout_ms = 2000;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "--preload") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      config.preload = v;
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      std::string error;
      const auto parsed = v != nullptr
                              ? parse_u64(v, "--timeout-ms", &error)
                              : std::nullopt;
      if (!parsed.has_value() || *parsed > INT32_MAX) {
        std::fprintf(stderr, "%s\n",
                     error.empty() ? "--timeout-ms: missing or out-of-range"
                                   : error.c_str());
        return 2;
      }
      config.exec_timeout_ms = static_cast<int>(*parsed);
    } else if (arg == "--persistent") {
      const char* v = next();
      std::string error;
      const auto parsed = v != nullptr
                              ? parse_u64(v, "--persistent", &error)
                              : std::nullopt;
      if (!parsed.has_value() || *parsed < 2 || *parsed > UINT32_MAX) {
        std::fprintf(stderr, "%s\n",
                     error.empty()
                         ? "--persistent: expected a budget of at least 2"
                         : error.c_str());
        return 2;
      }
      config.persistent_budget = static_cast<std::uint32_t>(*parsed);
    } else {
      return usage(argv[0]);
    }
  }
  for (; i < argc; ++i) config.target_cmd.emplace_back(argv[i]);
  if (config.target_cmd.empty()) return usage(argv[0]);

  oop::OutOfProcessExecutor executor(std::move(config));
  if (!executor.ensure_started()) {
    std::printf(
        "{\"tool\": \"inject-check\", \"started\": false, \"error\": "
        "\"%s\"}\n",
        executor.last_error().c_str());
    return 1;
  }

  // A benign probe: a well-formed 12-byte MBAP read request. Any target
  // that consumes stdin/slot bytes treats this as ordinary traffic; the
  // exact contents only matter for how much coverage it lights up.
  static const std::uint8_t kProbe[] = {0x00, 0x01, 0x00, 0x00, 0x00, 0x06,
                                        0x11, 0x03, 0x00, 0x6B, 0x00, 0x03};
  const oop::OutOfProcessExecutor::Outcome& outcome =
      executor.run(ByteSpan{kProbe, sizeof(kProbe)});

  const std::size_t cells = count_nonzero_cells(executor.map_words());
  const inject::InjectInfo info = inject::read_inject_info(
      executor.segment().data(), executor.segment().size());

  std::printf(
      "{\"tool\": \"inject-check\", \"started\": true, "
      "\"persistent_capable\": %s, \"persistent_active\": %s, "
      "\"probe_status\": \"%s\", \"term_signal\": %d, \"exit_code\": %d, "
      "\"events\": %llu, \"map_cells_nonzero\": %zu, "
      "\"inject_info\": {\"present\": %s, \"version\": %u, "
      "\"guard_count\": %u, \"sancov\": %s, \"persistent\": %s, "
      "\"tcp\": %s}}\n",
      json_bool(executor.server().persistent_capable()),
      json_bool(executor.persistent_active()),
      oop::to_string(outcome.status).c_str(), outcome.term_signal,
      outcome.exit_code,
      static_cast<unsigned long long>(outcome.aux.events), cells,
      json_bool(info.present), info.version, info.guard_count,
      json_bool(info.sancov()),
      json_bool((info.flags & inject::kInjectFlagPersistent) != 0),
      json_bool((info.flags & inject::kInjectFlagTcp) != 0));
  return 0;
}
