// Shared helpers for the icsfuzz test suite.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "coverage/coverage_map.hpp"
#include "coverage/dense_ref.hpp"
#include "coverage/instrument.hpp"
#include "protocols/protocol_target.hpp"
#include "sanitizer/fault.hpp"
#include "supervise/checkpoint.hpp"
#include "supervise/supervisor.hpp"
#include "util/checksum.hpp"

namespace icsfuzz::test {

// -- Process/environment helpers shared by the fork-server suites. --------

#ifdef ICSFUZZ_SHIM_PATH
/// argv for the fork-server shim serving `project` (CMake injects the
/// built binary's path into shim-linked suites).
inline std::vector<std::string> shim_cmd(
    const std::string& project = "libmodbus") {
  return {ICSFUZZ_SHIM_PATH, "--project", project};
}

/// argv for the loopback TCP *session* server over the same stacks.
inline std::vector<std::string> shim_tcp_cmd(const std::string& project) {
  return {ICSFUZZ_SHIM_PATH, "--project", project, "--tcp"};
}
#endif

/// Scoped environment knob: set for the executor spawned inside the test,
/// guaranteed cleared on exit so suites stay independent.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// -- Checkpoint log helpers (supervise/checkpoint.hpp, format v5). --------

/// After the header line, each record is [u64 payload length][u32 CRC-32 of
/// the payload][payload], and a payload opens with its kind: 'B' for a
/// base, 'S' for a segment.
inline constexpr std::string_view kCheckpointHeader = "icsfuzz-checkpoint v5\n";
inline constexpr std::size_t kCheckpointFrame = 12;

struct LogRecord {
  std::size_t begin = 0;  // frame start
  std::size_t end = 0;    // one past the payload
};

/// The log's whole records with a matching CRC, up to the first one that is
/// torn or mis-checksummed; none when the header is not a v5 one.
inline std::vector<LogRecord> intact_records(std::string_view log) {
  std::vector<LogRecord> records;
  if (!log.starts_with(kCheckpointHeader)) return records;
  std::size_t pos = kCheckpointHeader.size();
  while (log.size() - pos >= kCheckpointFrame) {
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, log.data() + pos, sizeof length);
    std::memcpy(&crc, log.data() + pos + sizeof length, sizeof crc);
    if (log.size() - pos - kCheckpointFrame < length ||
        crc32(ByteSpan(reinterpret_cast<const std::uint8_t*>(log.data()) +
                           pos + kCheckpointFrame,
                       length)) != crc) {
      break;
    }
    records.push_back({pos, pos + kCheckpointFrame + length});
    pos += kCheckpointFrame + length;
  }
  return records;
}

/// The canonical bytes of whatever `log` loads as ("" when rejected).
inline std::string loaded_image(std::string_view log) {
  const std::optional<supervise::CampaignCheckpoint> cp =
      supervise::parse_checkpoint(log);
  return cp ? supervise::serialize_checkpoint(*cp) : std::string();
}

/// Runs a W-worker campaign to completion the plain way: a supervisor with
/// no checkpoint image and the whole budget as one chunk.
inline par::ParallelCampaignResult run_parallel_campaign(
    fuzz::TargetFactory make_target, const model::DataModelSet& models,
    const par::ParallelCampaignConfig& campaign) {
  supervise::SupervisorConfig config;
  config.campaign = campaign;
  config.checkpoint_interval = 0;
  supervise::CampaignSupervisor supervisor(std::move(make_target), models,
                                           config);
  return supervisor.run().campaign;
}

// -- Socket helpers shared by the session/TCP suites. ---------------------

/// Binds + listens on an ephemeral 127.0.0.1 port. Returns the listening
/// fd (or -1) and fills `port` with the kernel-assigned port number.
inline int bind_ephemeral_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 8) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// Deadline-guarded loopback connect: nonblocking connect + poll, then the
/// socket is returned in blocking mode. -1 on refusal or deadline.
inline int connect_loopback_deadline(std::uint16_t port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    struct pollfd pfd {fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t errlen = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &errlen);
    if (soerr != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

/// RAII server thread: runs `body` on a fresh thread, joins on scope exit
/// (destruction blocks until the body returns — pair it with a shutdown
/// signal the body observes, e.g. closing the socket it serves).
class ServerThread {
 public:
  explicit ServerThread(std::function<void()> body)
      : thread_(std::move(body)) {}
  ~ServerThread() {
    if (thread_.joinable()) thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  std::thread thread_;
};

// -- Coverage-trace helpers shared by the sparse/SIMD/OOP suites. ---------

/// Bumps exactly the trace cell `cell` while tracing is armed, by solving
/// the instrumentation update rule for the needed block id:
/// hit(cell ^ prev) touches index (cell ^ prev) ^ prev == cell.
inline void emit_cell(std::uint32_t cell) {
  cov::hit(cell ^ cov::tls_prev_location);
}

/// One synthetic execution: the (cell, raw-count) multiset to emit.
using CellPattern = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Emits every (cell, count) of `pattern` through the armed trace.
inline void emit_pattern(const CellPattern& pattern) {
  for (const auto& [cell, count] : pattern) {
    for (std::uint32_t i = 0; i < count; ++i) emit_cell(cell);
  }
}

/// Every sparse-path kernel this build + CPU can actually dispatch to
/// (scalar first; the dense reference oracle is not among them).
inline std::vector<cov::simd::Kernel> runnable_kernels() {
  std::vector<cov::simd::Kernel> kernels = {cov::simd::Kernel::kScalar};
  if (cov::simd::ops_for(cov::simd::Kernel::kAVX2) != nullptr) {
    kernels.push_back(cov::simd::Kernel::kAVX2);
  }
  return kernels;
}

/// Checks the map's trace dirty list is complete and duplicate-free
/// (every nonzero trace word listed exactly once). Returns an empty
/// string on success, a diagnostic otherwise — assert with
/// ASSERT_EQ(dirty_list_defect(map), "").
inline std::string dirty_list_defect(const cov::CoverageMap& map) {
  std::vector<bool> listed(cov::kMapWords, false);
  for (std::uint32_t i = 0; i < map.dirty_word_count(); ++i) {
    const std::uint16_t w = map.dirty_words()[i];
    if (listed[w]) return "word " + std::to_string(w) + " listed twice";
    listed[w] = true;
  }
  for (std::size_t w = 0; w < cov::kMapWords; ++w) {
    const bool nonzero = cov::dense::load_word(map.trace(), w) != 0;
    if (nonzero != listed[w]) {
      return "word " + std::to_string(w) +
             (nonzero ? " nonzero but unlisted" : " listed but zero");
    }
  }
  return {};
}

struct ArmedRun {
  Bytes response;
  std::vector<san::FaultReport> faults;

  [[nodiscard]] bool crashed() const { return !faults.empty(); }
  [[nodiscard]] bool crashed_with(san::FaultKind kind) const {
    for (const san::FaultReport& fault : faults) {
      if (fault.kind == kind) return true;
    }
    return false;
  }
};

/// Runs one packet against a target with the fault sink armed (coverage
/// not traced), the way the executor would, and returns the observables.
inline ArmedRun run_armed(ProtocolTarget& target, const Bytes& packet) {
  target.reset();
  san::FaultSink::arm();
  ArmedRun run;
  run.response = target.process(ByteSpan(packet.data(), packet.size()));
  run.faults = san::FaultSink::disarm();
  return run;
}

/// Runs a packet with no expectation of faults; asserts cleanliness at the
/// call site via the returned flag.
inline Bytes run_clean(ProtocolTarget& target, const Bytes& packet,
                       bool* fault_free = nullptr) {
  ArmedRun run = run_armed(target, packet);
  if (fault_free != nullptr) *fault_free = !run.crashed();
  return run.response;
}

}  // namespace icsfuzz::test
