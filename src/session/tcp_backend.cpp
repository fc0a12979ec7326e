#include "session/tcp_backend.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/target_process.hpp"
#include "inject/inject_protocol.hpp"
#include "session/framing.hpp"
#include "session/session_state.hpp"
#include "session/session_wire.hpp"

namespace icsfuzz::session {

namespace {

std::uint64_t monotonic_ms() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

bool send_full(int fd, const std::uint8_t* data, std::size_t size) {
  while (size != 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd pfd {fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        continue;
      }
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// RST close (SO_LINGER 0): one connection per session must not pile up
/// TIME_WAIT entries at campaign execution rates.
void close_abortive(int fd) {
  struct linger lg {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
}

class TcpSessionBackend final : public fuzz::ExecBackend {
 public:
  TcpSessionBackend(const fuzz::ExecBackendConfig& config,
                    bool dense_reference, telem::Sink telemetry)
      : options_(config.session),
        exec_timeout_ms_(config.exec_timeout_ms),
        dense_(dense_reference),
        telemetry_(telemetry),
        process_({.argv = config.target_cmd,
                  .segment_bytes = kTcpSegmentBytes,
                  .hello_magic = oop::kTcpHelloMagic,
                  .inject_mode = inject::kInjectModeTcp,
                  .preload = config.preload,
                  .jail = config.jail,
                  .retry = config.retry,
                  .handshake_timeout_ms = config.handshake_timeout_ms}) {}

  [[nodiscard]] fuzz::BackendKind kind() const override {
    return fuzz::BackendKind::kTcp;
  }

  [[nodiscard]] const SessionTraffic* traffic() const override {
    return options_.record_traffic ? &traffic_ : nullptr;
  }

  [[nodiscard]] const oop::TargetProcess* target_process() const override {
    return &process_;
  }

  cov::TraceSummary execute(ProtocolTarget& /*target*/, ByteSpan packet,
                            cov::CoverageMap& map,
                            fuzz::ExecResult& result) override {
    const std::size_t residue_index =
        split_stream(options_.framing, packet, ranges_);
    responses_.resize(ranges_.size());
    if (options_.record_traffic) traffic_.clear();

    const oop::TargetProcess::Tallies before = process_.tallies();
    run_session(packet, residue_index);
    fuzz::mirror_oop_telemetry(telemetry_, before, process_.tallies(),
                               outcome_, packet, exec_timeout_ms_,
                               process_.config().jail);
    if (outcome_.status != oop::ExecStatus::kOk) return fail(map, result);

    // Adopt the server's trace, inject the client-computed session-state
    // cells, then run the exact in-process analysis.
    map.adopt_external(
        reinterpret_cast<const std::uint64_t*>(process_.segment().data()));
    result.response.clear();
    result.session_states.clear();
    std::uint32_t state = kInitialSessionState;
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      append(result.response, ByteSpan(responses_[i]));
      state = next_session_state(
          state, classify_response(options_.framing, ByteSpan(responses_[i])),
          i);
      result.session_states.push_back(state);
    }
    if (options_.state_coverage) {
      for (const std::uint32_t s : result.session_states) {
        map.bump_trace_cell(session_state_cell(s));
      }
    }
    if (options_.record_traffic) {
      for (std::size_t i = 0; i < ranges_.size(); ++i) {
        const std::uint8_t* data = packet.data() + ranges_[i].offset;
        traffic_.requests.emplace_back(data, data + ranges_[i].length);
        traffic_.responses.push_back(responses_[i]);
      }
    }
    result.session_messages = static_cast<std::uint32_t>(ranges_.size());

    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();
    const oop::AuxResult& aux = outcome_.aux;
    result.events = aux.events;
    result.faults.assign(aux.faults.begin(), aux.faults.end());
    result.response_truncated = false;
    if (aux.faults_truncated) {
      result.faults.push_back(san::FaultReport{
          san::FaultKind::Segv, san::site_id("oop-aux-faults-truncated"),
          "fault reports overflowed the shared-memory aux block"});
    }
    return summary;
  }

 private:
  /// Runs one session and classifies it into outcome_. A server that is
  /// down before the session starts (never came up, died between sessions,
  /// refuses the connection) is respawned and the session retried under
  /// the RetryPolicy; once connected, the session's fate is the target's.
  void run_session(ByteSpan packet, std::size_t residue_index) {
    outcome_.status = oop::ExecStatus::kServerLost;
    outcome_.term_signal = 0;
    outcome_.exit_code = 0;
    for (int attempt = 0; attempt <= process_.config().retry.max_retries;
         ++attempt) {
      if (attempt == 1) process_.note_retry();
      if (!start_server()) continue;
      // One wall-clock deadline spans the whole session (the session is
      // one execution, for the hang accounting too).
      const std::uint64_t deadline =
          exec_timeout_ms_ > 0
              ? monotonic_ms() + static_cast<std::uint64_t>(exec_timeout_ms_)
              : 0;
      const int conn = connect_deadline(deadline);
      if (conn < 0) {
        process_.stop();
        continue;
      }
      exchange(conn, packet, residue_index, deadline);
      close_abortive(conn);
      return;
    }
  }

  bool start_server() {
    if (process_.running()) return true;
    // Fresh server, fresh wire state: the sync counters restart at zero
    // with the new process, so the client's expectations must too.
    served_seen_ = 0;
    sessions_seen_ = 0;
    if (!process_.ensure_started()) {
      last_error_ = process_.error();
      return false;
    }
    port_ = process_.hello_word();
    if (port_ == 0 || port_ > 0xFFFF) {
      last_error_ = "tcp session hello announced no port";
      process_.stop();
      return false;
    }
    return true;
  }

  /// The lockstep message exchange of one connected session.
  void exchange(int conn, ByteSpan packet, std::size_t residue_index,
                std::uint64_t deadline) {
    std::uint8_t* segment = process_.segment().data();
    const std::uint64_t base_served = served_seen_;
    bool wrote_shutdown = false;
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      if (!send_full(conn, packet.data() + ranges_[i].offset,
                     ranges_[i].length)) {
        return broken(deadline, "tcp session send failed");
      }
      if (i == residue_index) {
        // The server can only complete the residue at EOF — half-close
        // BEFORE waiting for its ack or the session deadlocks.
        ::shutdown(conn, SHUT_WR);
        wrote_shutdown = true;
      }
      if (!wait_counter([&] { return sync_load_served(segment); },
                        base_served + i + 1, deadline)) {
        return broken(deadline, "tcp session server stopped answering");
      }
      const std::uint32_t len = sync_load_response_len(segment);
      Bytes& response = responses_[i];
      response.resize(len);
      if (len != 0 &&
          oop::read_full_deadline(conn, response.data(), len,
                                  remaining_ms(deadline)) !=
              oop::ReadStatus::kOk) {
        return broken(deadline, "tcp session response read failed");
      }
    }
    if (!wrote_shutdown) ::shutdown(conn, SHUT_WR);
    if (!wait_counter([&] { return sync_load_sessions_done(segment); },
                      sessions_seen_ + 1, deadline)) {
      return broken(deadline, "tcp session never completed");
    }
    ++sessions_seen_;
    served_seen_ = base_served + ranges_.size();
    if (!oop::aux_load(segment + oop::kAuxOffset, oop::kAuxBytes,
                       outcome_.aux)) {
      last_error_ = "tcp session server published no aux block";
      process_.stop();
      return;
    }
    process_.note_answered();
    outcome_.status = oop::ExecStatus::kOk;
  }

  /// A session that broke off. A server that died is classified by its
  /// wait status with the fork server's rules (kOom / kCrash); a live one
  /// either missed the deadline (kHang) or lost the wire (kServerLost).
  /// The server is torn down either way.
  void broken(std::uint64_t deadline, const char* what) {
    const bool late = deadline != 0 && monotonic_ms() >= deadline;
    // A dying server's EOF can race its exit status by a hair.
    if (late ? process_.try_reap() : process_.reap_within(500)) {
      oop::classify_termination(process_.wait_status(), /*completed=*/false,
                                outcome_);
    } else if (late) {
      outcome_.status = oop::ExecStatus::kHang;
    } else {
      last_error_ = what;
    }
    process_.stop();
  }

  /// Transport failure: the map still runs one (empty) trace cycle so the
  /// campaign-lifetime analysis stays uniform, and the failure surfaces as
  /// a synthetic fault exactly like the fork-server transport's.
  cov::TraceSummary fail(cov::CoverageMap& map, fuzz::ExecResult& result) {
    map.adopt_external(nullptr);
    const cov::TraceSummary summary =
        dense_ ? map.finalize_execution_dense() : map.finalize_execution();
    result.events = 0;
    result.faults.clear();
    switch (outcome_.status) {
      case oop::ExecStatus::kHang:
        result.faults.push_back(san::FaultReport{
            san::FaultKind::Hang, san::site_id("tcp-session-deadline"),
            "session exceeded the " + std::to_string(exec_timeout_ms_) +
                " ms tcp deadline"});
        break;
      case oop::ExecStatus::kServerLost:
        result.faults.push_back(san::FaultReport{
            san::FaultKind::Segv, san::site_id("tcp-server-lost"),
            "tcp session server unreachable: " + last_error_});
        break;
      default:
        result.faults.push_back(fuzz::target_death_fault(outcome_));
        break;
    }
    result.response.clear();
    result.response_truncated = false;
    result.session_states.clear();
    result.session_messages = 0;
    return summary;
  }

  [[nodiscard]] int remaining_ms(std::uint64_t deadline) const {
    if (deadline == 0) return -1;
    const std::uint64_t now = monotonic_ms();
    return now >= deadline ? 0 : static_cast<int>(deadline - now);
  }

  /// Polls a shm counter up to the deadline: a short busy-spin for the
  /// common sub-millisecond reply, then a sleeping loop that also watches
  /// the server — one that died mid-session ends the wait at once.
  template <typename Load>
  bool wait_counter(Load load, std::uint64_t expected,
                    std::uint64_t deadline) {
    for (int spin = 0; spin < 4096; ++spin) {
      if (load() >= expected) return true;
    }
    while (deadline == 0 || monotonic_ms() < deadline) {
      if (load() >= expected) return true;
      if (process_.try_reap()) return false;
      ::usleep(100);
    }
    return load() >= expected;
  }

  int connect_deadline(std::uint64_t deadline) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      last_error_ = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    const int flags = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (errno != EINPROGRESS) {
        last_error_ = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
      }
      struct pollfd pfd {fd, POLLOUT, 0};
      if (::poll(&pfd, 1, remaining_ms(deadline)) <= 0) {
        last_error_ = "connect deadline";
        ::close(fd);
        return -1;
      }
      int soerr = 0;
      socklen_t len = sizeof soerr;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        last_error_ = std::string("connect: ") + std::strerror(soerr);
        ::close(fd);
        return -1;
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for the send path
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    return fd;
  }

  SessionOptions options_;
  int exec_timeout_ms_;
  bool dense_;
  telem::Sink telemetry_;

  oop::TargetProcess process_;
  std::uint32_t port_ = 0;
  std::uint64_t served_seen_ = 0;
  std::uint64_t sessions_seen_ = 0;
  std::string last_error_;
  oop::OutOfProcessExecutor::Outcome outcome_;

  std::vector<MessageRange> ranges_;
  std::vector<Bytes> responses_;
  SessionTraffic traffic_;
};

}  // namespace

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, bool dense_reference,
    telem::Sink telemetry) {
  return std::make_unique<TcpSessionBackend>(config, dense_reference,
                                             telemetry);
}

}  // namespace icsfuzz::session
