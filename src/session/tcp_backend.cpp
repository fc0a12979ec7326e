#include "session/tcp_backend.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/target_process.hpp"
#include "exec_oop/wake_word.hpp"
#include "inject/inject_protocol.hpp"
#include "session/framing.hpp"
#include "session/session_backend.hpp"
#include "session/session_wire.hpp"

namespace icsfuzz::session {

namespace {

constexpr fuzz::TransportFaults kTcpFaults{
    "tcp-session-deadline", "session", "tcp", "tcp-server-lost",
    "tcp session server"};

/// Reply-buffer growth step: the receive loop always offers recv() at
/// least this much room.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;
/// Reply bytes a session may send before it counts as broken: far above
/// what any served message answers, it only stops a server that writes
/// without end from growing the reply buffer until the deadline.
constexpr std::size_t kMaxReplyBytes = std::size_t{64} << 20;

/// RST close (SO_LINGER 0). A completed session's server resets the
/// connection itself (oop::abort_on_close), which leaves no TIME_WAIT
/// entry on either end; this covers the sessions the client abandons
/// first (deadline, dead server), whose orderly close would leave one on
/// the client's end.
void close_abortive(int fd) {
  struct linger lg {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
}

class TcpSessionBackend final : public fuzz::SyncExecBackend {
 public:
  TcpSessionBackend(const fuzz::ExecBackendConfig& config,
                    telem::Sink telemetry)
      : options_(config.session),
        telemetry_(telemetry),
        process_(config, oop::kTcpHelloMagic, inject::kInjectModeTcp) {}

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
    split_stream(options_.framing, packet, messages_);

    const oop::TargetProcess::Tallies before = process_.tallies();
    run_session(packet);
    fuzz::mirror_oop_telemetry(telemetry_, before, process_.tallies(),
                               outcome_, packet, timeout_ms(),
                               process_.config().jail);

    // Adopt the server's trace (from its dirty-word list when published) —
    // the empty trace when the session failed — fold the session's
    // responses in, then run the exact in-process analysis.
    const bool ok = outcome_.status == oop::ExecStatus::kOk;
    const std::uint8_t* slot_map = ok ? slot() : nullptr;
    fuzz::adopt_oop_trace(
        telemetry_, map, reinterpret_cast<const std::uint64_t*>(slot_map),
        ok ? slot_map + oop::kSlotDirtyListOffset : nullptr, ok);
    if (!ok) messages_.clear();  // folds as a session that never ran
    const ByteSpan replies(received_.data(), reply_bytes_);
    result.response.assign(replies.begin(), replies.end());
    result.response_truncated = false;
    fold_session(options_, packet, messages_, replies, responses_, map,
                 result, traffic_);
    const cov::TraceSummary summary = map.finalize_execution();
    fuzz::fill_outcome_faults(outcome_, kTcpFaults, timeout_ms(), last_error_,
                              result);
    return summary;
  }

 private:
  /// Runs one session and classifies it into outcome_. A server that is
  /// down before the session starts (never came up, died between sessions,
  /// refuses the connection) is respawned and the session retried under
  /// oop::kMaxRetries; once connected, the session's fate is the target's.
  void run_session(ByteSpan packet) {
    outcome_.status = oop::ExecStatus::kServerLost;
    outcome_.term_signal = 0;
    outcome_.exit_code = 0;
    outcome_.aux.events = 0;
    outcome_.aux.faults.clear();
    outcome_.aux.faults_truncated = false;
    reply_bytes_ = 0;
    for (int attempt = 0; attempt <= oop::kMaxRetries; ++attempt) {
      if (attempt == 1) process_.note_retry();
      if (!start_server()) continue;
      post_session();
      // One wall-clock deadline spans the whole session (the session is
      // one execution, for the hang accounting too).
      const std::uint64_t deadline =
          timeout_ms() > 0 ? oop::monotonic_ms() +
                                 static_cast<std::uint64_t>(timeout_ms())
                           : 0;
      const int conn = connect_deadline(deadline);
      if (conn < 0) {
        process_.stop();
        continue;
      }
      exchange(conn, packet, deadline);
      close_abortive(conn);
      return;
    }
  }

  bool start_server() {
    if (process_.running()) return true;
    // Fresh server, fresh segment: request numbering restarts.
    posted_ = 0;
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

  /// Posts the session as the next request in its slot, before the
  /// connection the server claims it at.
  void post_session() {
    oop::result_invalidate(slot() + oop::kSlotAuxOffset,
                           slot() + oop::kSlotDirtyListOffset);
    response_log_reset(slot());
    oop::HandoffBlock& block = oop::handoff_block(process_.segment().data());
    oop::HandoffRecord& record = oop::handoff_record(block, ++posted_);
    record.slot = kSessionSlot;
    record.exec_index = posted_;
    oop::bump_wake_waiter(&block.request, &block.request_waiting);
  }

  /// The pipelined exchange of one connected session. One poll loop sends
  /// the stream and half-closes once it is all sent, while it drains the
  /// reply stream until EOF; reading as it writes is what keeps a large
  /// session from deadlocking on full socket buffers in both directions.
  /// Then the wait for the session's handoff record, the aux block, and the
  /// split of the replies by the server's response log.
  void exchange(int conn, ByteSpan packet, std::uint64_t deadline) {
    // Exactly the prefix split_stream considers on both ends.
    const ByteSpan stream =
        packet.first(std::min(packet.size(), kMaxSessionStreamBytes));
    std::size_t sent = 0;
    std::size_t got = 0;
    bool writing = true;
    bool readable = false;  // drain replies until recv() would block
    for (;;) {
      if (writing) {
        const ssize_t n = ::send(conn, stream.data() + sent,
                                 stream.size() - sent, MSG_NOSIGNAL);
        if (n >= 0) {
          sent += static_cast<std::size_t>(n);
        } else if (errno != EAGAIN && errno != EINTR) {
          writing = false;  // the peer is gone; the read side says how
        }
        if (sent == stream.size()) {
          ::shutdown(conn, SHUT_WR);
          writing = false;
        }
      }
      int slice_ms = oop::kSyncWaitSliceMs;
      if (deadline != 0) {
        const std::uint64_t now = oop::monotonic_ms();
        if (now >= deadline) return broken(deadline, "tcp session deadline");
        slice_ms = static_cast<int>(
            std::min<std::uint64_t>(slice_ms, deadline - now));
      }
      if (!readable) {
        struct pollfd pfd {
          conn, static_cast<short>(writing ? POLLIN | POLLOUT : POLLIN), 0
        };
        const int ready = ::poll(&pfd, 1, slice_ms);
        if (ready < 0) {
          if (errno == EINTR) continue;
          return broken(deadline, "tcp session poll failed");
        }
        if (ready == 0) {
          // A slice that brought nothing: only now ask whether the server
          // is still there.
          if (process_.try_reap()) {
            return broken(deadline, "tcp session server died");
          }
          continue;
        }
        readable = (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
        if (!readable) continue;
      }
      if (got > kMaxReplyBytes) {
        return broken(deadline, "tcp session replies past the reply cap");
      }
      if (received_.size() - got < kReadChunk) {
        received_.resize(got + kReadChunk);
      }
      const ssize_t n =
          ::recv(conn, received_.data() + got, received_.size() - got, 0);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        break;  // EOF, or a reset: the reply stream has ended
      } else if (errno == EAGAIN) {
        readable = false;
      }
    }

    // The server completes the session's request before it closes the
    // connection, so this wait normally returns at once. A server that died
    // mid-session closed without completing it; the wait then ends at the
    // first quiet slice.
    oop::HandoffBlock& block = oop::handoff_block(process_.segment().data());
    oop::HandoffRecord& record = oop::handoff_record(block, posted_);
    if (!oop::sync_wait_counter(
            &block.wake,
            [&] { return oop::shared_load(record.done) == posted_ ? 1u : 0u; },
            1, deadline, [&] { return process_.try_reap(); },
            process_.spin_waits(), &block.wake_waiting)) {
      return broken(deadline, "tcp session never completed");
    }
    if (!oop::aux_load(slot() + oop::kSlotAuxOffset, oop::kAuxBytes,
                       outcome_.aux)) {
      last_error_ = "tcp session server published no aux block";
      process_.stop();
      return;
    }
    if (!split_replies(response_log(slot()), got)) {
      return broken(deadline, "tcp session replies disagree with the log");
    }
    outcome_.status = oop::ExecStatus::kOk;
  }

  /// The session's slot in the server's segment.
  [[nodiscard]] std::uint8_t* slot() {
    return process_.segment().data() + oop::slot_offset(kSessionSlot);
  }

  /// Splits the `got` reply bytes into per-message responses by the
  /// server's response log: entry i is message i's response, entries past
  /// the last message fold into it, and missing entries are empty. False
  /// unless the logged lengths sum to exactly the bytes read.
  bool split_replies(std::span<const std::uint32_t> log, std::size_t got) {
    std::uint64_t logged = 0;
    for (const std::uint32_t len : log) logged += len;
    if (logged != got) return false;
    responses_.resize(messages_.size());
    std::size_t offset = 0;
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const std::size_t len = i + 1 == responses_.size() ? got - offset
                              : i < log.size()           ? log[i]
                                                         : 0;
      responses_[i] = MessageRange{offset, len};
      offset += len;
    }
    reply_bytes_ = got;
    return true;
  }

  /// A session that broke off. A server that died is classified by its
  /// wait status with the fork server's rules (kOom / kCrash); a live one
  /// either missed the deadline (kHang) or lost the wire (kServerLost).
  /// The server is torn down either way.
  void broken(std::uint64_t deadline, const char* what) {
    const bool late = deadline != 0 && oop::monotonic_ms() >= deadline;
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

  [[nodiscard]] int remaining_ms(std::uint64_t deadline) const {
    if (deadline == 0) return -1;
    const std::uint64_t now = oop::monotonic_ms();
    return now >= deadline ? 0 : static_cast<int>(deadline - now);
  }

  int connect_deadline(std::uint64_t deadline) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      last_error_ = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
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
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    return fd;
  }

  /// The wall-clock deadline of one session (TargetConfig::exec_timeout_ms).
  [[nodiscard]] int timeout_ms() const {
    return process_.config().exec_timeout_ms;
  }

  SessionOptions options_;
  telem::Sink telemetry_;

  oop::TargetProcess process_;
  std::uint32_t port_ = 0;
  /// Sessions posted on this server: the last one's request number.
  std::uint32_t posted_ = 0;
  std::string last_error_;
  oop::OutOfProcessExecutor::Outcome outcome_;

  std::vector<MessageRange> messages_;
  /// The reply stream of the last session (only its first reply_bytes_
  /// are valid: the buffer keeps its high-water size across sessions) and
  /// the per-message responses inside it.
  Bytes received_;
  std::size_t reply_bytes_ = 0;
  std::vector<MessageRange> responses_;
  SessionTraffic traffic_;
};

}  // namespace

std::unique_ptr<fuzz::ExecBackend> make_tcp_session_backend(
    const fuzz::ExecBackendConfig& config, telem::Sink telemetry) {
  return std::make_unique<TcpSessionBackend>(config, telemetry);
}

}  // namespace icsfuzz::session
