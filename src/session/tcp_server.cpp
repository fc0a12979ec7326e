#include "session/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shm_segment.hpp"
#include "sanitizer/fault.hpp"
#include "session/reassembler.hpp"
#include "session/session_wire.hpp"
#include "supervise/resource_jail.hpp"

namespace icsfuzz::session {

namespace {

/// MSG_NOSIGNAL exact send: a client that closed its read side must surface
/// as a short write, never as a process-killing SIGPIPE.
bool send_full(int fd, const std::uint8_t* data, std::size_t size) {
  while (size != 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// One accepted connection = one session. Reassembles the request stream,
/// serves each message, and publishes progress; returns once the client
/// half-closes (EOF) or the control pipe says shut down (`*shutdown`).
void serve_session(ProtocolTarget& target, Framing framing, int conn,
                   std::uint8_t* segment, cov::DirtyWordList& dirty,
                   std::uint64_t& served, std::uint64_t& sessions,
                   bool* shutdown) {
  // Pristine per-session map state: sparse-clear the previous session's
  // dirty words, invalidate the aux magic so a torn-down session is never
  // mistaken for a completed one.
  auto* words = reinterpret_cast<std::uint64_t*>(segment);
  for (std::uint32_t i = 0; i < dirty.count; ++i) words[dirty.indices[i]] = 0;
  dirty.count = 0;
  std::memset(segment + oop::kAuxOffset, 0, 4);

  // Same arming order as every other backend (reset, fault sink, trace) —
  // the differential oracle depends on the symmetry.
  target.reset();
  san::FaultSink::arm();
  cov::begin_trace(segment, &dirty);

  Bytes response;
  const auto serve_message = [&](ByteSpan message) {
    response.clear();
    // A tripped sink models the server process having died on its first
    // fault: later messages of the session go unanswered. The in-process
    // session backend applies the identical guard.
    if (!san::FaultSink::tripped()) target.process_into(message, response);
    if (!response.empty()) send_full(conn, response.data(), response.size());
    sync_publish_served(segment, ++served,
                        static_cast<std::uint32_t>(response.size()));
  };

  StreamReassembler reassembler(framing, serve_message);
  std::uint8_t chunk[4096];
  for (;;) {
    struct pollfd fds[2];
    fds[0] = {conn, POLLIN, 0};
    fds[1] = {oop::kCtlFd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      *shutdown = true;  // client closed the control pipe mid-session
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t got = ::read(conn, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF (orderly end of session) or error
    reassembler.feed(ByteSpan(chunk, static_cast<std::size_t>(got)));
  }

  // End of stream: the residue — an incomplete tail, a malformed-header
  // rest, or the post-cap raw tail — is the session's final message.
  const ByteSpan residue = reassembler.finish();
  if (!residue.empty()) serve_message(residue);

  oop::AuxResult result;
  result.events = cov::tls_event_count;
  cov::end_trace();
  san::FaultSink::disarm_into(result.faults);
  oop::aux_store(segment + oop::kAuxOffset, oop::kAuxBytes, result);
  sync_publish_session_done(segment, ++sessions);
}

}  // namespace

int run_tcp_session_server(ProtocolTarget& target, Framing framing,
                           const oop::ShimFaultPlan& plan) {
  oop::ShmSegment segment = oop::attach_announced_segment(kTcpSegmentBytes);
  if (!segment.valid()) return 3;
  // This process runs every session itself, so the resource jail applies
  // to it: an allocation past the cap ends the server with kOomExitCode,
  // which the client classifies from the wait status.
  supervise::apply_in_child(supervise::jail_from_env());

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return 8;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the kernel picks, the hello announces
  socklen_t addr_len = sizeof addr;
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd, 16) != 0 ||
      ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(listen_fd);
    return 8;
  }

  const std::uint32_t hello[2] = {oop::kTcpHelloMagic,
                                  static_cast<std::uint32_t>(
                                      ntohs(addr.sin_port))};
  if (!oop::write_full(oop::kStFd, hello, sizeof hello)) {
    ::close(listen_fd);
    return 4;
  }

  // The whole-map memset runs once; later sessions sparse-clear through
  // the dirty list (the begin_execution analogue).
  std::memset(segment.data(), 0, cov::kMapSize);
  static cov::DirtyWordList dirty;
  dirty.count = 0;
  std::uint64_t served = 0;
  std::uint64_t sessions = 0;
  std::uint64_t accepted = 0;

  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {oop::kCtlFd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      ::close(listen_fd);
      return 8;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ::close(listen_fd);  // control-pipe EOF: orderly shutdown
      return 0;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    // Fault-plan hooks, keyed on the session index: the server dies (or
    // hangs) with the client already connected, i.e. mid-session.
    ++accepted;
    if (plan.server_exit_at != 0 && accepted == plan.server_exit_at) return 9;
    oop::trip_execution_faults(plan, accepted);

    bool shutdown = false;
    serve_session(target, framing, conn, segment.data(), dirty, served,
                  sessions, &shutdown);
    ::close(conn);
    if (shutdown) {
      ::close(listen_fd);
      return 0;
    }
  }
}

}  // namespace icsfuzz::session
