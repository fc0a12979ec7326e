#include "session/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <span>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
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

/// One accepted connection = one session, through the shared session
/// lifecycle. Reassembles the request stream, serves each message into the
/// caller's reused `response` scratch, logs its length and queues it in the
/// reused `replies` buffer; returns once the client half-closes (EOF) or
/// the control pipe says shut down (`*shutdown`).
void serve_session(ProtocolTarget& target, Framing framing, int conn,
                   std::uint8_t* segment, oop::SessionMap& session,
                   const oop::FaultPlan& plan, Bytes& response,
                   Bytes& replies, bool* shutdown) {
  std::uint8_t* map = session.begin(segment, plan);

  // Same arming order as every other backend (reset, fault sink, trace) —
  // the differential oracle depends on the symmetry.
  target.reset();
  san::FaultSink::arm();
  cov::begin_trace(map);
  const cov::DirtyWordList& dirty = *cov::tls_dirty_words;

  const auto serve_message = [&](ByteSpan message) {
    response.clear();
    // A tripped sink models the server process having died on its first
    // fault: later messages of the session go unanswered. The in-process
    // session backend applies the identical guard.
    if (!san::FaultSink::tripped()) target.process_into(message, response);
    append(replies, ByteSpan(response));
    sync_log_append(segment, static_cast<std::uint32_t>(response.size()));
  };
  // The queued replies go out in one write per read chunk: a session that
  // arrives coalesced is answered with one write, and one that streams in
  // is answered as it streams, so a client that reads as it writes never
  // waits on replies the server is holding.
  replies.clear();
  const auto flush_replies = [&] {
    if (!replies.empty()) send_full(conn, replies.data(), replies.size());
    replies.clear();
  };

  StreamReassembler reassembler(framing, serve_message);
  std::uint8_t chunk[16384];
  for (;;) {
    // Read whatever has arrived; wait only when nothing has. The client
    // sends a session whole, so it is usually all there at accept.
    const ssize_t got = ::recv(conn, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      reassembler.feed(ByteSpan(chunk, static_cast<std::size_t>(got)));
      flush_replies();
      continue;
    }
    if (got == 0) break;  // EOF: the orderly end of the session
    if (errno == EINTR) continue;
    if (errno != EAGAIN) break;  // a reset or other error
    struct pollfd fds[2];
    fds[0] = {conn, POLLIN, 0};
    fds[1] = {oop::kCtlFd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0 && errno != EINTR) break;
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      *shutdown = true;  // client closed the control pipe mid-session
      break;
    }
  }

  // End of stream: the residue — an incomplete tail, a malformed-header
  // rest, or the post-cap raw tail — is the session's final message.
  const ByteSpan residue = reassembler.finish();
  if (!residue.empty()) serve_message(residue);
  flush_replies();

  oop::AuxResult result;
  result.events = cov::tls_event_count;
  cov::end_trace();
  san::FaultSink::disarm_into(result.faults);
  session.end(segment, dirty.indices, dirty.count, result);
}

}  // namespace

int run_tcp_session_server(ProtocolTarget& target, Framing framing,
                           const oop::FaultPlan& plan) {
  const std::span<std::uint8_t> segment =
      oop::attach_announced_segment(kTcpSegmentBytes);
  if (segment.empty()) return 3;
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

  static oop::SessionMap session;
  Bytes response;
  Bytes replies;

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
    bool shutdown = false;
    serve_session(target, framing, conn, segment.data(), session, plan,
                  response, replies, &shutdown);
    ::close(conn);
    if (shutdown) {
      ::close(listen_fd);
      return 0;
    }
  }
}

}  // namespace icsfuzz::session
