#include "session/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <span>
#include <vector>

#include "coverage/instrument.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "sanitizer/fault.hpp"
#include "session/session_backend.hpp"
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

/// The reused buffers of the session loop.
struct SessionBuffers {
  Bytes stream;
  std::vector<MessageRange> messages;
  Bytes scratch;
  Bytes replies;
  std::vector<MessageRange> responses;
};

/// Reads the session stream to EOF into `stream`: the considered prefix of
/// at most kMaxSessionStreamBytes, with any bytes past it read and
/// dropped. Returns false when the control pipe closed first (the client
/// is shutting the server down).
bool read_session(int conn, Bytes& stream) {
  stream.clear();
  std::uint8_t chunk[16384];
  for (;;) {
    // Read whatever has arrived; wait only when nothing has. The client
    // sends a session whole, so it is usually all there at accept.
    const ssize_t got = ::recv(conn, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      const std::size_t keep = std::min(
          static_cast<std::size_t>(got),
          kMaxSessionStreamBytes - stream.size());
      stream.insert(stream.end(), chunk, chunk + keep);
      continue;
    }
    if (got == 0) return true;  // EOF: the orderly end of the session
    if (errno == EINTR) continue;
    if (errno != EAGAIN) return true;  // a reset or other error
    struct pollfd fds[2];
    fds[0] = {conn, POLLIN, 0};
    fds[1] = {oop::kCtlFd, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0 && errno != EINTR) return true;
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) return false;
  }
}

/// One accepted connection = one session, in the slot of the request the
/// client posted for it (untraced when none is posted). Reads the request
/// stream to EOF, splits it with split_stream, serves the messages through
/// the in-process backend's loop, logs each response's length and answers
/// with all the replies in one write. Returns false when the control pipe
/// says shut down.
bool serve_session(ProtocolTarget& target, Framing framing, int conn,
                   oop::SlotLifecycle& slots, SessionBuffers& buffers) {
  std::uint8_t* map = slots.try_begin();

  // Same arming order as every other backend (reset, fault sink, trace) —
  // the differential oracle depends on the symmetry.
  target.reset();
  san::FaultSink::arm();
  if (map != nullptr) cov::begin_trace(map);

  const bool open = read_session(conn, buffers.stream);
  const ByteSpan stream(buffers.stream);
  split_stream(framing, stream, buffers.messages);
  serve_messages(target, stream, buffers.messages, buffers.scratch,
                 buffers.replies, buffers.responses);
  if (map != nullptr) {
    for (const MessageRange& response : buffers.responses) {
      response_log_append(map, static_cast<std::uint32_t>(response.length));
    }
  }
  if (!buffers.replies.empty()) {
    send_full(conn, buffers.replies.data(), buffers.replies.size());
  }

  oop::AuxResult result;
  san::FaultSink::disarm_into(result.faults);
  if (map == nullptr) return open;
  result.events = cov::tls_event_count;
  const cov::DirtyWordList& dirty = *cov::tls_dirty_words;
  cov::end_trace();
  slots.publish(dirty.indices, dirty.count, result);
  slots.finish();
  return open;
}

}  // namespace

int run_tcp_session_server(ProtocolTarget& target, Framing framing,
                           const oop::FaultPlan& plan) {
  const std::span<std::uint8_t> segment =
      oop::attach_announced_segment(oop::kSegmentBytesV2);
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

  static oop::SlotLifecycle slots;
  slots.start_sessions(segment.data(), plan);
  SessionBuffers buffers;

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
    const bool open = serve_session(target, framing, conn, slots, buffers);
    oop::abort_on_close(conn);
    ::close(conn);
    if (!open) {
      ::close(listen_fd);
      return 0;
    }
  }
}

}  // namespace icsfuzz::session
