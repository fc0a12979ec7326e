#include "exec_oop/fork_server.hpp"

#include <sys/wait.h>

#include <limits>

namespace icsfuzz::oop {

namespace {

/// Pipe-I/O deadline for one request/reply: the exec budget plus a grace
/// margin (the shim owns the real deadline; ours only catches a wedged
/// server). Negative for an unbounded exec budget.
int io_deadline_for(int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  return timeout_ms > std::numeric_limits<int>::max() - 5000
             ? std::numeric_limits<int>::max()
             : timeout_ms + 5000;
}

}  // namespace

ForkServer::RunOutcome::Kind ForkServer::classify_server_gone() {
  // An orderly exit (status 0 — the shim retired after its final
  // execution, or was asked to shut down) must NOT be booked as a lost
  // server; anything else keeps the kServerLost verdict and leaves the
  // owner to stop() the server.
  const bool orderly = process_.reap_within(500) &&
                       WIFEXITED(process_.wait_status()) &&
                       WEXITSTATUS(process_.wait_status()) == 0;
  last_failure_ = orderly ? RunOutcome::Kind::kServerExited
                          : RunOutcome::Kind::kServerLost;
  return last_failure_;
}

bool ForkServer::write_request(std::uint32_t control, ByteSpan packet,
                               int timeout_ms, int io_deadline_ms) {
  if (!process_.running()) {
    // Keep last_failure_ as classify_server_gone() left it: a caller that
    // races a just-retired server still sees kServerExited, not a loss.
    error_ = "fork server not running";
    return false;
  }
  // timeout_ms <= 0 disables the per-exec wall-clock deadline end to end:
  // the shim disarms its interval timer and this side waits indefinitely
  // — a wedged server is then caught only by pipe EOF (the caller opted
  // out of wall-clock limits).
  const std::uint32_t header[3] = {
      timeout_ms <= 0 ? 0 : static_cast<std::uint32_t>(timeout_ms), control,
      static_cast<std::uint32_t>(packet.size())};
  const int fd = process_.ctl_fd();
  ReadStatus status =
      write_full_deadline(fd, header, sizeof header, io_deadline_ms);
  if (status == ReadStatus::kOk && !packet.empty()) {
    status = write_full_deadline(fd, packet.data(), packet.size(),
                                 io_deadline_ms);
  }
  if (status != ReadStatus::kOk) {
    if (status == ReadStatus::kTimeout) {
      error_ = "fork server stopped draining the request pipe";
      last_failure_ = RunOutcome::Kind::kServerLost;
    } else {
      error_ = "fork server pipe write failed (server gone?)";
      classify_server_gone();
    }
    return false;
  }
  return true;
}

bool ForkServer::submit(std::uint32_t control, int timeout_ms) {
  return write_request(control, {}, timeout_ms, io_deadline_for(timeout_ms));
}

ForkServer::RunOutcome ForkServer::await_reply(int io_deadline_ms) {
  RunOutcome outcome;
  if (process_.st_fd() < 0) {
    outcome.kind = last_failure_;
    return outcome;
  }

  // The shim owns the per-exec deadline (it SIGKILLs its own child when
  // the timer fires and reports timed_out) — our read deadline only has
  // to catch the server itself wedging, so it gets a generous grace
  // margin on top of the exec budget and expiry means server-gone, never
  // a hang verdict. Reply: [i32 wstatus][u32 flags][u32 iteration].
  std::uint32_t reply[3] = {0, 0, 0};
  const ReadStatus status = read_full_deadline(process_.st_fd(), reply,
                                               sizeof reply, io_deadline_ms);
  if (status != ReadStatus::kOk) {
    error_ = "fork server died mid-execution";
    outcome.kind = status == ReadStatus::kClosed
                       ? classify_server_gone()
                       : RunOutcome::Kind::kServerLost;
    return outcome;
  }

  const std::uint32_t flags = reply[1];
  outcome.wstatus = static_cast<std::int32_t>(reply[0]);
  outcome.iteration = reply[2];
  outcome.persistent = (flags & kReplyPersistent) != 0;
  outcome.recycled = (flags & kReplyChildRecycled) != 0
                         ? reply_recycle_reason(flags)
                         : RecycleReason::kNone;
  outcome.kind = (flags & kReplyTimedOut) != 0 ? RunOutcome::Kind::kTimeout
                                               : RunOutcome::Kind::kCompleted;
  return outcome;
}

ForkServer::RunOutcome ForkServer::run(std::uint32_t control, ByteSpan packet,
                                       int timeout_ms) {
  const int io_deadline_ms = io_deadline_for(timeout_ms);
  if (!write_request(control, packet, timeout_ms, io_deadline_ms)) {
    RunOutcome outcome;
    outcome.kind = last_failure_;
    return outcome;
  }
  return await_reply(io_deadline_ms);
}

}  // namespace icsfuzz::oop
