#include "exec_oop/fork_server.hpp"

#include <sys/wait.h>

#include <limits>

#include "exec_oop/wake_word.hpp"

namespace icsfuzz::oop {

namespace {

/// Pipe-I/O deadline for one request/reply: the exec budget plus a grace
/// margin (the server owns the real deadline; ours only catches a wedged
/// server). Negative for an unbounded exec budget.
int io_deadline_for(int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  return timeout_ms > std::numeric_limits<int>::max() - 5000
             ? std::numeric_limits<int>::max()
             : timeout_ms + 5000;
}

}  // namespace

void ForkServer::sync_server() {
  if (process_.spawns() == spawn_seen_) return;
  // A fresh server comes with a fresh (zeroed) segment: numbering restarts.
  spawn_seen_ = process_.spawns();
  exec_index_ = 0;
  posted_ = 0;
  awaited_ = 0;
  fork_sent_for_ = 1;
}

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

bool ForkServer::write_request(const Request& request, ByteSpan packet,
                               int io_deadline_ms) {
  if (!process_.running()) {
    // Keep last_failure_ as classify_server_gone() left it: a caller that
    // races a just-retired server still sees kServerExited, not a loss.
    error_ = "fork server not running";
    return false;
  }
  const int fd = process_.ctl_fd();
  ReadStatus status =
      write_full_deadline(fd, &request, sizeof request, io_deadline_ms);
  if (status == ReadStatus::kOk && !packet.empty()) {
    status = write_full_deadline(fd, packet.data(), packet.size(),
                                 io_deadline_ms);
  }
  if (status == ReadStatus::kOk) return true;
  if (status == ReadStatus::kTimeout) {
    error_ = "fork server stopped draining the request pipe";
    last_failure_ = RunOutcome::Kind::kServerLost;
  } else {
    error_ = "fork server pipe write failed (server gone?)";
    classify_server_gone();
  }
  return false;
}

bool ForkServer::read_reply(std::uint32_t (&reply)[2], int io_deadline_ms) {
  // Expiry means the server itself wedged (it owns the exec deadline), so
  // it is server-gone, never a hang verdict.
  const ReadStatus status = read_full_deadline(process_.st_fd(), reply,
                                               sizeof reply, io_deadline_ms);
  if (status == ReadStatus::kOk) return true;
  error_ = "fork server died mid-execution";
  if (status == ReadStatus::kClosed) {
    classify_server_gone();
  } else {
    last_failure_ = RunOutcome::Kind::kServerLost;
  }
  return false;
}

ForkServer::RunOutcome ForkServer::run(ByteSpan packet, int timeout_ms) {
  sync_server();
  RunOutcome outcome;
  const int io_deadline_ms = io_deadline_for(timeout_ms);
  // timeout_ms <= 0 disables the per-exec wall-clock deadline end to end:
  // the server disarms its interval timer and this side waits indefinitely.
  const Request request{
      .op = Op::kExec,
      .packet_len = static_cast<std::uint32_t>(packet.size()),
      .timeout_ms =
          timeout_ms <= 0 ? 0u : static_cast<std::uint32_t>(timeout_ms),
      .exec_index = ++exec_index_};
  std::uint32_t reply[2] = {0, 0};
  if (!write_request(request, packet, io_deadline_ms) ||
      !read_reply(reply, io_deadline_ms)) {
    outcome.kind = last_failure_;
    return outcome;
  }
  outcome.wstatus = static_cast<std::int32_t>(reply[0]);
  outcome.kind = (reply[1] & kReplyTimedOut) != 0
                     ? RunOutcome::Kind::kTimeout
                     : RunOutcome::Kind::kCompleted;
  return outcome;
}

bool ForkServer::post(ByteSpan packet, std::uint32_t slot) {
  sync_server();
  std::uint8_t* segment = process_.segment().data();
  if (!slot_store_packet(segment, slot, packet)) return false;
  const std::uint32_t request = posted_ + 1;
  HandoffRecord& record = handoff_record(handoff_block(segment), request);
  record.slot = slot;
  record.exec_index = ++exec_index_;
  posted_ = request;
  // The request word counts posts, so the bump publishes exactly `request`.
  bump_wake(&handoff_block(segment).request);
  return true;
}

ForkServer::RunOutcome ForkServer::await(int timeout_ms) {
  RunOutcome outcome;
  const std::uint32_t request = ++awaited_;
  HandoffBlock& block = handoff_block(process_.segment().data());
  HandoffRecord& record = handoff_record(block, request);
  outcome.persistent = true;
  outcome.slot = record.slot;

  const int io_deadline_ms = io_deadline_for(timeout_ms);
  const std::uint64_t deadline =
      timeout_ms > 0 ? monotonic_ms() + static_cast<std::uint64_t>(timeout_ms)
                     : 0;
  // No child lives (even generation): ask for one, once per generation.
  // The load is sequentially consistent and follows post()'s request bump,
  // so it pairs with the server's own check after a death.
  const std::uint32_t generation =
      std::atomic_ref<std::uint32_t>(block.generation).load();
  if ((generation & 1) == 0 && generation != fork_sent_for_) {
    if (!write_request({.op = Op::kFork, .arg = budget_}, {},
                       io_deadline_ms)) {
      outcome.kind = last_failure_;
      return outcome;
    }
    fork_sent_for_ = generation;
  }

  const auto done = [&] {
    return shared_load(record.done) == request ? 1u : 0u;
  };
  // Child deaths are published (and wake us); only a server that died
  // without publishing needs this check, made when a slice passes quietly.
  const auto server_gone = [&] { return process_.try_reap(); };
  bool timed_out = false;
  bool killed = false;
  if (!sync_wait_counter(&block.wake, done, 1, deadline, server_gone,
                         process_.spin_waits())) {
    if (!process_.running()) {
      error_ = "fork server died mid-execution";
      classify_server_gone();
      outcome.kind = last_failure_;
      return outcome;
    }
    // The deadline passed: the server kills the child (it owns the pid),
    // and the record then says whether the execution finished first.
    std::uint32_t reply[2] = {0, 0};
    if (!write_request({.op = Op::kKill, .arg = request}, {},
                       io_deadline_ms) ||
        !read_reply(reply, io_deadline_ms)) {
      outcome.kind = last_failure_;
      return outcome;
    }
    timed_out = true;
    killed = reply[0] != 0;
  }

  outcome.iteration = record.iteration;
  if (done() != 0 && record.died == 0) {
    outcome.kind = RunOutcome::Kind::kCompleted;
    outcome.recycled = killed || outcome.iteration >= budget_;
    return outcome;
  }
  outcome.recycled = true;
  outcome.wstatus = done() != 0 ? record.wstatus : 0;
  outcome.kind = timed_out ? RunOutcome::Kind::kTimeout
                           : RunOutcome::Kind::kCompleted;
  return outcome;
}

}  // namespace icsfuzz::oop
