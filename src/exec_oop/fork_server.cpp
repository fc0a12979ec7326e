#include "exec_oop/fork_server.hpp"

#include <sys/wait.h>

#include <limits>

#include "exec_oop/wake_word.hpp"

namespace icsfuzz::oop {

namespace {

/// Pipe-I/O deadline for one request/reply: the exec budget plus a grace
/// margin (the client's own wait owns the real deadline; this one only
/// catches a wedged server). Negative for an unbounded exec budget.
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
  piped_request_ = 0;
  piped_sent_ = false;
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

bool ForkServer::read_reply(std::int32_t& wstatus, int io_deadline_ms) {
  // Expiry means the server itself wedged, so it is server-gone, never a
  // hang verdict.
  const ReadStatus status = read_full_deadline(
      process_.st_fd(), &wstatus, sizeof wstatus, io_deadline_ms);
  if (status == ReadStatus::kOk) return true;
  error_ = "fork server died mid-execution";
  if (status == ReadStatus::kClosed) {
    classify_server_gone();
  } else {
    last_failure_ = RunOutcome::Kind::kServerLost;
  }
  return false;
}

bool ForkServer::post(ByteSpan packet, std::uint32_t slot) {
  sync_server();
  const bool piped = packet.size() > kSlotPacketBytes;
  if (static_cast<std::int32_t>(piped_request_ - awaited_) > 0 ||
      (piped && posted_ != awaited_)) {
    return false;  // a piped packet travels alone
  }
  std::uint8_t* segment = process_.segment().data();
  // The slot still holds the result of the last request it served: an
  // execution that dies before its child reaches the slot must not read
  // as that one.
  slot_invalidate_result(segment, slot);
  const std::uint32_t request = posted_ + 1;
  HandoffRecord& record = handoff_record(handoff_block(segment), request);
  record.slot = slot;
  record.exec_index = ++exec_index_;
  posted_ = request;
  if (!piped) {
    slot_store_packet(segment, slot, packet);
    // The request word counts posts, so the bump publishes exactly `request`.
    HandoffBlock& block = handoff_block(segment);
    bump_wake_waiter(&block.request, &block.request_waiting);
    return true;
  }
  // Too large for a slot: the packet rides a budget-1 kFork, and the server
  // posts the request once the bytes have arrived.
  piped_request_ = request;
  if (packet.size() > kMaxPacketBytes) {
    error_ = "packet exceeds the fork server's kMaxPacketBytes";
    last_failure_ = RunOutcome::Kind::kServerLost;
    piped_sent_ = false;
    return true;
  }
  piped_sent_ = write_request(
      {.op = Op::kFork,
       .arg = 1,
       .packet_len = static_cast<std::uint32_t>(packet.size())},
      packet, io_deadline_for(timeout_ms_));
  return true;
}

ForkServer::RunOutcome ForkServer::await() {
  RunOutcome outcome;
  const std::uint32_t request = ++awaited_;
  HandoffBlock& block = handoff_block(process_.segment().data());
  HandoffRecord& record = handoff_record(block, request);
  outcome.slot = record.slot;
  const bool piped = request == piped_request_;
  if (piped && !piped_sent_) {
    outcome.kind = last_failure_;
    return outcome;
  }

  const int io_deadline_ms = io_deadline_for(timeout_ms_);
  const std::uint64_t deadline =
      timeout_ms_ > 0
          ? monotonic_ms() + static_cast<std::uint64_t>(timeout_ms_)
          : 0;
  // No child lives (even generation): ask for one, once per generation (a
  // piped request brought its own). The load is sequentially consistent
  // and follows post()'s request bump, so it pairs with the server's own
  // check after a death.
  const std::uint32_t generation =
      std::atomic_ref<std::uint32_t>(block.generation).load();
  if (!piped && (generation & 1) == 0 && generation != fork_sent_for_) {
    if (!write_request({.op = Op::kFork, .arg = child_budget()}, {},
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
                         process_.spin_waits(), &block.wake_waiting)) {
    if (!process_.running()) {
      error_ = "fork server died mid-execution";
      classify_server_gone();
      outcome.kind = last_failure_;
      return outcome;
    }
    // The deadline passed: the server kills the child (it owns the pid),
    // and the record then says whether the execution finished first.
    std::int32_t wstatus = 0;
    if (!write_request({.op = Op::kKill, .arg = request}, {},
                       io_deadline_ms) ||
        !read_reply(wstatus, io_deadline_ms)) {
      outcome.kind = last_failure_;
      return outcome;
    }
    timed_out = true;
    killed = wstatus != 0;
  }

  outcome.iteration = record.iteration;
  if (done() != 0 && record.died == 0) {
    outcome.kind = RunOutcome::Kind::kCompleted;
    outcome.recycled =
        killed || piped || outcome.iteration >= child_budget();
    return outcome;
  }
  outcome.recycled = true;
  outcome.wstatus = done() != 0 ? record.wstatus : 0;
  outcome.kind = timed_out ? RunOutcome::Kind::kTimeout
                           : RunOutcome::Kind::kCompleted;
  return outcome;
}

}  // namespace icsfuzz::oop
