#include "exec_oop/oop_executor.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <cstring>
#include <limits>

#include "exec_oop/wake_word.hpp"
#include "inject/inject_protocol.hpp"

namespace icsfuzz::oop {

namespace {

/// Pipe-I/O deadline for one request/reply: the exec budget plus a grace
/// margin (the wait owns the real deadline; this one only catches a wedged
/// server). Negative for an unbounded exec budget.
int io_deadline_for(int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  return timeout_ms > std::numeric_limits<int>::max() - 5000
             ? std::numeric_limits<int>::max()
             : timeout_ms + 5000;
}

}  // namespace

std::string to_string(ExecStatus status) {
  switch (status) {
    case ExecStatus::kOk: return "ok";
    case ExecStatus::kCrash: return "crash";
    case ExecStatus::kHang: return "hang";
    case ExecStatus::kOom: return "oom";
    case ExecStatus::kServerLost: return "server-lost";
  }
  return "?";
}

OutOfProcessExecutor::OutOfProcessExecutor(TargetConfig config)
    : process_(std::move(config), kHelloMagicV2, inject::kInjectModeFork) {}

bool OutOfProcessExecutor::ensure_started() {
  if (process_.ensure_started()) return true;
  error_ = process_.error();
  return false;
}

void classify_termination(int wstatus, bool completed,
                          OutOfProcessExecutor::Outcome& out) {
  out.term_signal = 0;
  out.exit_code = 0;
  if (WIFSIGNALED(wstatus)) {
    out.status = ExecStatus::kCrash;
    out.term_signal = WTERMSIG(wstatus);
    return;
  }
  const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
  if (code == 0 && completed) {
    out.status = ExecStatus::kOk;
  } else {
    // kOomExitCode: the resource jail's new_handler fired — allocation
    // failure under RLIMIT_AS, not a memory-safety crash. Anything else is
    // an abnormal termination mid-execution.
    out.status = code == supervise::kOomExitCode ? ExecStatus::kOom
                                                 : ExecStatus::kCrash;
    out.exit_code = code;
  }
}

void OutOfProcessExecutor::fail_outcome(Outcome& out) {
  // Every attempt failed: kServerLost with error_ describing why, and a
  // zeroed coverage window (the caller adopts an empty trace).
  ShmSegment& segment = process_.segment();
  if (segment.valid()) std::memset(segment.data(), 0, segment.size());
  out.status = ExecStatus::kServerLost;
  out.term_signal = 0;
  out.exit_code = 0;
  out.persistent = false;
  out.iteration = 0;
  out.child_recycled = false;
  out.aux.events = 0;
  out.aux.faults.clear();
  out.aux.response.clear();
  out.aux.response_truncated = false;
  out.aux.faults_truncated = false;
  map_offset_ = 0;
}

void OutOfProcessExecutor::submit(ByteSpan packet) {
  queue_[(head_ + queued_) % kNumSlots] = packet;
  ++queued_;
  // A server that is down is the next complete()'s to respawn: it owns the
  // retry policy.
  if (process_.running()) pump();
}

void OutOfProcessExecutor::pump() {
  if (process_.spawns() != spawn_seen_) {
    // A fresh server comes with a fresh (zeroed) segment: numbering
    // restarts, and the whole queue is the new server's to serve.
    spawn_seen_ = process_.spawns();
    posted_ = awaited_ = 0;
    fork_sent_for_ = 1;
    piped_request_ = 0;
  }
  std::uint8_t* segment = process_.segment().data();
  HandoffBlock& block = handoff_block(segment);
  while (posted_ - awaited_ < queued_) {
    // Results come back strictly in order, so a slot is never reused before
    // its result has been consumed.
    const std::uint32_t slot = (head_ + posted_ - awaited_) % kNumSlots;
    const ByteSpan packet = queue_[slot];
    const bool piped = packet.size() > kSlotPacketBytes;
    if (static_cast<std::int32_t>(piped_request_ - awaited_) > 0 ||
        (piped && posted_ != awaited_)) {
      return;  // a piped packet travels alone
    }
    // The slot still holds the result of the last request it served: an
    // execution that dies before its child reaches the slot must not read
    // as that one.
    std::uint8_t* slot_base = segment + slot_offset(slot);
    result_invalidate(slot_base + kSlotAuxOffset,
                      slot_base + kSlotDirtyListOffset);
    const std::uint32_t request = ++posted_;
    HandoffRecord& record = handoff_record(block, request);
    record.slot = slot;
    record.exec_index = request;
    if (!piped) {
      slot_store_packet(segment, slot, packet);
      // The request word counts posts, so the bump publishes `request`.
      bump_wake_waiter(&block.request, &block.request_waiting);
      continue;
    }
    // Too large for a slot: the packet rides a budget-1 kFork, and the
    // server posts the request once the bytes have arrived.
    piped_request_ = request;
    piped_error_ =
        packet.size() > kMaxPacketBytes
            ? "packet exceeds the fork server's kMaxPacketBytes"
            : write_request({.op = Op::kFork,
                             .arg = 1,
                             .packet_len =
                                 static_cast<std::uint32_t>(packet.size())},
                            packet);
  }
}

const char* OutOfProcessExecutor::write_request(const Request& request,
                                                ByteSpan packet) {
  const int fd = process_.ctl_fd();
  const int io_deadline_ms = io_deadline_for(config().exec_timeout_ms);
  ReadStatus status =
      write_full_deadline(fd, &request, sizeof request, io_deadline_ms);
  if (status == ReadStatus::kOk && !packet.empty()) {
    status = write_full_deadline(fd, packet.data(), packet.size(),
                                 io_deadline_ms);
  }
  if (status == ReadStatus::kOk) return nullptr;
  return status == ReadStatus::kTimeout
             ? "fork server stopped draining the request pipe"
             : "fork server pipe write failed (server gone?)";
}

void OutOfProcessExecutor::server_gone(const char* why) {
  // An orderly exit (status 0 — the target retired after its final
  // execution, or was asked to shut down) is not a lost server: the reap
  // books it apart, and error_ keeps its last cause.
  const bool orderly = process_.reap_within(500) &&
                       WIFEXITED(process_.wait_status()) &&
                       WEXITSTATUS(process_.wait_status()) == 0;
  if (!orderly) error_ = why;
  process_.stop();
}

bool OutOfProcessExecutor::await(Outcome& out) {
  const std::uint32_t request = awaited_ + 1;
  HandoffBlock& block = handoff_block(process_.segment().data());
  HandoffRecord& record = handoff_record(block, request);
  const bool piped = request == piped_request_;
  if (piped && piped_error_ != nullptr) {
    server_gone(piped_error_);
    return false;
  }
  const auto done = [&] {
    return shared_load(record.done) == request ? 1u : 0u;
  };
  const int timeout_ms = config().exec_timeout_ms;
  const std::uint64_t deadline =
      timeout_ms > 0 ? monotonic_ms() + static_cast<std::uint64_t>(timeout_ms)
                     : 0;
  // No child lives (even generation) and the result is not in: ask for one,
  // once per generation (a piped request brought its own). The load is
  // sequentially consistent and follows pump()'s request bump, so it pairs
  // with the server's own check after a death. A server that exited after
  // its last child published this result refuses the fork, and the result
  // stands.
  const std::uint32_t generation =
      std::atomic_ref<std::uint32_t>(block.generation).load();
  if (!piped && (generation & 1) == 0 && generation != fork_sent_for_ &&
      done() == 0) {
    const char* error =
        write_request({.op = Op::kFork, .arg = child_budget()}, {});
    if (error != nullptr && done() == 0) {
      server_gone(error);
      return false;
    }
    fork_sent_for_ = generation;
  }

  // Child deaths are published (and wake us); only a server that died
  // without publishing needs this check, made when a slice passes quietly.
  const auto server_dead = [&] { return process_.try_reap(); };
  bool timed_out = false;
  bool killed = false;
  if (!sync_wait_counter(&block.wake, done, 1, deadline, server_dead,
                         process_.spin_waits(), &block.wake_waiting)) {
    if (!process_.running()) {
      server_gone("fork server died mid-execution");
      return false;
    }
    // The deadline passed: the server kills the child (it owns the pid),
    // and the record then says whether the execution finished first. A
    // reply that does not come means the server itself wedged or died,
    // never a hang verdict.
    std::int32_t wstatus = 0;
    const char* error = write_request({.op = Op::kKill, .arg = request}, {});
    if (error == nullptr &&
        read_full_deadline(process_.st_fd(), &wstatus, sizeof wstatus,
                           io_deadline_for(timeout_ms)) != ReadStatus::kOk) {
      error = "fork server died mid-execution";
    }
    if (error != nullptr) {
      server_gone(error);
      return false;
    }
    timed_out = true;
    killed = wstatus != 0;
  }

  ++awaited_;
  const bool completed = done() != 0 && record.died == 0;
  const int wstatus = completed || done() == 0 ? 0 : record.wstatus;
  out.persistent = persistent_active();
  out.iteration = record.iteration;
  out.child_recycled =
      !completed || killed || piped || out.iteration >= child_budget();
  if (out.child_recycled) ++child_recycles_;
  map_offset_ = slot_offset(record.slot);
  const bool aux_complete = aux_load(
      process_.segment().data() + map_offset_ + kSlotAuxOffset, kAuxBytes,
      out.aux);
  if (timed_out && !completed) {
    out.status = ExecStatus::kHang;
    out.exit_code = 0;
    out.term_signal = WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : SIGKILL;
    return true;
  }
  classify_termination(wstatus, aux_complete, out);
  if (out.status == ExecStatus::kOom) ++oom_kills_;
  return true;
}

const OutOfProcessExecutor::Outcome& OutOfProcessExecutor::complete() {
  Outcome& outcome = outcome_;
  outcome.packet = queue_[head_];
  bool served = false;
  for (int attempt = 0; attempt <= kMaxRetries && !served; ++attempt) {
    if (attempt == 1) process_.note_retry();
    if (!ensure_started()) continue;  // next attempt retries the spawn
    pump();  // the oldest packet always posts: nothing older is in flight
    served = await(outcome);
  }
  if (!served) fail_outcome(outcome);
  head_ = (head_ + 1) % kNumSlots;
  --queued_;
  return outcome;
}

}  // namespace icsfuzz::oop
