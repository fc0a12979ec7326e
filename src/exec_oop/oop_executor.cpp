#include "exec_oop/oop_executor.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <cstring>

#include "inject/inject_protocol.hpp"

namespace icsfuzz::oop {

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

OutOfProcessExecutor::OutOfProcessExecutor(OopExecutorConfig config)
    : config_(std::move(config)),
      process_({.argv = config_.target_cmd,
                .hello_magic = kHelloMagicV2,
                .inject_mode = inject::kInjectModeFork,
                .preload = config_.preload,
                .jail = config_.jail,
                .retry = config_.retry,
                .handshake_timeout_ms = config_.handshake_timeout_ms}) {}

bool OutOfProcessExecutor::ensure_started() {
  if (process_.ensure_started()) return true;
  error_ = process_.error();
  return false;
}

void OutOfProcessExecutor::note_server_gone(ForkServer::RunOutcome::Kind kind) {
  if (kind != ForkServer::RunOutcome::Kind::kServerExited) {
    error_ = server_.error();
  }
  process_.stop();
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

void OutOfProcessExecutor::classify(const ForkServer::RunOutcome& raw,
                                    Outcome& out) {
  out.persistent = persistent_active();
  out.iteration = raw.iteration;
  out.child_recycled = raw.recycled;
  if (out.child_recycled) ++child_recycles_;
  map_offset_ = slot_offset(raw.slot);
  // Any classified outcome means the server answered — the crash loop (if
  // there was one) is over.
  process_.note_answered();

  const bool aux_complete = aux_load(
      process_.segment().data() + map_offset_ + kSlotAuxOffset, kAuxBytes,
      out.aux);
  if (raw.kind == ForkServer::RunOutcome::Kind::kTimeout) {
    out.status = ExecStatus::kHang;
    out.exit_code = 0;
    out.term_signal =
        WIFSIGNALED(raw.wstatus) ? WTERMSIG(raw.wstatus) : SIGKILL;
    return;
  }
  classify_termination(raw.wstatus, aux_complete, out);
  if (out.status == ExecStatus::kOom) ++oom_kills_;
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
  while (posted_ < queued_) {
    const std::uint32_t slot = (head_ + posted_) % kNumSlots;
    // Results come back strictly in order, so a slot is never reused before
    // its result has been consumed.
    if (!server_.post(queue_[slot], slot)) return;
    ++posted_;
  }
}

const OutOfProcessExecutor::Outcome& OutOfProcessExecutor::complete() {
  Outcome& outcome = outcome_;
  outcome.packet = queue_[head_];
  bool done = false;
  for (int attempt = 0; attempt <= config_.retry.max_retries; ++attempt) {
    if (attempt == 1) process_.note_retry();
    if (!ensure_started()) continue;  // next attempt retries the spawn

    // The oldest packet always posts: nothing older is in flight.
    pump();
    const ForkServer::RunOutcome raw = server_.await();
    if (raw.kind == ForkServer::RunOutcome::Kind::kServerExited ||
        raw.kind == ForkServer::RunOutcome::Kind::kServerLost) {
      // Every in-flight result is gone with the server; the respawned one
      // gets the whole queue again.
      note_server_gone(raw.kind);
      posted_ = 0;
      continue;
    }
    classify(raw, outcome);
    done = true;
    break;
  }
  if (!done) fail_outcome(outcome);
  head_ = (head_ + 1) % kNumSlots;
  --queued_;
  if (posted_ > 0) --posted_;
  return outcome;
}

}  // namespace icsfuzz::oop
