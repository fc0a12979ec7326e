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
                .segment_bytes = kSegmentBytesV2,
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
                                    std::size_t map_offset,
                                    std::size_t aux_offset, Outcome& out) {
  out.persistent = raw.persistent;
  out.iteration = raw.iteration;
  out.child_recycled = raw.recycled != RecycleReason::kNone;
  if (out.child_recycled) ++child_recycles_;
  map_offset_ = map_offset;
  // Any classified outcome means the server answered — the crash loop (if
  // there was one) is over.
  process_.note_answered();

  const bool aux_complete =
      aux_load(process_.segment().data() + aux_offset, kAuxBytes, out.aux);
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

const OutOfProcessExecutor::Outcome& OutOfProcessExecutor::run(
    ByteSpan packet) {
  Outcome& outcome = outcome_;
  for (int attempt = 0; attempt <= config_.retry.max_retries; ++attempt) {
    if (attempt == 1) process_.note_retry();
    if (!ensure_started()) continue;  // next attempt retries the spawn

    ForkServer::RunOutcome raw;
    std::size_t map_offset = 0;
    std::size_t aux_offset = kAuxOffset;
    // Persistent single-exec path: packet through slot 0, oversized
    // packets (rare — > kSlotTestCaseBytes) fall back to a fork-per-exec
    // pipe request for this one execution.
    if (persistent_active() &&
        slot_store_packet(process_.segment().data(), 0, packet)) {
      raw = server_.run(encode_control(0, config_.persistent_budget), {},
                        config_.exec_timeout_ms);
      map_offset = slot_offset(0);
      aux_offset = slot_offset(0) + kSlotAuxOffset;
    } else {
      raw = server_.run(0, packet, config_.exec_timeout_ms);
    }

    if (raw.kind == ForkServer::RunOutcome::Kind::kServerExited ||
        raw.kind == ForkServer::RunOutcome::Kind::kServerLost) {
      note_server_gone(raw.kind);
      continue;  // respawn + retry
    }
    classify(raw, map_offset, aux_offset, outcome);
    return outcome;
  }
  fail_outcome(outcome);
  return outcome;
}

std::size_t OutOfProcessExecutor::run_batch(
    const std::vector<Bytes>& packets,
    const std::function<void(std::size_t, const Outcome&)>& on_outcome) {
  std::size_t next_submit = 0;   // next packet to put on the wire
  std::size_t next_deliver = 0;  // next packet whose reply we owe

  while (next_deliver < packets.size()) {
    if (!persistent_active() || !ensure_started()) {
      // No pipelining available (fork-per-exec, a server without the
      // persistent capability, or the server is down): drain the remainder
      // through the sequential path, which owns the respawn/retry policy.
      for (; next_deliver < packets.size(); ++next_deliver) {
        on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      }
      break;
    }

    // Fill the window: one in-flight request per shm slot. Replies drain
    // strictly in submission order, so slot i%kNumSlots is never reused
    // before its reply has been consumed.
    bool submit_failed = false;
    while (!submit_failed && next_submit < packets.size() &&
           next_submit - next_deliver < kNumSlots) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>(next_submit % kNumSlots);
      if (!slot_store_packet(process_.segment().data(), slot,
                             ByteSpan(packets[next_submit]))) {
        break;  // oversized: drain in-flight first, then run() it inline
      }
      if (!server_.submit(encode_control(slot, config_.persistent_budget),
                          config_.exec_timeout_ms)) {
        submit_failed = true;
        break;
      }
      ++next_submit;
    }

    if (next_submit == next_deliver) {
      // Nothing in flight: the head request never went out (respawn via
      // the sequential path, which counts the retry) or is oversized.
      if (submit_failed) note_server_gone(server_.last_failure());
      on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      next_submit = ++next_deliver;
      continue;
    }

    // Drain one reply. The deadline covers every exec queued ahead of it
    // in the worst case, plus IO grace.
    const int deadline =
        config_.exec_timeout_ms > 0
            ? config_.exec_timeout_ms * static_cast<int>(kNumSlots) + 5000
            : -1;
    const ForkServer::RunOutcome raw = server_.await_reply(deadline);
    if (raw.kind == ForkServer::RunOutcome::Kind::kServerExited ||
        raw.kind == ForkServer::RunOutcome::Kind::kServerLost) {
      // Every in-flight reply is gone with the server. Re-run the whole
      // window sequentially (run() respawns and retries).
      note_server_gone(raw.kind);
      for (; next_deliver < next_submit; ++next_deliver) {
        on_outcome(next_deliver, run(ByteSpan(packets[next_deliver])));
      }
      next_submit = next_deliver;
      continue;
    }
    const std::uint32_t slot =
        static_cast<std::uint32_t>(next_deliver % kNumSlots);
    classify(raw, slot_offset(slot), slot_offset(slot) + kSlotAuxOffset,
             outcome_);
    on_outcome(next_deliver, outcome_);
    ++next_deliver;
  }
  return packets.size();
}

}  // namespace icsfuzz::oop
