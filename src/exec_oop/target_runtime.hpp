// The target side of the out-of-process protocols (exec_protocol.hpp and
// session/session_wire.hpp), shared by every server: the shim's fork server
// (shim_runner.hpp), its `--tcp` session server (session/tcp_server.hpp)
// and the preload runtime (inject/preload_runtime.cpp). Both libicsfuzz.a
// and libicsfuzz-preload.so compile it. The servers differ only in what
// runs an execution — a ProtocolTarget traced by cov::hit, or a stock
// binary traced by the sancov bridge — and are thin adapters over the one
// segment attach, fault plan, fork-server loop and slot lifecycle below. A
// session server is the slot lifecycle without the fork: it claims the
// request its client posted at accept and completes it itself.
//
// INVARIANT — constant initialization only (inject/runtime_state.hpp): the
// preload runtime keeps these types in constinit statics, so each is
// constexpr default-constructible — plain zeroed arrays, no
// cov::DirtyWordList.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "exec_oop/exec_protocol.hpp"

namespace icsfuzz::oop {

/// Target-side attach of the segment the spawning client announced through
/// the ICSFUZZ_OOP_SHM pair. The size comes from whatever spawned us, so it
/// gets the distrust of network input: a strict decimal parse (no
/// garbage-as-0 or trailing junk), a floor of `min_bytes` (the layout the
/// caller writes to), a 1 GiB ceiling, and a shm object at least that
/// large, so a corrupt value can turn the mmap neither into an
/// address-space grab nor into a SIGBUS on first touch. The mapping lives
/// as long as the process. Empty means "refuse".
std::span<std::uint8_t> attach_announced_segment(std::size_t min_bytes);

/// Deterministic fault-injection knobs, read from the ICSFUZZ_SHIM_*
/// environment variables by every target-side server (tests drive the
/// out-of-process failure surface with these; all default to "off").
/// Indices are 1-based: the handoff record's exec_index. A session server
/// honours kill_child_at, segv_at, hang_at, oom_at and server_exit_at and
/// applies them to itself — it is the process serving the session.
struct FaultPlan {
  /// Exit (code 7) before writing the hello — a target that never
  /// handshakes.
  bool no_handshake = false;
  /// On execution #N the child SIGKILLs itself mid-execution.
  std::uint64_t kill_child_at = 0;
  /// On execution #N the child raises SIGSEGV under the default
  /// disposition — a genuine memory-fault death even in a sanitizer
  /// build, so differential tests can compare a crash classification
  /// bit-for-bit against a real segfaulting binary (kill_child_at's
  /// SIGKILL is indistinguishable from a deadline kill).
  std::uint64_t segv_at = 0;
  /// On execution #N the child hangs forever (the executor's wall-clock
  /// deadline must reap it).
  std::uint64_t hang_at = 0;
  /// On execution #N the child allocates until the resource jail's
  /// new_handler fires — the kOom classification path (pair with an
  /// ICSFUZZ_JAIL_AS_MB cap; an unjailed child exits through the marker
  /// code after a bounded number of untouched allocations).
  std::uint64_t oom_at = 0;
  /// Before serving execution #N the server process itself exits (code 9)
  /// — a crashed fork server the executor must respawn. A session server
  /// exits on claiming session #N, so the client sees it die mid-session.
  std::uint64_t server_exit_at = 0;
  /// After serving N executions the fork server exits 0 — an ORDERLY
  /// retirement (periodic server recycling) the client must distinguish
  /// from a lost server. 0 disables.
  std::uint64_t server_retire_after = 0;
};

/// Reads the ICSFUZZ_SHIM_* fault-injection variables.
FaultPlan fault_plan_from_env();

/// What serve_fork_requests hands a freshly forked execution child.
struct ForkedChild {
  /// The child's budget K: executions before it _exit(0)s.
  std::uint32_t budget = 1;
  /// The slot whose map the server zeroed for the child's first request
  /// before the fork, kNumSlots when none.
  std::uint32_t clean = kNumSlots;
  /// The first request's packet when it rode the control pipe (a budget-1
  /// kFork); empty when it is in the request's slot.
  Bytes piped;
};

/// Server-side additions to the fork-server loop, all optional. The
/// preload runtime captures a stock child's stdout through them.
struct ForkServerHooks {
  /// Before forking a child with budget `budget`.
  void (*before_fork)(std::uint32_t budget) = nullptr;
  /// After the child was reaped on its own death, before the death is
  /// published; `claimed_any` says it took a request.
  void (*after_reap)(HandoffBlock& block, bool claimed_any) = nullptr;
};

/// The fork server (exec_protocol.hpp) over an attached kSegmentBytesV2
/// segment: exits 7 for the plan's no_handshake, writes the hello
/// [kHelloMagicV2][caps], then sleeps in poll on kCtlFd and the child's
/// pidfd, forking, reaping, publishing deaths and killing on kKill. Never
/// returns in the server, which _exits: 0 on control-pipe EOF, 4/5/6 when
/// the hello, a fork or the pipe fails, 9/0 for the plan's server exit and
/// retirement. Returns only inside a freshly forked child, with the
/// resource jail (supervise::jail_from_env) applied.
ForkedChild serve_fork_requests(std::uint8_t* segment, std::uint32_t caps,
                                const FaultPlan& plan,
                                const ForkServerHooks& hooks = {});

/// A traced map's result lifecycle, with the words the last trace into
/// the map dirtied, so the next clear touches only those.
struct MapDirtyTable {
  bool known = false;  ///< false: the next clear is a full memset
  std::uint32_t count = 0;
  std::uint16_t indices[cov::kMapWords] = {};

  /// Before a trace into `map`: invalidates the result (the aux magic and
  /// the dirty-word list, so a death mid-trace never reads as done), then
  /// zeroes the map — sparsely when the last trace's words are known.
  void prepare(std::uint8_t* map, std::uint8_t* aux, std::uint8_t* dirty_list);
  /// After it: remembers the trace's dirty words and stores them as the
  /// dirty-word list, then the aux block (magic last). `dirty` null: the
  /// words are unknown, no list is published and the next clear is full.
  void publish(std::uint8_t* aux, std::uint8_t* dirty_list,
               const std::uint16_t* dirty, std::uint32_t count,
               const AuxResult& result);
};

/// One request's slot lifecycle: claim a request, ready its slot, publish
/// the result, complete. The shim's child loop, the preload's persistent
/// loop and its stock child run executions through it, and both session
/// servers (the shim's `--tcp` and the preload's tcp mode) run sessions.
class SlotLifecycle {
 public:
  /// Call once in the child serve_fork_requests returned in.
  void start(std::uint8_t* segment, const FaultPlan& plan,
             const ForkedChild& forked);

  /// Call once in a session server, which serves each request itself: it
  /// has no budget, and the plan's server_exit_at exits it with 9.
  void start_sessions(std::uint8_t* segment, const FaultPlan& plan);

  /// Blocks until the next request is posted, then claims it and readies
  /// its slot: exits 94 when the plan's server_exit_at names this
  /// execution (the server then exits 9), prepares the slot (a full clear
  /// on this child's first use of it, whatever an earlier child left) and
  /// trips the plan's execution faults on it, like a target that dies
  /// inside its execution. Returns the map.
  std::uint8_t* begin();

  /// A session server's begin at accept: begin() without the wait. Null
  /// when no request is posted (the connection is served untraced).
  std::uint8_t* try_begin();

  /// The execution's packet: the piped one for the first execution of a
  /// child whose request rode the control pipe, the slot's otherwise.
  [[nodiscard]] ByteSpan packet(const ForkedChild& forked) const;

  /// Publishes the finished execution into its slot (MapDirtyTable).
  void publish(const std::uint16_t* dirty, std::uint32_t count,
               const AuxResult& result);

  /// The record's done, then the client's wake: a session's completion.
  void finish();

  /// finish(), then exits 95 when the plan retires the server after this
  /// execution (the server then exits 0) and 0 when the budget is spent.
  void complete();

  /// Exits 95 (stdio flushed) when the plan retires the server after this
  /// execution. A stock child, which the server completes, calls it last.
  void retire_if_due() const;

  [[nodiscard]] std::uint32_t iteration() const { return iteration_; }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }

 private:
  std::uint8_t* claim();

  std::uint8_t* segment_ = nullptr;
  const FaultPlan* plan_ = nullptr;
  std::uint32_t budget_ = 0;
  int server_exit_code_ = 0;  ///< of the plan's server_exit_at
  std::uint32_t request_ = 0;
  std::uint32_t iteration_ = 0;
  std::uint32_t slot_ = 0;
  std::uint64_t index_ = 0;
  MapDirtyTable tables_[kNumSlots] = {};
};

/// Makes the coming close() of a session connection abortive (SO_LINGER
/// 0, a reset), for a session server to call once the session is
/// published. The client half-closes first, so an orderly close from the
/// server would park the client's end in TIME_WAIT, one entry per session.
/// Left orderly while replies wait unsent in the send queue (a peer that
/// stopped reading): a reset would drop them, and the client's byte-count
/// check would see the session as broken.
void abort_on_close(int conn);

}  // namespace icsfuzz::oop
