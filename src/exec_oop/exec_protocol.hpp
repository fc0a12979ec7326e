// Wire + segment protocol shared by the fuzzer-side fork-server client
// (fork_server.hpp / oop_executor.hpp) and the target side, whose one
// implementation — request loop, execution child, slot lifecycle — is
// target_runtime.hpp, run by both the shim and the preload runtime.
//
// Segment layout (one ShmSegment of kSegmentBytesV2):
//
//   [0, kHandoffOffset)   kNumSlots execution slots (kSlotBytes each):
//     +0                    the coverage map (written by the child via
//                           cov::begin_trace)
//     +kSlotAuxOffset       the aux result block
//     +kSlotTestCaseOffset  the test-case buffer ([u32 len][bytes])
//     +kSlotDirtyListOffset the dirty-word list ([u32 count + 1]
//                           [u16 indices[kDirtyListCap]])
//   [kHandoffOffset, ...) the handoff block (HandoffBlock)
//
// The aux block ships the observables a pipe could lose if the child died
// mid-write: the instrumentation event count (the deterministic hang
// budget), the soft-sanitizer fault reports, and the response bytes. The
// child stores the completion magic LAST (release fence); the client reads
// it only after the record says the execution ended, so a set magic implies
// a fully written block and a missing magic means the child never finished
// (killed, crashed, hung).
//
// The dirty-word list names every map word the execution made nonzero, so
// the client adopts the trace from those words alone instead of scanning
// all cov::kMapWords (CoverageMap::adopt_sparse). Validity: the client
// invalidates a slot's magic and list when it posts into it; the child
// invalidates both again before it touches the map, and writes the list
// before aux_store stores the magic. A list is therefore this execution's
// exactly when the magic is set. A stored 0 means "not published": a list
// past kDirtyListCap, or a runtime that publishes none. The client then
// falls back to the full scan (CoverageMap::adopt_external), as it does
// for every execution that did not complete.
//
// There is one way to execute: a child forked by the server with a budget
// of K executions (K = 1 is fork-per-exec) takes each request straight from
// the client through the handoff block, with process-shared futex words
// (wake_word.hpp), while the server sleeps. The pipes carry only what needs
// the server: the hello, forks, deadline kills and oversized packets.
//
//   spawn:    the client (TargetProcess) dup2s the control pipe onto fd
//             kCtlFd and the status pipe onto fd kStFd before exec; the
//             server writes the hello [u32 kHelloMagicV2][u32 caps] on
//             kStFd. kCapPersistent says the server honours K > 1; a server
//             without it forks every child with K = 1.
//   request:  one Request header on kCtlFd:
//     kFork    fork a child with budget `arg` unless one lives. No reply.
//              With packet_len != 0 (at most kMaxPacketBytes) the packet
//              follows on the pipe: it did not fit a slot. The client sends
//              it only with nothing else in flight, so a living child is
//              idle and has claimed nothing; the server retires it, posts
//              the request itself and forks a K = 1 child that runs the
//              bytes it inherited.
//     kKill    deadline: SIGKILL and reap the child if it still serves
//              request `arg` or has not reached it yet, then reply
//              [i32 wstatus]. No child serves `arg` afterwards.
//             The client's pipe deadlines (the exec budget plus a grace
//             margin) only guard against the server itself wedging, which
//             is reported as server-lost, not as a hang.
//   shutdown: the client closes the control pipe; the server's request
//             read sees EOF, kills and reaps any child and exits cleanly
//             (exit 0 — an *orderly* shutdown the client tells apart from a
//             lost server).
//
// The handoff:
//
//   * request: the client numbers its requests 1, 2, ... per server. For
//     request S it writes the packet into a free slot and the slot and exec
//     index into record S % kNumSlots, then bumps the request word and
//     wakes it. Up to kNumSlots requests may be in flight; results are
//     consumed strictly in order.
//   * child: waits on the request word, stores claimed = S, runs the
//     target into the record's slot, publishes the slot's aux block and
//     the record's iteration, stores the record's done = S (release), and
//     bumps and wakes the client's wake word. After iteration K it
//     _exit(0)s (the budget recycle) instead of waiting for the next
//     request. A stock binary's child (preload runtime, K = 1) runs main()
//     and publishes only its aux block; the server completes the record
//     when it reaps the child.
//   * death: the server polls a pidfd of the child and the control pipe,
//     nothing else. When the child dies it reaps it and, if the request the
//     child had claimed has no result yet — or, for a child that died
//     before claiming anything, the next posted request — publishes the
//     wait status into that record (died = 1) before done. Then it bumps the
//     generation to even and, if it published a result, wakes the client.
//   * fork: a child serves from claimed + 1. The server forks one after a
//     death (or deadline kill) when posted requests are left unclaimed, and
//     on kFork, which a client about to wait sends once per even (childless)
//     generation. The request and generation bumps are sequentially
//     consistent and each side reads the other's word after its own bump,
//     so at least one side sees that a fork is due.
//   * deadline: the client times the wait itself. When the deadline passes
//     it sends kKill; after the reply it re-checks the record, so an
//     execution that finished at the boundary still counts as completed.
//   * server death: the client notices it between wait slices (its
//     liveness check reaps the server); the child dies with the server
//     (PR_SET_PDEATHSIG).
//   * wakes: the child announces a sleep on the request word in
//     request_waiting and the client one on its wake word in wake_waiting,
//     and the hot-path publishers (the client's post, the child's
//     completion) issue FUTEX_WAKE only for an announced sleeper
//     (bump_wake_waiter). With a full window on one core, that is one wake
//     syscall per side per window instead of one per execution. Both
//     sleeps are sliced (kSyncWaitSliceMs); the server's rare publishes
//     always wake.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "coverage/instrument.hpp"
#include "sanitizer/fault.hpp"
#include "util/bytes.hpp"

namespace icsfuzz::oop {

/// Fixed descriptors the shim inherits (AFL uses 198/199 for the same
/// purpose; keeping the convention makes the protocol self-describing).
inline constexpr int kCtlFd = 198;
inline constexpr int kStFd = 199;

/// Fork-server hello magic ("ICS2"): followed by a u32 capability word.
inline constexpr std::uint32_t kHelloMagicV2 = 0x49435332;

/// Capability bits in the fork-server hello.
inline constexpr std::uint32_t kCapPersistent = 1u << 0;

/// TCP session-server hello magic ("ICST"), written by a shim started in
/// `--tcp` mode (session/tcp_server.hpp) instead of the fork-server hello
/// above, followed by [u32 port]: the loopback port the session server
/// accepts connections on. The segment then has the TCP layout of
/// session/session_wire.hpp; executions travel over the socket, not the
/// control pipe — the pipe's only remaining job is EOF-triggered shutdown.
inline constexpr std::uint32_t kTcpHelloMagic = 0x49435354;

/// Aux-block completion magic ("OOP!"), stored last by the child.
inline constexpr std::uint32_t kAuxCompleteMagic = 0x4F4F5021;
inline constexpr std::size_t kAuxBytes = std::size_t{1} << 16;

/// A dirty-word list region: [u32 count + 1][u16 indices[kDirtyListCap]],
/// the indices of the map words the execution made nonzero. A stored 0
/// means "not published" (see the protocol comment above).
inline constexpr std::size_t kDirtyListBytes = 4096;
inline constexpr std::uint32_t kDirtyListCap =
    (kDirtyListBytes - sizeof(std::uint32_t)) / sizeof(std::uint16_t);

/// kNumSlots independent execution slots, each with its own coverage map,
/// aux block, test-case buffer and dirty-word list, so up to kNumSlots
/// requests can be in flight with no shared mutable state between them.
inline constexpr std::uint32_t kNumSlots = 4;
inline constexpr std::size_t kSlotAuxOffset = cov::kMapSize;
inline constexpr std::size_t kSlotTestCaseOffset = kSlotAuxOffset + kAuxBytes;
inline constexpr std::size_t kSlotTestCaseBytes = std::size_t{1} << 16;
inline constexpr std::size_t kSlotDirtyListOffset =
    kSlotTestCaseOffset + kSlotTestCaseBytes;
inline constexpr std::size_t kSlotBytes =
    kSlotDirtyListOffset + kDirtyListBytes;
/// The largest packet a slot holds ([u32 len][bytes]); larger ones ride
/// their kFork on the control pipe.
inline constexpr std::size_t kSlotPacketBytes = kSlotTestCaseBytes - 4;
/// The largest packet either server accepts on the control pipe.
inline constexpr std::size_t kMaxPacketBytes = std::size_t{1} << 30;

/// The handoff block, after the slots (layout: HandoffBlock).
inline constexpr std::size_t kHandoffOffset =
    std::size_t{kNumSlots} * kSlotBytes;
inline constexpr std::size_t kHandoffBytes = 192;

/// Full fork-server segment size (the client always creates this much).
inline constexpr std::size_t kSegmentBytesV2 = kHandoffOffset + kHandoffBytes;

/// Byte offset of slot `slot` inside the segment.
[[nodiscard]] constexpr std::size_t slot_offset(std::uint32_t slot) {
  return std::size_t{slot} * kSlotBytes;
}

// -- Pipe requests. --------------------------------------------------------

enum class Op : std::uint32_t { kFork = 2, kKill = 3 };

/// Request header on the control pipe; a kFork with packet_len != 0 is
/// followed by that many packet bytes.
struct Request {
  Op op = Op::kFork;
  /// kFork: the child's budget K. kKill: the request number to abandon.
  std::uint32_t arg = 0;
  std::uint32_t packet_len = 0;
};
static_assert(sizeof(Request) == 12);

// -- Handoff. --------------------------------------------------------------

/// The result record of one in-flight request.
struct HandoffRecord {
  /// 1-based index of the execution on this server (client; the child's
  /// fault-plan key).
  std::uint64_t exec_index;
  /// The request whose result the record holds (release store, last).
  std::uint32_t done;
  /// 1 when the server published the serving child's death (wstatus).
  std::uint32_t died;
  std::int32_t wstatus;
  /// "N of K" within the serving child.
  std::uint32_t iteration;
  /// The slot holding the packet and, once done, the results (client).
  std::uint32_t slot;
};

struct HandoffBlock {
  /// Futex: requests posted (client; the server for an oversized packet).
  std::uint32_t request;
  /// Futex: the client's wake word (child on completion, server on death).
  std::uint32_t wake;
  /// Nonzero while the child may sleep on `request` / the client on
  /// `wake` (bump_wake_waiter skips the FUTEX_WAKE otherwise).
  std::uint32_t request_waiting;
  std::uint32_t wake_waiting;
  /// The last request a child took (child; server after a death or kill).
  std::uint32_t claimed;
  /// Odd while a child lives (server).
  std::uint32_t generation;
  HandoffRecord records[kNumSlots];
};
static_assert(sizeof(HandoffBlock) <= kHandoffBytes);

[[nodiscard]] inline HandoffBlock& handoff_block(std::uint8_t* segment) {
  return *reinterpret_cast<HandoffBlock*>(segment + kHandoffOffset);
}
[[nodiscard]] inline HandoffRecord& handoff_record(HandoffBlock& block,
                                                   std::uint32_t request) {
  return block.records[request % kNumSlots];
}
/// The slot of a posted request (child side; a corrupt index reads as 0).
[[nodiscard]] inline std::uint32_t request_slot(HandoffBlock& block,
                                                std::uint32_t request) {
  const std::uint32_t slot = handoff_record(block, request).slot;
  return slot < kNumSlots ? slot : 0;
}

/// Shared-word accessors: every handoff field crosses processes.
template <typename T>
[[nodiscard]] T shared_load(T& word) {
  return std::atomic_ref<T>(word).load(std::memory_order_acquire);
}
template <typename T>
void shared_store(T& word, T value) {
  std::atomic_ref<T>(word).store(value, std::memory_order_release);
}

/// Writes `packet` into slot `slot`'s test-case buffer as [u32 len][bytes]
/// (client side). False when the packet exceeds kSlotPacketBytes.
bool slot_store_packet(std::uint8_t* segment, std::uint32_t slot,
                       ByteSpan packet);

/// The packet span stored in slot `slot` (child side).
ByteSpan slot_load_packet(const std::uint8_t* segment, std::uint32_t slot);

/// Environment variables carrying the segment to the exec'd shim.
inline constexpr const char* kShmNameEnv = "ICSFUZZ_OOP_SHM";
inline constexpr const char* kShmSizeEnv = "ICSFUZZ_OOP_SHM_SIZE";

/// What one out-of-process execution reported back through the aux block.
struct AuxResult {
  std::uint64_t events = 0;
  std::vector<san::FaultReport> faults;
  Bytes response;
  /// The response did not fit the aux block and was truncated (the map and
  /// every other observable are still exact).
  bool response_truncated = false;
  /// Whole fault reports were dropped (or a detail string clamped) because
  /// the aux block filled — the shipped fault list is incomplete. The
  /// executor surfaces this as a synthetic fault so crash accounting never
  /// silently under-reports.
  bool faults_truncated = false;
};

/// Serializes `result` into the aux block (child side; `aux` points at a
/// slot's kSlotAuxOffset, `aux_size` bytes available). Stores the completion magic
/// last, behind a release fence.
void aux_store(std::uint8_t* aux, std::size_t aux_size,
               const AuxResult& result);

/// Reads the aux block (client side, once the execution ended). Returns false when the
/// completion magic is absent — the child never finished its execution.
bool aux_load(const std::uint8_t* aux, std::size_t aux_size, AuxResult& out);

/// Publishes the execution's dirty-word list into the region at
/// `dirty_list` (child side, before aux_store: its release fence covers
/// the list). A list longer than kDirtyListCap is stored as "not
/// published".
void dirty_list_store(std::uint8_t* dirty_list, const std::uint16_t* indices,
                      std::uint32_t count);

/// Reads a published dirty-word list (client side, after aux_load found
/// the completion magic). False when nothing was published.
bool dirty_list_load(const std::uint8_t* dirty_list,
                     const std::uint16_t*& indices, std::uint32_t& count);

/// Invalidates a result: the aux block's completion magic and the
/// dirty-word list. The client calls it on a slot when it posts into it,
/// every server before it touches the map of the execution it starts.
void result_invalidate(std::uint8_t* aux, std::uint8_t* dirty_list);

// -- Pipe plumbing (EINTR-safe, deadline-aware). ---------------------------

/// Writes exactly `size` bytes; false on error/EPIPE (server gone).
bool write_full(int fd, const void* data, std::size_t size);

/// Reads exactly `size` bytes; false on error or EOF.
bool read_full(int fd, void* data, std::size_t size);

/// Deadline-aware exact read. Returns kOk, kTimeout (deadline expired with
/// the read incomplete) or kClosed (error/EOF). A negative `timeout_ms`
/// waits indefinitely (no deadline).
enum class ReadStatus : std::uint8_t { kOk, kTimeout, kClosed };
ReadStatus read_full_deadline(int fd, void* data, std::size_t size,
                              int timeout_ms);

/// Deadline-aware exact write for a non-blocking descriptor: polls for
/// writability, so a wedged peer that stops draining the pipe surfaces as
/// kTimeout instead of blocking the caller forever (a full-buffer write to
/// a stopped reader otherwise blocks with no deadline at all). Negative
/// `timeout_ms` waits indefinitely; kClosed covers EPIPE/errors.
ReadStatus write_full_deadline(int fd, const void* data, std::size_t size,
                               int timeout_ms);

}  // namespace icsfuzz::oop
