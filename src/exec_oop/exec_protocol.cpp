#include "exec_oop/exec_protocol.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "exec_oop/wake_word.hpp"

namespace icsfuzz::oop {

namespace {

// Aux block fixed header (little-endian native; both sides are the same
// machine by construction):
//   u32 magic  u32 fault_count  u64 events  u32 response_len  u32 flags
// followed by fault_count * { u8 kind, u32 site, u32 detail_len, detail }
// and then response_len response bytes.
constexpr std::size_t kMagicOff = 0;
constexpr std::size_t kFaultCountOff = 4;
constexpr std::size_t kEventsOff = 8;
constexpr std::size_t kResponseLenOff = 16;
constexpr std::size_t kFlagsOff = 20;
constexpr std::size_t kPayloadOff = 24;
constexpr std::uint32_t kFlagResponseTruncated = 1u << 0;
constexpr std::uint32_t kFlagFaultsTruncated = 1u << 1;

template <typename T>
void store(std::uint8_t* base, std::size_t offset, T value) {
  std::memcpy(base + offset, &value, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* base, std::size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

}  // namespace

void aux_store(std::uint8_t* aux, std::size_t aux_size,
               const AuxResult& result) {
  store<std::uint32_t>(aux, kMagicOff, 0);  // not complete while writing
  store<std::uint64_t>(aux, kEventsOff, result.events);

  std::size_t cursor = kPayloadOff;
  std::uint32_t stored_faults = 0;
  std::uint32_t flags = 0;
  for (const san::FaultReport& fault : result.faults) {
    // Fault reports are short (a kind, a site, one diagnostic line); a
    // pathological stream that overflows the block clamps detail strings
    // first and drops whole reports last — either way the truncation flag
    // travels, so the parent knows the list is incomplete instead of
    // silently under-reporting.
    const std::size_t head = 1 + 4 + 4;
    if (cursor + head > aux_size) {
      flags |= kFlagFaultsTruncated;
      break;
    }
    std::size_t detail_len = fault.detail.size();
    if (cursor + head + detail_len > aux_size) {
      detail_len = aux_size - cursor - head;
      flags |= kFlagFaultsTruncated;
    }
    store<std::uint8_t>(aux, cursor, static_cast<std::uint8_t>(fault.kind));
    store<std::uint32_t>(aux, cursor + 1, fault.site);
    store<std::uint32_t>(aux, cursor + 5,
                         static_cast<std::uint32_t>(detail_len));
    std::memcpy(aux + cursor + head, fault.detail.data(), detail_len);
    cursor += head + detail_len;
    ++stored_faults;
  }
  store<std::uint32_t>(aux, kFaultCountOff, stored_faults);

  std::size_t response_len = result.response.size();
  if (cursor + response_len > aux_size) {
    response_len = aux_size - cursor;
    flags |= kFlagResponseTruncated;
  }
  if (response_len != 0) {
    std::memcpy(aux + cursor, result.response.data(), response_len);
  }
  store<std::uint32_t>(aux, kResponseLenOff,
                       static_cast<std::uint32_t>(response_len));
  store<std::uint32_t>(aux, kFlagsOff, flags);

  // Publish: everything above must be visible before the magic.
  std::atomic_thread_fence(std::memory_order_release);
  store<std::uint32_t>(aux, kMagicOff, kAuxCompleteMagic);
}

bool aux_load(const std::uint8_t* aux, std::size_t aux_size, AuxResult& out) {
  out.events = 0;
  out.faults.clear();
  out.response.clear();
  out.response_truncated = false;
  out.faults_truncated = false;
  if (load<std::uint32_t>(aux, kMagicOff) != kAuxCompleteMagic) return false;
  std::atomic_thread_fence(std::memory_order_acquire);

  out.events = load<std::uint64_t>(aux, kEventsOff);
  const std::uint32_t fault_count = load<std::uint32_t>(aux, kFaultCountOff);
  const std::uint32_t response_len =
      load<std::uint32_t>(aux, kResponseLenOff);
  const std::uint32_t flags = load<std::uint32_t>(aux, kFlagsOff);
  out.response_truncated = (flags & kFlagResponseTruncated) != 0;
  out.faults_truncated = (flags & kFlagFaultsTruncated) != 0;

  std::size_t cursor = kPayloadOff;
  for (std::uint32_t i = 0; i < fault_count; ++i) {
    if (cursor + 9 > aux_size) return false;  // corrupt block
    san::FaultReport fault;
    fault.kind =
        static_cast<san::FaultKind>(load<std::uint8_t>(aux, cursor));
    fault.site = load<std::uint32_t>(aux, cursor + 1);
    const std::uint32_t detail_len = load<std::uint32_t>(aux, cursor + 5);
    if (cursor + 9 + detail_len > aux_size) return false;
    fault.detail.assign(reinterpret_cast<const char*>(aux + cursor + 9),
                        detail_len);
    cursor += 9 + detail_len;
    out.faults.push_back(std::move(fault));
  }
  if (cursor + response_len > aux_size) return false;
  out.response.assign(aux + cursor, aux + cursor + response_len);
  return true;
}

void dirty_list_store(std::uint8_t* dirty_list, const std::uint16_t* indices,
                      std::uint32_t count) {
  if (count > kDirtyListCap) {
    store<std::uint32_t>(dirty_list, 0, 0);
    return;
  }
  if (count != 0) {
    std::memcpy(dirty_list + 4, indices, std::size_t{count} * 2);
  }
  store<std::uint32_t>(dirty_list, 0, count + 1);
}

bool dirty_list_load(const std::uint8_t* dirty_list,
                     const std::uint16_t*& indices, std::uint32_t& count) {
  const std::uint32_t stored = load<std::uint32_t>(dirty_list, 0);
  if (stored == 0 || stored - 1 > kDirtyListCap) return false;
  indices = reinterpret_cast<const std::uint16_t*>(dirty_list + 4);
  count = stored - 1;
  return true;
}

void result_invalidate(std::uint8_t* aux, std::uint8_t* dirty_list) {
  store<std::uint32_t>(aux, kMagicOff, 0);
  store<std::uint32_t>(dirty_list, 0, 0);
}

void slot_invalidate_result(std::uint8_t* segment, std::uint32_t slot) {
  std::uint8_t* slot_base = segment + slot_offset(slot);
  result_invalidate(slot_base + kSlotAuxOffset,
                    slot_base + kSlotDirtyListOffset);
}

void child_claim(HandoffBlock& block, std::uint32_t request) {
  const auto posted_since = [&](std::uint32_t posted) {
    return static_cast<std::int32_t>(posted - request) >= 0;
  };
  if (!posted_since(shared_load(block.request))) {
    // Announce the sleep, then re-read the word (see bump_wake_waiter).
    // The sleep is sliced like every other wait on a wake word, so a wake
    // that goes missing costs a slice, never the execution's deadline.
    for (;;) {
      std::atomic_ref<std::uint32_t>(block.request_waiting).store(1);
      const std::uint32_t posted =
          std::atomic_ref<std::uint32_t>(block.request).load();
      if (posted_since(posted)) break;
      wait_wake(&block.request, posted, kSyncWaitSliceMs);
    }
  }
  shared_store(block.claimed, request);
}

void child_complete(HandoffBlock& block, std::uint32_t request,
                    std::uint32_t iteration) {
  HandoffRecord& record = handoff_record(block, request);
  record.died = 0;
  record.iteration = iteration;
  shared_store(record.done, request);
  bump_wake_waiter(&block.wake, &block.wake_waiting);
}

namespace {

/// Publishes a server-observed death of the child serving `request`.
void publish_result(HandoffBlock& block, std::uint32_t request, int wstatus,
                   std::uint32_t iteration) {
  HandoffRecord& record = handoff_record(block, request);
  record.died = 1;
  record.wstatus = wstatus;
  record.iteration = iteration;
  shared_store(record.done, request);
}

bool request_done(HandoffBlock& block, std::uint32_t request) {
  return shared_load(handoff_record(block, request).done) == request;
}

int reap_pid(pid_t pid, int pidfd) {
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  ::close(pidfd);
  return wstatus;
}

}  // namespace

int ExecChild::fork(HandoffBlock& block) {
  if (alive()) return 1;
  const pid_t server = ::getpid();
  claimed_at_fork_ = shared_load(block.claimed);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Die with the server: a server that exits without reaping must not
    // leave a child blocked on the request word forever.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != server) ::_exit(0);
    return 0;
  }
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd < 0) {
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    return -1;
  }
  pid_ = pid;
  pidfd_ = fd;
  std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
  return 1;
}

bool ExecChild::requests_pending(HandoffBlock& block) {
  // Sequentially consistent, after the generation bump: pairs with the
  // client's request bump and generation read (see the protocol comment).
  const std::uint32_t posted =
      std::atomic_ref<std::uint32_t>(block.request).load();
  return static_cast<std::int32_t>(posted - shared_load(block.claimed)) > 0;
}

std::uint32_t ExecChild::clear_next_map(HandoffBlock& block,
                                        std::uint8_t* segment) {
  if (!requests_pending(block)) return kNumSlots;
  const std::uint32_t slot =
      request_slot(block, shared_load(block.claimed) + 1);
  std::memset(segment + slot_offset(slot), 0, cov::kMapSize);
  return slot;
}

bool ExecChild::claimed_any(HandoffBlock& block) const {
  return shared_load(block.claimed) != claimed_at_fork_;
}

int ExecChild::reap() {
  const int wstatus = reap_pid(pid_, pidfd_);
  pid_ = -1;
  pidfd_ = -1;
  return wstatus;
}

void ExecChild::publish_death(HandoffBlock& block, int wstatus) {
  const std::uint32_t claimed = shared_load(block.claimed);
  bool published = false;
  if (claimed != claimed_at_fork_) {
    // Died on (or after) the last request it took.
    if (!request_done(block, claimed)) {
      publish_result(block, claimed, wstatus, claimed - claimed_at_fork_);
      published = true;
    }
  } else if (static_cast<std::int32_t>(shared_load(block.request) - claimed) >
             0) {
    // Died before taking its first request (a preloaded target that
    // crashed on its way to the loop): that request is the casualty.
    shared_store(block.claimed, claimed + 1);
    publish_result(block, claimed + 1, wstatus, 1);
    published = true;
  }
  std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
  // A budget recycle published nothing, and no client waits on it: the
  // next request's fork is settled through the request and generation
  // words alone.
  if (published) bump_wake(&block.wake);
}

int ExecChild::kill_for_deadline(HandoffBlock& block,
                                 std::uint32_t request) {
  if (request_done(block, request)) return 0;  // finished at the boundary
  const int wstatus = kill_and_reap(block);
  const std::uint32_t claimed = shared_load(block.claimed);
  const std::int32_t ahead = static_cast<std::int32_t>(claimed - request);
  if (ahead >= 0 && request_done(block, claimed)) {
    // Everything through `claimed` finished before the kill landed.
  } else if (ahead > 0) {
    // The kill caught a later request the client has not timed out: it
    // did not finish, so the next child serves it again from scratch.
    shared_store(block.claimed, claimed - 1);
  } else {
    publish_result(block, request, wstatus, request - claimed_at_fork_);
    shared_store(block.claimed, request);
  }
  bump_wake(&block.wake);
  return wstatus;
}

int ExecChild::retire_and_post(HandoffBlock& block) {
  const int wstatus = kill_and_reap(block);
  bump_wake(&block.request);
  return wstatus;
}

int ExecChild::kill_and_reap(HandoffBlock& block) {
  if (!alive()) return 0;
  ::kill(pid_, SIGKILL);
  const int wstatus = reap();
  std::atomic_ref<std::uint32_t>(block.generation).fetch_add(1);
  return wstatus;
}

void ExecChild::kill() {
  if (!alive()) return;
  ::kill(pid_, SIGKILL);
  reap();
}

bool read_request(Request& request, Bytes& packet) {
  if (!read_full(kCtlFd, &request, sizeof request)) return false;
  packet.clear();
  if (request.packet_len == 0) return true;
  if (request.op != Op::kFork || request.packet_len > kMaxPacketBytes) {
    return false;
  }
  packet.resize(request.packet_len);
  return read_full(kCtlFd, packet.data(), packet.size());
}

bool slot_store_packet(std::uint8_t* segment, std::uint32_t slot,
                       ByteSpan packet) {
  if (packet.size() > kSlotPacketBytes) return false;
  std::uint8_t* buffer = segment + slot_offset(slot) + kSlotTestCaseOffset;
  store<std::uint32_t>(buffer, 0, static_cast<std::uint32_t>(packet.size()));
  if (!packet.empty()) {
    std::memcpy(buffer + 4, packet.data(), packet.size());
  }
  return true;
}

ByteSpan slot_load_packet(const std::uint8_t* segment, std::uint32_t slot) {
  const std::uint8_t* buffer =
      segment + slot_offset(slot) + kSlotTestCaseOffset;
  std::uint32_t length = load<std::uint32_t>(buffer, 0);
  if (length > kSlotPacketBytes) length = 0;  // corrupt header
  return ByteSpan(buffer + 4, length);
}

bool write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// Shared poll-then-transfer loop behind the deadline-aware exact read and
/// write. `events` is POLLIN or POLLOUT; `transfer` performs one
/// read/write step and reports bytes moved (0 = peer closed for reads;
/// writes report closure via -1/EPIPE).
template <typename Transfer>
ReadStatus full_io_deadline(int fd, std::size_t size, int timeout_ms,
                            short events, Transfer transfer) {
  using Clock = std::chrono::steady_clock;
  const bool unbounded = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(unbounded ? 0 : timeout_ms);
  std::size_t done = 0;
  while (done < size) {
    int wait_ms = -1;
    if (!unbounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      if (remaining.count() <= 0) return ReadStatus::kTimeout;
      wait_ms = static_cast<int>(remaining.count()) + 1;
    }
    struct pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (ready == 0) return ReadStatus::kTimeout;
    const ssize_t n = transfer(done);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return ReadStatus::kClosed;
    }
    if (n == 0 && events == POLLIN) return ReadStatus::kClosed;  // EOF
    done += static_cast<std::size_t>(n);
  }
  return ReadStatus::kOk;
}

}  // namespace

ReadStatus read_full_deadline(int fd, void* data, std::size_t size,
                              int timeout_ms) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  return full_io_deadline(fd, size, timeout_ms, POLLIN,
                          [fd, bytes, size](std::size_t done) {
                            return ::read(fd, bytes + done, size - done);
                          });
}

ReadStatus write_full_deadline(int fd, const void* data, std::size_t size,
                               int timeout_ms) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  return full_io_deadline(fd, size, timeout_ms, POLLOUT,
                          [fd, bytes, size](std::size_t done) {
                            return ::write(fd, bytes + done, size - done);
                          });
}

}  // namespace icsfuzz::oop
