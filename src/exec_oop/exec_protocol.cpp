#include "exec_oop/exec_protocol.hpp"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

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
