// POSIX shared-memory segment for out-of-process coverage collection.
//
// The paper's Peach*-clang instrumentation writes edge hits into "shared
// memory" (the AFL shm map); this class owns that segment on the fuzzer
// side. The primary backing is shm_open + mmap with a per-segment unique
// name: the name travels to the exec'd target through an environment
// variable (exec_protocol.hpp) and the child attaches with
// oop::attach_announced_segment (target_runtime.hpp). When the POSIX shm
// namespace is unavailable (no /dev/shm, sandboxed CI), creation falls
// back to an anonymous MAP_SHARED mapping, which survives fork() — enough
// for same-binary harnesses and the fallback's unit tests — but cannot be
// re-attached across exec(), so the fork server requires the named backing
// and reports a descriptive error otherwise.
//
// Lifetime: the name stays linked while the segment lives (a restarted
// fork server re-attaches by name) and is unlinked in the destructor.
// Unlinking early — by a peer, a cleanup race, or unlink_name() — never
// invalidates existing mappings; both sides keep working on the same
// pages, which the fault-injection suite asserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace icsfuzz::oop {

class ShmSegment {
 public:
  ShmSegment() = default;
  ~ShmSegment();

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  /// Creates a fresh zero-filled segment of `size` bytes. Tries shm_open
  /// with a unique generated name first; `force_anonymous` (tests) or a
  /// failing shm namespace falls back to an anonymous shared mapping.
  static ShmSegment create(std::size_t size, bool force_anonymous = false);

  [[nodiscard]] bool valid() const { return data_ != nullptr; }
  [[nodiscard]] std::uint8_t* data() { return data_; }
  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The shm_open name ("/icsfuzz-..."), empty for the anonymous fallback.
  [[nodiscard]] const std::string& name() const { return name_; }

  /// True when backed by the named POSIX shm object (re-attachable across
  /// exec); false for the anonymous fork-only fallback.
  [[nodiscard]] bool named() const { return !name_.empty(); }

  /// Why create() produced an invalid segment.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Removes the name from the shm namespace early (the mapping — ours and
  /// every attached peer's — stays fully usable). Idempotent.
  void unlink_name();

 private:
  void register_name();
  void forget_name();

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string name_;
  /// True while the name is still linked and ours to unlink (false after
  /// unlink_name()).
  bool owns_name_ = false;
  std::string error_;
};

/// Unlinks every named segment this process created and has not yet
/// unlinked (the live-name registry create() maintains). The emergency
/// half of shm hygiene: a supervisor's signal-driven shutdown calls this
/// so an interrupted campaign leaves no /dev/shm residue even when
/// executor destructors never run. Mappings in use stay valid (POSIX
/// unlink-vs-mapping semantics). Returns the number of names unlinked.
std::size_t unlink_all_registered();

/// Sweeps /dev/shm for leaked icsfuzz segments whose creator is dead: the
/// generated names embed the creating pid, so any "icsfuzz-<pid>-..."
/// entry whose /proc/<pid> no longer exists is residue of a SIGKILLed
/// campaign and is unlinked. Safe to run concurrently with live campaigns
/// (their creator pids are alive). Returns the number of names unlinked.
std::size_t sweep_orphans();

}  // namespace icsfuzz::oop
