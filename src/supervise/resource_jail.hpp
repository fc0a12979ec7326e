// ResourceJail — rlimit sandbox for out-of-process fuzz children.
//
// Campaigns run untrusted inputs against targets that can allocate without
// bound; without a jail an OOM'd child either drags the host into swap or
// is killed by the kernel OOM killer and booked as a generic crash. The
// jail caps the child's address space (RLIMIT_AS) and CPU time
// (RLIMIT_CPU), suppresses core dumps (RLIMIT_CORE — a crashing campaign
// writes thousands of them otherwise), and installs a std::new_handler
// that exits with the distinctive kOomExitCode so the parent can classify
// allocation-failure deaths as ExecStatus::kOom instead of kCrash.
//
// The jail crosses the exec boundary as environment variables: the parent
// (oop::TargetProcess, at every spawn) serializes the limits with
// append_jail_env(); the fork-server shim re-reads them with
// jail_from_env() and applies them inside every forked execution child
// (apply_in_child) — never in the fork server itself, which must stay
// alive across crashing children. A TCP session server has no execution
// children (it serves every session itself), so it applies the jail to
// its own process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace icsfuzz::supervise {

/// Child exit code marking an allocation-failure death (the jail's
/// new_handler). Distinct from the shim's exec-failure codes (126/127) and
/// from any small status a protocol target returns.
inline constexpr int kOomExitCode = 79;

/// Environment variables carrying the jail across the exec boundary.
inline constexpr const char* kJailAsEnv = "ICSFUZZ_JAIL_AS_MB";
inline constexpr const char* kJailCpuEnv = "ICSFUZZ_JAIL_CPU_S";
inline constexpr const char* kJailCoreEnv = "ICSFUZZ_JAIL_CORE";

struct ResourceJail {
  /// RLIMIT_AS cap in MiB (0 = unlimited).
  std::uint64_t address_space_mb = 0;
  /// RLIMIT_CPU cap in seconds (0 = unlimited). A belt-and-braces bound
  /// behind the wall-clock exec deadline: a child spinning with signals
  /// blocked still dies on SIGXCPU.
  std::uint32_t cpu_seconds = 0;
  /// Keep core dumps (default: suppressed while the jail is active).
  bool allow_core_dumps = false;

  /// An all-default jail is inert: nothing is exported to the child and
  /// spawn behavior is bit-identical to the pre-jail executor.
  [[nodiscard]] bool enabled() const {
    return address_space_mb != 0 || cpu_seconds != 0;
  }
};

/// Appends the jail's env entries ("NAME=value" strings) to `env`.
/// No-op for a disabled jail.
void append_jail_env(const ResourceJail& jail, std::vector<std::string>& env);

/// Reconstructs the jail from the current environment (the shim side).
[[nodiscard]] ResourceJail jail_from_env();

/// Applies the jail to the calling process: setrlimit AS/CPU/CORE plus the
/// OOM-marking new_handler. Call in the process about to run the target
/// (a forked execution child, or a TCP session server), before it runs.
/// No-op for a disabled jail.
/// Async-signal-safe except for set_new_handler (safe directly after fork).
void apply_in_child(const ResourceJail& jail);

}  // namespace icsfuzz::supervise
