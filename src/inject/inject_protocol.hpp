// Instrumentation-injection contract shared by the LD_PRELOAD runtime
// (libicsfuzz-preload.so, built from preload_runtime.cpp + sancov_bridge.cpp)
// and the fuzzer-side spawn helpers (preload_spawn.hpp) / inspection tool
// (tools/icsfuzz_inject_check.cpp).
//
// The runtime turns an arbitrary binary — one that never linked icsfuzz —
// into a fork-server target speaking exec_oop/exec_protocol.hpp:
//
//   * Its constructor runs before the host binary's main(). When the
//     ICSFUZZ_OOP_SHM environment pair is present it attaches the segment
//     and (in fork mode) takes over the process as the fork server: the
//     original main() only ever runs inside per-execution fork children,
//     which receive the packet on stdin.
//   * A SanitizerCoverage bridge maps `-fsanitize-coverage=trace-pc-guard`
//     guard hits (and the gcc-flavored `trace-pc` callback) into the same
//     64 KiB coverage map cells the in-tree instrumentation uses, so the
//     sparse adopt_external + finalize_execution analysis downstream is
//     unchanged. Uninstrumented binaries simply leave the map empty and
//     run fault-driven (crash/hang/OOM classification still works — it
//     derives from wait status + the aux completion magic, not coverage).
//   * In tcp mode the runtime instead interposes the host server's own
//     listen/accept/write/close calls to speak the TCP session wire
//     (session/session_wire.hpp) around the unmodified server loop.
//
// docs/INJECTION.md is the operator-facing description of this contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec_oop/exec_protocol.hpp"

namespace icsfuzz::inject {

/// Selects what the preload runtime does when the shm env pair is present.
/// Absent (or "fork"): fork-server mode. "tcp": TCP session-server
/// interposition mode.
inline constexpr const char* kInjectModeEnv = "ICSFUZZ_INJECT_MODE";
inline constexpr const char* kInjectModeFork = "fork";
inline constexpr const char* kInjectModeTcp = "tcp";

/// Set to "0" to veto persistent-mode advertisement even when the target
/// exports the cooperation marker (debugging / forcing fork-per-exec).
inline constexpr const char* kInjectPersistentEnv = "ICSFUZZ_INJECT_PERSISTENT";

/// Persistent-mode cooperation marker: the runtime advertises
/// kCapPersistent only when dlsym(RTLD_DEFAULT) finds this symbol — i.e.
/// the target binary exports it (requires linking with -Wl,--export-dynamic)
/// and drives its input loop through the __icsfuzz_persistent_loop /
/// __icsfuzz_testcase hooks below. Targets without the marker degrade
/// gracefully to fork-per-exec (the hello simply carries caps == 0).
inline constexpr const char* kPersistentMarkerSymbol =
    "icsfuzz_persistent_target";

// Weak-hook names a cooperating target declares (weak, so the same binary
// runs standalone when the runtime is not preloaded):
//   extern "C" int __icsfuzz_persistent_loop(void);
//     First call of an iteration returns 1 ("run one execution"); the call
//     after the final budgeted iteration publishes that iteration's aux
//     block and _exit(0)s (budget recycle). Outside a persistent child it
//     returns 0, which routes the target to its standalone input path.
//   extern "C" const unsigned char* __icsfuzz_testcase(unsigned* len);
//     The current iteration's packet (the shm test-case slot).
//   extern "C" void __icsfuzz_set_response(const void* data, unsigned len);
//     Optional: publishes response bytes into the iteration's aux block.
inline constexpr const char* kPersistentLoopSymbol =
    "__icsfuzz_persistent_loop";

/// Info block the runtime publishes inside the (otherwise unused) tail of
/// the control block: [u32 magic][u32 version][u32 guard_count]
/// [u32 flags]. Exec children write it after module initializers have
/// registered their sancov guard ranges, so guard_count reports what the
/// target actually instruments; icsfuzz-inject-check reads it back after a
/// probe execution. A TCP-sized segment has no control block and carries
/// no info block.
inline constexpr std::size_t kInjectInfoOffset = oop::kCtlBlockOffset + 32;
inline constexpr std::uint32_t kInjectInfoMagic = 0x494E4A31;  // "INJ1"
inline constexpr std::uint32_t kInjectRuntimeVersion = 1;
/// Info flag: at least one sancov guard range was registered.
inline constexpr std::uint32_t kInjectFlagSancov = 1u << 0;
/// Info flag: the runtime advertised persistent mode.
inline constexpr std::uint32_t kInjectFlagPersistent = 1u << 1;
/// Info flag: the runtime is running in tcp interposition mode.
inline constexpr std::uint32_t kInjectFlagTcp = 1u << 2;

struct InjectInfo {
  bool present = false;
  std::uint32_t version = 0;
  std::uint32_t guard_count = 0;
  std::uint32_t flags = 0;

  [[nodiscard]] bool sancov() const {
    return (flags & kInjectFlagSancov) != 0;
  }
};

/// Reads the info block out of a fork-server segment (fuzzer side, after
/// at least one execution). `present` is false when no preload runtime
/// wrote it — e.g. the target is a native shim, or the segment is
/// TCP-sized.
InjectInfo read_inject_info(const std::uint8_t* segment,
                            std::size_t segment_size);

/// Appends the environment entries that spawn `target_cmd` under the
/// preload runtime: LD_PRELOAD=<preload_path> (prepended, colon-separated,
/// to any LD_PRELOAD already in this process' environment so operator
/// preloads survive) and ICSFUZZ_INJECT_MODE=<mode>. No-op when
/// `preload_path` is empty.
void append_preload_env(const std::string& preload_path, const char* mode,
                        std::vector<std::string>& env);

/// The sancov-bridge cell mapping, shared verbatim by the runtime and the
/// tools that predict or document it: a guard index (or hashed return
/// address) is finalized with a 32-bit splitmix-style mixer, masked into
/// the map, and combined with the shifted previous location — the paper's
/// `shared_mem[cur ^ prev]++; prev = cur >> 1` scheme, with the mixer
/// standing in for the compile-time site hash the in-tree instrumentation
/// uses.
[[nodiscard]] constexpr std::uint32_t mix_guard(std::uint32_t id) {
  id += 0x9E3779B9u;
  id ^= id >> 16;
  id *= 0x85EBCA6Bu;
  id ^= id >> 13;
  id *= 0xC2B2AE35u;
  id ^= id >> 16;
  return id;
}

}  // namespace icsfuzz::inject
