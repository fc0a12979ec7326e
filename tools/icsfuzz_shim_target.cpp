// icsfuzz-shim-target — fork-server harness over the instrumented
// protocol stacks.
//
//   icsfuzz-shim-target --project libmodbus
//   icsfuzz-shim-target --project IEC104 --tcp
//
// Spawned by the fuzzer's OutOfProcessExecutor (never by hand): attaches
// the shared-memory coverage segment named in the environment, performs
// the fork-server handshake on the inherited protocol descriptors, and
// serves executions — one fork per packet — against the named project's
// server (the same six stacks the in-process executor drives, which is
// what makes in-process vs out-of-process execution a built-in
// differential oracle).
//
// With --tcp the harness becomes a loopback *session* server instead
// (session/tcp_server.hpp): it binds an ephemeral 127.0.0.1 port,
// announces it over the status descriptor, and serves whole stateful
// sessions — one TCP connection each, read to EOF and split with the
// project's message framing — for the kTcp session backend.
//
// ICSFUZZ_SHIM_* environment knobs inject deterministic faults (child
// kill / hang / OOM / server crash / no handshake) for the fault-injection
// suites, in both modes; see exec_oop/target_runtime.hpp.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "exec_oop/exec_protocol.hpp"
#include "exec_oop/shim_runner.hpp"
#include "protocols/target_registry.hpp"
#include "session/framing.hpp"
#include "session/tcp_server.hpp"

int main(int argc, char** argv) {
  using namespace icsfuzz;

  std::string project;
  bool tcp = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--project") == 0 && i + 1 < argc) {
      project = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      tcp = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --project <name> [--tcp]\n"
                   "  projects: libmodbus IEC104 libiec61850 lib60870"
                   " libiec_iccp_mod opendnp3\n"
                   "  --tcp: serve stateful sessions over a loopback socket"
                   " instead of the fork-server protocol\n"
                   "  (spawned by the fuzzer's fork-server executor; expects"
                   " %s in the environment)\n",
                   argv[0], oop::kShmNameEnv);
      return 2;
    }
  }

  const auto factory = proto::target_factory(project);
  if (!factory) {
    std::fprintf(stderr, "unknown --project '%s'\n", project.c_str());
    return 2;
  }
  const std::unique_ptr<ProtocolTarget> target = factory();
  const oop::FaultPlan plan = oop::fault_plan_from_env();
  if (tcp) {
    return session::run_tcp_session_server(
        *target, session::framing_for_project(project), plan);
  }
  return oop::run_shim_server(*target, plan);
}
