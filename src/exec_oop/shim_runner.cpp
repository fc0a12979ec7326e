#include "exec_oop/shim_runner.hpp"

#include "coverage/instrument.hpp"
#include "sanitizer/fault.hpp"

namespace icsfuzz::oop {

namespace {

/// The child's ICSFUZZ_LOOP: up to the budget's executions in one
/// process, one per request handed over through the handoff block, each
/// through the slot lifecycle. Never returns.
[[noreturn]] void run_child(ProtocolTarget& target, std::uint8_t* segment,
                            const FaultPlan& plan, const ForkedChild& forked) {
  // Constant-initialized and touched only by this child, which enters
  // here once: a fresh child pays no page faults for slots it never uses.
  static SlotLifecycle slots;
  slots.start(segment, plan, forked);
  AuxResult result;
  for (;;) {
    std::uint8_t* map = slots.begin();
    // Same arming order as the in-process Executor::run_into — reset,
    // fault sink, then tracing — so an instrumented reset() contributes to
    // neither the map nor the event count in either mode (the differential
    // oracle depends on this symmetry, not on reset() happening to be
    // uninstrumented).
    target.reset();
    san::FaultSink::arm();
    cov::begin_trace(map);
    const cov::DirtyWordList& dirty = *cov::tls_dirty_words;

    result.response.clear();
    target.process_into(slots.packet(forked), result.response);
    result.events = cov::tls_event_count;
    cov::end_trace();
    san::FaultSink::disarm_into(result.faults);

    slots.publish(dirty.indices, dirty.count, result);
    slots.complete();
  }
}

}  // namespace

int run_shim_server(ProtocolTarget& target, const FaultPlan& plan) {
  const std::span<std::uint8_t> segment =
      attach_announced_segment(kSegmentBytesV2);
  if (segment.empty()) {
    // Not spawned by a fork server (or handed a bad segment); exiting
    // without the hello makes the client report a handshake failure with
    // this code visible in ps/logs.
    return 3;
  }
  const ForkedChild forked =
      serve_fork_requests(segment.data(), kCapPersistent, plan);
  run_child(target, segment.data(), plan, forked);
}

}  // namespace icsfuzz::oop
