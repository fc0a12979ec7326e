// Hot-path allocation discipline + dedup-bound regression tests.
//
// The zero-allocation packet pipeline promises that steady-state executions
// perform no heap allocations: Executor::run_into reuses the ExecResult's
// vectors, FaultSink::disarm_into swaps instead of reallocating,
// MutatorSuite::mutate_bytes_into ping-pongs caller-owned buffers, and both
// generators rebuild reused per-model trees. This
// file asserts those promises with a counting global allocator (each test
// binary is standalone, so overriding operator new here is safe), and
// covers the GenerationalDedup half-clear scheme that replaced the
// wipe-everything dedup reset.
#include <gtest/gtest.h>

#include "bench/counting_allocator.hpp"
#include "coverage/instrument.hpp"
#include "fuzzer/dedup.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "mutation/mutator.hpp"
#include "pits/pits.hpp"
#include "protocols/dnp3/dnp3_server.hpp"
#include "protocols/iccp/iccp_server.hpp"
#include "protocols/iec104/iec104_server.hpp"
#include "protocols/iec61850/mms_server.hpp"
#include "protocols/lib60870/cs101_server.hpp"
#include "protocols/modbus/modbus_server.hpp"
#include "protocols/protocol_target.hpp"
#include "protocols/target_registry.hpp"
#include "sanitizer/fault.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace icsfuzz::fuzz {
namespace {

using bench_alloc::g_allocations;

/// Deterministic allocation-free target: traces a few edges derived from
/// the packet bytes and echoes the packet through the reused response
/// buffer (process_into never allocates once the buffer has capacity).
class StubTarget final : public ProtocolTarget {
 public:
  [[nodiscard]] std::string_view name() const override { return "stub"; }
  void reset() override {}

  Bytes process(ByteSpan packet) override {
    Bytes response;
    process_into(packet, response);
    return response;
  }

  void process_into(ByteSpan packet, Bytes& response) override {
    for (const std::uint8_t byte : packet) {
      cov::hit(static_cast<std::uint32_t>(byte) * 977u + 13u);
    }
    response.assign(packet.begin(), packet.end());
  }
};

TEST(ZeroAllocation, ExecutorSteadyStateRunsAllocationFree) {
  StubTarget target;
  Executor executor;
  ExecResult result;
  const std::vector<Bytes> packets = {
      Bytes{1, 2, 3, 4}, Bytes{9, 8, 7}, Bytes{1, 1, 1, 1, 1}, Bytes{0x42}};

  // Warm-up: vector capacities converge, every distinct path hash enters
  // the PathTracker.
  for (int i = 0; i < 64; ++i) {
    executor.run_into(target, packets[static_cast<std::size_t>(i) %
                                      packets.size()],
                      result);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 512; ++i) {
    executor.run_into(target, packets[static_cast<std::size_t>(i) %
                                      packets.size()],
                      result);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state executions must not touch the heap";
  EXPECT_EQ(executor.executions(), 576u);
  EXPECT_FALSE(result.crashed());
  EXPECT_GT(result.trace_edges, 0u);
}

TEST(ZeroAllocation, MutateBytesIntoPingPongIsAllocationFree) {
  const mutation::MutatorSuite mutators;
  Rng rng(123);
  const Bytes seed = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  Bytes a;
  Bytes b;

  // Warm-up until the ping-pong buffers reach their steady capacity (each
  // mutation grows the packet by at most 8 bytes before the next iteration
  // re-seeds, so capacity converges quickly).
  for (int i = 0; i < 4096; ++i) {
    a.assign(seed.begin(), seed.end());
    mutators.mutate_bytes_into(a, b, rng);
    a.swap(b);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 4096; ++i) {
    a.assign(seed.begin(), seed.end());
    mutators.mutate_bytes_into(a, b, rng);
    a.swap(b);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(ZeroAllocation, ValueReturningMutateStillMatchesIntoVariant) {
  // The wrapper draws the identical RNG sequence, so both forms produce
  // identical packets from identical RNG states.
  const mutation::MutatorSuite mutators;
  const Bytes seed = {10, 20, 30, 40, 50};
  Rng rng_value(77);
  Rng rng_into(77);
  for (int i = 0; i < 200; ++i) {
    const Bytes by_value = mutators.mutate_bytes(seed, rng_value);
    Bytes into;
    mutators.mutate_bytes_into(seed, into, rng_into);
    ASSERT_EQ(by_value, into) << "iteration " << i;
  }
}

// ------------------------------------------------------------------------
// Per-server steady-state allocation audits.
//
// Each real protocol stack is driven with a benign session mix through
// process_into, the way the executor drives it: reset, arm the fault sink,
// parse into a reused response buffer. After a warm-up phase in which the
// member scratch writers converge, steady-state processing must not touch
// the heap. The mixes deliberately avoid the injected vulnerability sites
// (the Modbus 0x17/0x2B handlers and the ICCP Write service stage their
// data in GuardedAllocs, which allocate by design).

/// One pass over the mix; returns false if any packet faulted or came back
/// without a response.
bool run_mix(ProtocolTarget& server, const std::vector<Bytes>& mix,
             Bytes& response, std::vector<san::FaultReport>& faults) {
  bool clean = true;
  for (const Bytes& packet : mix) {
    server.reset();
    san::FaultSink::arm();
    server.process_into(ByteSpan(packet.data(), packet.size()), response);
    san::FaultSink::disarm_into(faults);
    clean = clean && faults.empty() && !response.empty();
  }
  return clean;
}

void expect_steady_state_alloc_free(ProtocolTarget& server,
                                    const std::vector<Bytes>& mix) {
  Bytes response;
  std::vector<san::FaultReport> faults;
  for (int round = 0; round < 64; ++round) {
    ASSERT_TRUE(run_mix(server, mix, response, faults))
        << server.name() << ": warm-up round " << round << " not clean";
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool clean = true;
  for (int round = 0; round < 256; ++round) {
    clean = run_mix(server, mix, response, faults) && clean;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(clean) << server.name() << ": measured rounds not clean";
  EXPECT_EQ(after - before, 0u)
      << server.name() << ": steady-state process_into must not allocate";
}

// -- Benign session builders (these allocate freely: packets are built
//    once, before the measured loop). -----------------------------------

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) append(out, part);
  return out;
}

Bytes mbap_frame(Bytes pdu) {
  ByteWriter writer;
  writer.write_u16(0x0001, Endian::Big);  // transaction
  writer.write_u16(0x0000, Endian::Big);  // protocol
  writer.write_u16(static_cast<std::uint16_t>(pdu.size() + 1), Endian::Big);
  writer.write_u8(proto::ModbusServer::kUnitId);
  writer.write_bytes(pdu);
  return writer.take();
}

Bytes dnp3_link_frame(Bytes user_data) {
  ByteWriter writer;
  writer.write_u8(0x05);
  writer.write_u8(0x64);
  writer.write_u8(static_cast<std::uint8_t>(5 + user_data.size()));
  writer.write_u8(0xC4);  // PRM=1, unconfirmed user data
  writer.write_u16(proto::Dnp3Server::kLocalAddress, Endian::Little);
  writer.write_u16(0x0001, Endian::Little);  // master address
  writer.write_u16(crc16_dnp3(ByteSpan(writer.bytes().data(), 8)),
                   Endian::Little);
  std::size_t offset = 0;
  while (offset < user_data.size()) {
    const std::size_t block =
        user_data.size() - offset < 16 ? user_data.size() - offset : 16;
    const ByteSpan slice(user_data.data() + offset, block);
    writer.write_bytes(slice);
    writer.write_u16(crc16_dnp3(slice), Endian::Little);
    offset += block;
  }
  return writer.take();
}

Bytes tpkt(Bytes pdu) {
  ByteWriter writer;
  writer.write_u8(0x03);
  writer.write_u8(0x00);
  writer.write_u16(static_cast<std::uint16_t>(4 + pdu.size()), Endian::Big);
  writer.write_bytes(pdu);
  return writer.take();
}

Bytes tlv(std::uint8_t tag, Bytes value) {
  Bytes out{tag, static_cast<std::uint8_t>(value.size())};
  append(out, value);
  return out;
}

/// Confirmed-request PDU (tag 0xA0): 4-byte invoke id + one service TLV.
/// The MMS and ICCP stacks share this envelope.
Bytes confirmed(std::uint8_t service_tag, Bytes body) {
  Bytes inner = tlv(0x02, {0x00, 0x00, 0x00, 0x01});
  append(inner, tlv(service_tag, std::move(body)));
  return tlv(0xA0, inner);
}

Bytes visible_string(const std::string& text) {
  return tlv(0x1A, Bytes(text.begin(), text.end()));
}

/// APCI I-frame with explicit send sequence (IEC 104 enforces N(S)).
Bytes apci_i_frame(Bytes asdu, std::uint16_t send_seq = 0) {
  ByteWriter writer;
  writer.write_u8(0x68);
  writer.write_u8(static_cast<std::uint8_t>(4 + asdu.size()));
  writer.write_u16(static_cast<std::uint16_t>(send_seq << 1), Endian::Little);
  writer.write_u16(0, Endian::Little);
  writer.write_bytes(asdu);
  return writer.take();
}

const Bytes kStartDtAct{0x68, 0x04, 0x07, 0x00, 0x00, 0x00};
const Bytes kTestFrAct{0x68, 0x04, 0x43, 0x00, 0x00, 0x00};

TEST(ZeroAllocation, ModbusSteadyStateIsAllocationFree) {
  proto::ModbusServer server;
  expect_steady_state_alloc_free(
      server, {
                  mbap_frame({0x01, 0x00, 0x00, 0x00, 0x10}),  // read coils
                  mbap_frame({0x03, 0x00, 0x02, 0x00, 0x03}),  // read holding
                  mbap_frame({0x04, 0x00, 0x00, 0x00, 0x08}),  // read input
                  mbap_frame({0x06, 0x00, 0x01, 0x12, 0x34}),  // write single
                  mbap_frame({0x03, 0x00, 0x7F, 0x00, 0x10}),  // exception
              });
}

TEST(ZeroAllocation, Dnp3SteadyStateIsAllocationFree) {
  proto::Dnp3Server server;
  // Transport octet (FIR|FIN seq 0) + app header + class-0 read object.
  expect_steady_state_alloc_free(
      server, {
                  dnp3_link_frame({0xC0, 0xC0, 0x01, 0x01, 0x01, 0x06}),
                  dnp3_link_frame({0xC0, 0xC0, 0x01, 0x1E, 0x01, 0x01, 0x00,
                                   0x00, 0x03, 0x00}),
              });
}

TEST(ZeroAllocation, Iec104SteadyStateIsAllocationFree) {
  proto::Iec104Server server;
  const Bytes interro{100, 1, 6, 0, 1, 0, 0, 0, 0, 20};
  const Bytes select{45, 1, 6, 0, 1, 0, 0x00, 0x10, 0x00, 0x81};
  const Bytes execute{45, 1, 6, 0, 1, 0, 0x00, 0x10, 0x00, 0x01};
  expect_steady_state_alloc_free(
      server, {
                  cat({kStartDtAct, apci_i_frame(interro)}),
                  cat({kStartDtAct, kTestFrAct, apci_i_frame(interro)}),
                  cat({kStartDtAct, apci_i_frame(select, 0),
                       apci_i_frame(execute, 1)}),
              });
}

TEST(ZeroAllocation, MmsSteadyStateIsAllocationFree) {
  proto::MmsServer server;
  Bytes initiate_params;
  append(initiate_params, tlv(0x80, {0x00, 0x00, 0x7D, 0x00}));
  append(initiate_params, tlv(0x81, {0x01}));
  append(initiate_params, tlv(0x82, {0xF1, 0x00}));
  append(initiate_params, tlv(0x83, Bytes(8, 0xEE)));
  const Bytes initiate = tlv(0xA8, initiate_params);
  expect_steady_state_alloc_free(
      server,
      {
          cat({tpkt(initiate), tpkt(confirmed(0x82, {0x00}))}),  // identify
          // Domain name list paginates through the LN$DO scratch buffer;
          // the read resolves a >15-char reference (SSO would not save it).
          cat({tpkt(initiate), tpkt(confirmed(0xA1, tlv(0x80, {0x09})))}),
          cat({tpkt(initiate),
               tpkt(confirmed(
                   0xA4,
                   visible_string("simpleIOGenericIO/MMXU1$MX$TotW$mag")))}),
      });
}

TEST(ZeroAllocation, Cs101SteadyStateIsAllocationFree) {
  proto::Cs101Server server;
  const Bytes interro = apci_i_frame({100, 1, 6, 0, 3, 0, 0, 0, 0, 20});
  const Bytes select = apci_i_frame({45, 1, 6, 0, 3, 0, 0x00, 0x20, 0x00, 0x81});
  const Bytes execute = apci_i_frame({45, 1, 6, 0, 3, 0, 0x00, 0x20, 0x00, 0x01});
  // Well-formed SQ=0 measurand report: two objects of IOA(3)+value(2)+QDS(1).
  const Bytes measurands = apci_i_frame({11, 2, 6, 0, 3, 0,  //
                                         0, 0, 0, 0x11, 0x22, 0x00,
                                         1, 0, 0, 0x33, 0x44, 0x00});
  expect_steady_state_alloc_free(
      server, {
                  cat({kStartDtAct, interro}),
                  cat({kStartDtAct, select, execute}),
                  cat({kStartDtAct, measurands, interro}),
              });
}

TEST(ZeroAllocation, IccpSteadyStateIsAllocationFree) {
  proto::IccpServer server;
  Bytes initiate_params;
  append(initiate_params, tlv(0x80, {0x00, 0x00, 0x1F, 0x40}));
  append(initiate_params, tlv(0x81, {0x05}));
  append(initiate_params, tlv(0x82, {0x01}));
  const Bytes initiate = tlv(0xA8, initiate_params);
  expect_steady_state_alloc_free(
      server,
      {
          // Read + name list; the Write service is excluded (GuardedAlloc
          // staging buffer allocates by design).
          cat({tpkt(initiate), tpkt(confirmed(0xA4, tlv(0x80, {0x03})))}),
          cat({tpkt(initiate), tpkt(confirmed(0xA1, tlv(0x80, {0x00})))}),
      });
}

// ------------------------------------------------------------------------
// Generation allocation audits.
//
// Both generators build into reused per-model trees (model::TreeBuilder):
// after a warm-up in which every Choice alternative has been built once and
// the leaf buffers have reached their largest sizes, generating a packet
// must not touch the heap — on every pit, with a real puzzle corpus.

constexpr int kGenerationWarmup = 100000;
constexpr int kGenerationMeasured = 5000;

/// Heap allocations over kGenerationMeasured packets of `generate(model,
/// rng, out)`, each from a random model of `models`, after warm-up.
template <typename Generate>
std::uint64_t generation_allocs(const model::DataModelSet& models,
                                Generate&& generate) {
  Rng rng(0xA110C);
  Bytes out;
  for (int i = 0; i < kGenerationWarmup; ++i) {
    generate(models.models()[rng.index(models.size())], rng, out);
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kGenerationMeasured; ++i) {
    generate(models.models()[rng.index(models.size())], rng, out);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, InstantiatorGenerationIsAllocationFree) {
  for (const std::string& project : pits::all_project_names()) {
    const model::DataModelSet models = pits::pit_for_project(project);
    const ModelInstantiator instantiator;
    const std::uint64_t allocs = generation_allocs(
        models, [&](const model::DataModel& model, Rng& rng, Bytes& out) {
          instantiator.generate_into(model, rng, out);
        });
    EXPECT_EQ(allocs, 0u) << project;
  }
}

TEST(ZeroAllocation, SemanticGenerationIsAllocationFree) {
  for (const std::string& project : pits::all_project_names()) {
    const model::DataModelSet models = pits::pit_for_project(project);
    // The puzzle corpus of a short Peach* campaign.
    FuzzerConfig config;
    config.telemetry = telem::Sink();
    std::unique_ptr<ProtocolTarget> target = proto::target_factory(project)();
    Fuzzer fuzzer(*target, models, config);
    fuzzer.run(3000);
    ASSERT_FALSE(fuzzer.corpus().empty()) << project;

    const SemanticGenerator generator(config.semantic, config.mutators);
    const std::uint64_t allocs = generation_allocs(
        models, [&](const model::DataModel& model, Rng& rng, Bytes& out) {
          generator.generate_into(model, fuzzer.corpus(), rng, out);
        });
    EXPECT_EQ(allocs, 0u) << project;
  }
}

TEST(GenerationalDedup, DedupSurvivesTheRotationThreshold) {
  // Capacity 64 -> generations rotate every 32 inserts. The regression the
  // old wipe-everything scheme had: immediately after the threshold, ALL
  // dedup state was gone and recent packets re-executed. Here the newest
  // half must stay deduplicated across the rotation.
  GenerationalDedup dedup(64);
  for (std::uint64_t h = 1; h <= 32; ++h) {
    EXPECT_TRUE(dedup.insert(h)) << h;
  }
  // Rotation happened at h=32; everything recent must still be known.
  for (std::uint64_t h = 1; h <= 32; ++h) {
    EXPECT_TRUE(dedup.contains(h)) << h;
    EXPECT_FALSE(dedup.insert(h)) << h;
  }
  // Fill the second generation; the first is dropped only after ANOTHER
  // full half-capacity of fresh hashes.
  for (std::uint64_t h = 33; h <= 64; ++h) {
    EXPECT_TRUE(dedup.insert(h)) << h;
  }
  for (std::uint64_t h = 33; h <= 64; ++h) {
    EXPECT_FALSE(dedup.insert(h)) << h;
  }
  // Memory stays bounded by the capacity.
  EXPECT_LE(dedup.size(), dedup.capacity());
}

TEST(GenerationalDedup, OldestGenerationIsReleasedNotTheWholeSet) {
  GenerationalDedup dedup(64);
  for (std::uint64_t h = 1; h <= 95; ++h) dedup.insert(h);
  // Rotations fired at 32 and 64: the oldest generation (1..32) is gone,
  // while 33..95 span the two live generations and remain deduplicated.
  for (std::uint64_t h = 1; h <= 32; ++h) {
    EXPECT_FALSE(dedup.contains(h)) << h;
  }
  for (std::uint64_t h = 33; h <= 95; ++h) {
    EXPECT_TRUE(dedup.contains(h)) << h;
  }
  EXPECT_LE(dedup.size(), 64u);
}

TEST(GenerationalDedup, UnboundedBehaviourBelowHalfCapacity) {
  GenerationalDedup dedup;  // default 2^21
  for (std::uint64_t h = 1; h <= 10000; ++h) {
    EXPECT_TRUE(dedup.insert(h));
  }
  for (std::uint64_t h = 1; h <= 10000; ++h) {
    EXPECT_FALSE(dedup.insert(h));
  }
  EXPECT_EQ(dedup.size(), 10000u);
}

}  // namespace
}  // namespace icsfuzz::fuzz
