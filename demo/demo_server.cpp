// icsfuzz-demo-server — an out-of-tree Modbus/MBAP-style echo server.
//
// This program intentionally links NOTHING from icsfuzz. It exists to
// demonstrate (and regression-test) the instrumentation-injection runtime:
// preloaded with libicsfuzz-preload.so it becomes a coverage-guided
// fork-server / TCP-session target; standalone it is just a small server.
//
// Input modes:
//   (default)   One execution: read a packet from stdin, process every
//               MBAP frame in it, write the responses to stdout, exit 0.
//               This is what a fork-per-exec child of the runtime runs.
//   persistent  When the preload runtime marks this process as a
//               persistent child, the weak __icsfuzz_persistent_loop hook
//               returns 1 and the loop below serves one test case per
//               iteration from shared memory (no exec, no stdin).
//   --serve     TCP server on an ephemeral loopback port: one response
//               write per complete MBAP frame, one for a trailing
//               malformed/incomplete residue at half-close — mirroring the
//               session transport's framing contract. TCP keeps no message
//               boundaries, so the server frames the request stream itself
//               (the client sends a whole session at once); the injected
//               runtime logs the length of every write, and the client
//               splits the reply stream by that log, one write per
//               message.
//
// Bulk read, function code 0x41 (in Modbus's user-defined range): the
// 2-byte body is a count of 1..kMaxBulkBytes, and the answer carries that
// many payload bytes, byte i being i mod 256. It lets a session's replies
// outgrow the socket buffers (the TCP client's full-duplex test).
//
// Fault-trigger function codes (for crash/hang/OOM classification tests):
//   0x66  null-pointer write (SIGSEGV)
//   0x67  hang forever (pause loop)
//   0x68  allocate without bound — under the fuzzer's resource jail the
//         allocation failure handler exits through the jail's OOM marker;
//         unjailed, the bounded loop completes and the run exits normally.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

// -- Cooperation hooks provided (at runtime) by libicsfuzz-preload.so. -----
// Weak and undefined here: standalone they resolve to null and the stdin
// path runs; under the runtime they drive persistent mode. The exported
// marker below is what tells the runtime this binary cooperates at all.
extern "C" int __icsfuzz_persistent_loop(void) __attribute__((weak));
extern "C" const unsigned char* __icsfuzz_testcase(unsigned* len)
    __attribute__((weak));
extern "C" void __icsfuzz_set_response(const void* data, unsigned len)
    __attribute__((weak));

extern "C" {
int icsfuzz_persistent_target = 1;
}

namespace {

// MBAP framing, mirroring the fuzzer's session framing rules: a frame
// needs 7 bytes of header, carries a big-endian declared length at bytes
// [4,6), spans 6 + declared bytes, and declared < 1 is malformed. The
// stream caps (256 messages, 1 MiB) match the client's splitter so both
// sides agree on what counts as "one message".
constexpr std::size_t kFrameHeader = 7;
constexpr std::size_t kMaxStreamMessages = 256;
constexpr std::size_t kMaxStreamBytes = std::size_t{1} << 20;

constexpr std::uint8_t kBulkRead = 0x41;
constexpr std::uint16_t kMaxBulkBytes = 0xFF00;

constexpr std::uint8_t kFaultCrash = 0x66;
constexpr std::uint8_t kFaultHang = 0x67;
constexpr std::uint8_t kFaultOom = 0x68;

[[noreturn]] void trigger_crash() {
  volatile int* null_cell = nullptr;
  *null_cell = 1;        // SIGSEGV
  for (;;) ::pause();    // not reached
}

[[noreturn]] void trigger_hang() {
  for (;;) ::pause();
}

void trigger_oom() {
  // Untouched 64 MiB chunks: address space only, bounded at 1 TiB. Under
  // the fuzzer's jail the failing allocation exits through the jail's OOM
  // handler long before the bound; unjailed the loop completes harmlessly.
  // The pointers are held (and eventually freed) so the compiler cannot
  // elide the unused allocations — an elided new never hits RLIMIT_AS.
  constexpr std::size_t kChunk = std::size_t{64} << 20;
  std::vector<std::uint8_t*> held;
  held.reserve(std::size_t{1} << 14);
  for (int i = 0; i < (1 << 14); ++i) {
    held.push_back(new std::uint8_t[kChunk]);
  }
  for (std::uint8_t* chunk : held) delete[] chunk;
}

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

void put_be16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value & 0xFF));
}

/// Appends an MBAP response: echoed transaction/protocol ids, recomputed
/// length, unit, function code, payload.
void respond(std::vector<std::uint8_t>& out, std::uint16_t tid,
             std::uint16_t pid, std::uint8_t unit, std::uint8_t fc,
             const std::vector<std::uint8_t>& payload) {
  put_be16(out, tid);
  put_be16(out, pid);
  put_be16(out, static_cast<std::uint16_t>(2 + payload.size()));
  out.push_back(unit);
  out.push_back(fc);
  out.insert(out.end(), payload.begin(), payload.end());
}

void respond_exception(std::vector<std::uint8_t>& out, std::uint16_t tid,
                       std::uint16_t pid, std::uint8_t unit, std::uint8_t fc,
                       std::uint8_t code) {
  put_be16(out, tid);
  put_be16(out, pid);
  put_be16(out, 3);
  out.push_back(unit);
  out.push_back(static_cast<std::uint8_t>(fc | 0x80));
  out.push_back(code);
}

/// Handles one complete MBAP frame. Deliberately branchy: distinct paths
/// per function code, per quantity range, per address class — so
/// SanitizerCoverage sees input-dependent edges, which is exactly what the
/// injection bridge exists to surface.
void process_frame(const std::uint8_t* frame, std::size_t size,
                   std::vector<std::uint8_t>& out) {
  const std::uint16_t tid = be16(frame);
  const std::uint16_t pid = be16(frame + 2);
  const std::uint8_t unit = frame[6];
  if (size < 8) {
    respond_exception(out, tid, pid, unit, 0, 0x01);
    return;
  }
  const std::uint8_t fc = frame[7];
  const std::uint8_t* body = frame + 8;
  const std::size_t body_len = size - 8;
  std::vector<std::uint8_t> payload;

  switch (fc) {
    case 0x01:    // read coils
    case 0x02: {  // read discrete inputs
      if (body_len < 4) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::uint16_t addr = be16(body);
      const std::uint16_t quantity = be16(body + 2);
      if (quantity < 1 || quantity > 2000) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::size_t bytes = (quantity + 7) / 8;
      payload.push_back(static_cast<std::uint8_t>(bytes));
      for (std::size_t i = 0; i < bytes; ++i) {
        // Coil state derived from the address so different addresses take
        // different data-dependent paths downstream.
        std::uint8_t bits = 0;
        if ((addr & 1) != 0) bits |= 0x55;
        if ((addr & 2) != 0) bits |= 0xAA;
        if (addr > 0x1000) bits ^= static_cast<std::uint8_t>(i);
        payload.push_back(bits);
      }
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case 0x03:    // read holding registers
    case 0x04: {  // read input registers
      if (body_len < 4) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::uint16_t addr = be16(body);
      const std::uint16_t quantity = be16(body + 2);
      if (quantity < 1 || quantity > 125) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      if (addr > 0xFF00) {
        respond_exception(out, tid, pid, unit, fc, 0x02);
        return;
      }
      payload.push_back(static_cast<std::uint8_t>(quantity * 2));
      for (std::uint16_t i = 0; i < quantity; ++i) {
        const std::uint16_t reg =
            static_cast<std::uint16_t>((addr + i) * 3 + (fc == 0x03 ? 7 : 11));
        payload.push_back(static_cast<std::uint8_t>(reg >> 8));
        payload.push_back(static_cast<std::uint8_t>(reg & 0xFF));
      }
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case 0x05:    // write single coil
    case 0x06: {  // write single register
      if (body_len < 4) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::uint16_t value = be16(body + 2);
      if (fc == 0x05 && value != 0x0000 && value != 0xFF00) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      payload.assign(body, body + 4);  // echo per the spec
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case 0x10: {  // write multiple registers
      if (body_len < 5) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::uint16_t quantity = be16(body + 2);
      const std::uint8_t byte_count = body[4];
      if (quantity < 1 || quantity > 123 || byte_count != quantity * 2 ||
          body_len < std::size_t{5} + byte_count) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      std::uint32_t checksum = 0;
      for (std::size_t i = 0; i < byte_count; ++i) {
        checksum = checksum * 31 + body[5 + i];
        if ((checksum & 0xFF) == 0x42) checksum ^= 0x1F;  // extra edges
      }
      payload.assign(body, body + 4);
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case 0x2B: {  // encapsulated interface / device identification
      if (body_len < 3 || body[0] != 0x0E) {
        respond_exception(out, tid, pid, unit, fc, 0x01);
        return;
      }
      const std::uint8_t category = body[1];
      if (category < 1 || category > 4) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      payload = {0x0E, category, 0x01, 0x00, 0x00, 0x01, 0x00};
      const char* name = category < 3 ? "icsfuzz-demo" : "demo-extended";
      payload.push_back(static_cast<std::uint8_t>(std::strlen(name)));
      payload.insert(payload.end(), name, name + std::strlen(name));
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case kBulkRead: {
      if (body_len < 2) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      const std::uint16_t count = be16(body);
      if (count < 1 || count > kMaxBulkBytes) {
        respond_exception(out, tid, pid, unit, fc, 0x03);
        return;
      }
      payload.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        payload[i] = static_cast<std::uint8_t>(i);
      }
      respond(out, tid, pid, unit, fc, payload);
      return;
    }
    case kFaultCrash:
      trigger_crash();
    case kFaultHang:
      trigger_hang();
    case kFaultOom:
      trigger_oom();
      payload = {0x00};
      respond(out, tid, pid, unit, fc, payload);
      return;
    default:
      respond_exception(out, tid, pid, unit, fc, 0x01);
      return;
  }
}

/// Frames `data` like the fuzzer's session splitter and processes each
/// complete frame; a trailing short/malformed chunk gets one exception
/// response (the session residue message).
void process_buffer(const std::uint8_t* data, std::size_t size,
                    std::vector<std::uint8_t>& out) {
  std::size_t offset = 0;
  std::size_t frames = 0;
  while (size - offset >= kFrameHeader && frames < kMaxStreamMessages &&
         offset < kMaxStreamBytes) {
    const std::uint16_t declared = be16(data + offset + 4);
    if (declared < 1) break;  // malformed: the rest is residue
    const std::size_t frame_size = std::size_t{6} + declared;
    if (size - offset < frame_size) break;  // incomplete tail
    process_frame(data + offset, frame_size, out);
    offset += frame_size;
    ++frames;
  }
  if (offset < size) {
    // Residue: answer something deterministic so every message has a
    // response — a generic exception keyed off the first residue byte.
    respond_exception(out, 0xFFFF, 0, data[offset], 0x00, 0x04);
  }
}

// -- stdin one-shot mode (fork-per-exec child). ----------------------------

int run_stdin_once() {
  std::vector<std::uint8_t> packet;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n > 0) {
      packet.insert(packet.end(), chunk, chunk + n);
      if (packet.size() > kMaxStreamBytes) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  std::vector<std::uint8_t> responses;
  if (!packet.empty()) process_buffer(packet.data(), packet.size(), responses);
  if (__icsfuzz_set_response != nullptr && !responses.empty()) {
    __icsfuzz_set_response(responses.data(),
                           static_cast<unsigned>(responses.size()));
  }
  std::size_t off = 0;
  while (off < responses.size()) {
    const ssize_t n =
        ::write(STDOUT_FILENO, responses.data() + off, responses.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return 0;
}

// -- persistent mode (cooperating with the preload runtime). ---------------

int run_persistent() {
  std::vector<std::uint8_t> responses;
  do {
    unsigned len = 0;
    const unsigned char* data =
        __icsfuzz_testcase != nullptr ? __icsfuzz_testcase(&len) : nullptr;
    responses.clear();
    if (data != nullptr && len != 0) process_buffer(data, len, responses);
    if (__icsfuzz_set_response != nullptr) {
      __icsfuzz_set_response(responses.data(),
                             static_cast<unsigned>(responses.size()));
    }
  } while (__icsfuzz_persistent_loop());
  return 0;
}

// -- --serve: TCP session mode. --------------------------------------------

void serve_connection(int conn) {
  std::vector<std::uint8_t> stream;
  std::size_t offset = 0;   // consumed prefix
  std::size_t frames = 0;
  bool residue_mode = false;
  std::uint8_t chunk[4096];

  for (;;) {
    // Drain complete frames before reading more: one response write per
    // frame gives the injected response-length log one entry per message,
    // which is how the client attributes the reply bytes.
    while (!residue_mode && stream.size() - offset >= kFrameHeader &&
           frames < kMaxStreamMessages && offset < kMaxStreamBytes) {
      const std::uint16_t declared = be16(stream.data() + offset + 4);
      if (declared < 1) {
        residue_mode = true;  // malformed: everything further is residue
        break;
      }
      const std::size_t frame_size = std::size_t{6} + declared;
      if (stream.size() - offset < frame_size) break;
      std::vector<std::uint8_t> response;
      process_frame(stream.data() + offset, frame_size, response);
      offset += frame_size;
      ++frames;
      if (!response.empty() &&
          ::write(conn, response.data(), response.size()) < 0) {
        return;  // client gone
      }
    }
    if (frames >= kMaxStreamMessages || offset >= kMaxStreamBytes) {
      residue_mode = true;
    }

    const ssize_t n = ::read(conn, chunk, sizeof(chunk));
    if (n > 0) {
      stream.insert(stream.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (client half-close) or error: flush the residue
  }

  if (offset < stream.size()) {
    std::vector<std::uint8_t> response;
    respond_exception(response, 0xFFFF, 0, stream[offset], 0x00, 0x04);
    (void)::write(conn, response.data(), response.size());
  }
}

int run_serve() {
  ::signal(SIGPIPE, SIG_IGN);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: the preload hello reports the real port
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::perror("bind");
    return 1;
  }
  if (::listen(listener, 16) != 0) {
    std::perror("listen");
    return 1;
  }
  sockaddr_in bound {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    std::fprintf(stderr, "icsfuzz-demo-server: listening on 127.0.0.1:%u\n",
                 ntohs(bound.sin_port));
  }
  for (;;) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      break;
    }
    serve_connection(conn);
    ::close(conn);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--serve") return run_serve();
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s [--serve]\n"
                 "  (default) process one packet from stdin\n"
                 "  --serve   MBAP echo server on an ephemeral loopback "
                 "port\n",
                 argv[0]);
    return 2;
  }
  if (__icsfuzz_persistent_loop != nullptr && __icsfuzz_persistent_loop()) {
    return run_persistent();
  }
  return run_stdin_once();
}
