#include "util/rng.hpp"

namespace icsfuzz {
namespace {

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::unit() {
  return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<std::uint8_t> Rng::bytes(std::size_t length) {
  std::vector<std::uint8_t> out(length);
  for (auto& b : out) b = byte();
  return out;
}

}  // namespace icsfuzz
