// Deterministic pseudo-random source for the fuzzing engines.
//
// xoshiro256** — fast, high-quality, and (critically for reproducible
// experiments) fully determined by its 64-bit seed. Every stochastic choice
// in the fuzzers flows through an Rng instance so campaigns can be repeated
// bit-for-bit. The draws are defined inline: generation makes ~100 of them
// per packet, mostly with constant bounds, whose divisions then fold into
// multiplies at the call site.
#pragma once

#include <cstdint>
#include <vector>

namespace icsfuzz {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform in [0, bound); returns 0 when bound == 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli draw with probability numerator/denominator.
  bool chance(std::uint64_t numerator, std::uint64_t denominator);

  /// Uniform byte.
  std::uint8_t byte();

  /// Uniform double in [0, 1).
  double unit();

  /// Picks a uniformly random element index for a container of `size`.
  std::size_t index(std::size_t size) { return static_cast<std::size_t>(below(size)); }

  /// Picks a reference to a random element (container must be non-empty).
  template <typename Container>
  auto& pick(Container& items) {
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Random byte string of exactly `length` bytes.
  std::vector<std::uint8_t> bytes(std::size_t length);

  /// The full xoshiro256** state, for checkpoint/resume. Restoring the
  /// four words with set_state() continues the stream exactly where the
  /// captured instance left off.
  struct State {
    std::uint64_t words[4];
  };
  [[nodiscard]] State state() const {
    return State{{state_[0], state_[1], state_[2], state_[3]}};
  }
  void set_state(const State& state) {
    for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
  }

 private:
  std::uint64_t state_[4];
};

inline std::uint64_t Rng::next_u64() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t draw = next_u64();
    if (draw >= threshold) return draw % bound;
  }
}

inline std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + below(hi - lo + 1);
}

inline bool Rng::chance(std::uint64_t numerator, std::uint64_t denominator) {
  if (denominator == 0) return false;
  return below(denominator) < numerator;
}

inline std::uint8_t Rng::byte() {
  return static_cast<std::uint8_t>(next_u64() & 0xFF);
}

}  // namespace icsfuzz
