#include "util/rng.h"

namespace bil {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : state_{} {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64_next(sm);
  }
  // xoshiro256** requires a nonzero state; splitmix64 maps at most one seed
  // to each output, so an all-zero state is astronomically unlikely, but we
  // guard anyway because a zero state would be an infinite fixpoint.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
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

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Rejection sampling: draw until the value falls into the largest multiple
  // of `bound` that fits in 64 bits. Expected < 2 draws for any bound. The
  // threshold 2^64 mod bound is below `bound`, so a draw >= bound is always
  // accepted and needs no threshold division.
  for (;;) {
    const std::uint64_t value = (*this)();
    if (value >= bound || value >= (0 - bound) % bound) {
      return value % bound;
    }
  }
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) {
    return (*this)();
  }
  return lo + below(span + 1);
}

bool Rng::bernoulli_ratio(std::uint64_t numerator,
                          std::uint64_t denominator) noexcept {
  if (numerator == 0) {
    return false;
  }
  if (numerator >= denominator) {
    return true;
  }
  return below(denominator) < numerator;
}

Rng Rng::fork(std::uint64_t tag) noexcept {
  std::uint64_t sm = (*this)() ^ (tag * 0xD1342543DE82EF95ULL);
  return Rng(splitmix64_next(sm));
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t domain,
                          std::uint64_t index) noexcept {
  std::uint64_t sm = run_seed;
  sm ^= 0x5851F42D4C957F2DULL * (domain + 1);
  (void)splitmix64_next(sm);
  sm ^= 0x14057B7EF767814FULL * (index + 1);
  (void)splitmix64_next(sm);
  return splitmix64_next(sm);
}

}  // namespace bil
