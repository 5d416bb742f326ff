// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (synthetic app memory contents,
// Play-store catalog sampling, workload jitter) draws from an explicitly
// seeded Rng so that runs reproduce bit-for-bit. The generator is
// splitmix64-seeded xoshiro256**.
//
// NextU64 is defined here so that per-byte callers (GenerateContent draws
// one step per random byte) inline the step; its stream, and every value
// drawn from it, is pinned by RngTest.StreamIsPinned.
#ifndef FLUX_SRC_BASE_RNG_H_
#define FLUX_SRC_BASE_RNG_H_

#include <cstdint>

namespace flux {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over [0, 2^64).
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform over [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform over [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform over [0.0, 1.0).
  double NextDouble();

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Log-normal with the given parameters of the underlying normal.
  double NextLogNormal(double mu, double sigma);

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Forks an independent stream; deterministic function of current state.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace flux

#endif  // FLUX_SRC_BASE_RNG_H_
