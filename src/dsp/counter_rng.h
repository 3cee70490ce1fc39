// Counter-based Gaussian draws: every value is addressed by (key, counter)
// instead of coming from a sequential engine, in the spirit of Salmon et
// al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). A draw never
// depends on how many other draws were made before it or in which order,
// so independent streams (one per oscillator, one per receiver) can be
// rendered in any order or on separate threads with the same result.
#pragma once

#include <cmath>
#include <cstdint>

#include "dsp/types.h"

namespace jmb {

/// splitmix64 finalizer: a cheap stateless bijective mix of 64 bits.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in (0, 1) from the top 53 bits (never 0, so log is safe).
[[nodiscard]] inline double unit_open(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

/// Two independent standard Gaussians for pair `k` of stream `key`
/// (Box–Muller over the hashed uniforms of counters 2k+1 and 2k+2):
/// g.real() = r cos(2 pi u2), g.imag() = r sin(2 pi u2). Pre-mix the key
/// (splitmix64 of a seed) so that nearby seeds give independent streams.
[[nodiscard]] inline cplx gaussian_pair(std::uint64_t key, std::uint64_t k) {
  const double u1 = unit_open(splitmix64(key ^ splitmix64(2 * k + 1)));
  const double u2 = unit_open(splitmix64(key ^ splitmix64(2 * k + 2)));
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double a = kTwoPi * u2;
  return {r * std::cos(a), r * std::sin(a)};
}

}  // namespace jmb
