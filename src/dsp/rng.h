// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "dsp/types.h"

namespace jmb {

/// Seeded random source. Every experiment object takes an Rng (or a seed)
/// explicitly so that a bench rerun with the same seed reproduces the same
/// topologies, channels and noise — a property the tests rely on.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// One fair coin flip / biased Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p = 0.5) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Zero-mean real Gaussian with the given standard deviation; 0 yields
  /// 0.0 (after the same engine draws). Throws std::invalid_argument on a
  /// negative or non-finite stddev.
  [[nodiscard]] double gaussian(double stddev = 1.0) {
    if (!(stddev >= 0.0) || !std::isfinite(stddev)) {
      throw std::invalid_argument(
          "Rng::gaussian: stddev must be finite and >= 0");
    }
    // std::normal_distribution requires stddev > 0. A unit draw scaled
    // here makes the same engine draws, and "+ 0.0" repeats the mean the
    // library adds, so results stay bitwise equal for stddev > 0.
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + 0.0;
  }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  [[nodiscard]] cplx cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(s), gaussian(s)};
  }

  /// A run of n complex Gaussian samples with E[|x|^2] = variance.
  [[nodiscard]] cvec cgaussian_vec(std::size_t n, double variance = 1.0) {
    cvec out(n);
    for (cplx& v : out) v = cgaussian(variance);
    return out;
  }

  /// Uniform phase in [0, 2*pi).
  [[nodiscard]] double uniform_phase() { return uniform(0.0, kTwoPi); }

  /// Derive an independent child generator (used to give each node its own
  /// stream so adding a node never perturbs the draws of existing nodes).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Raw 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace jmb
