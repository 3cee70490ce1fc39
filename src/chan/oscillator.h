// Free-running oscillator model — the impairment JMB exists to fight.
//
// Every node owns one crystal that derives both its RF carrier and its
// sampling clock, so a part-per-million error shows up twice:
//   * carrier frequency offset (CFO): ppm * carrier_hz * 1e-6 (kHz-scale),
//   * sampling frequency offset (SFO): the same ppm on the sample clock.
// On top of the deterministic offset sits Wiener phase noise: a random
// walk whose variance grows linearly in time. This is exactly why CFO
// *prediction* accumulates error across packets (paper Section 5.2) while
// JMB's direct per-packet phase re-measurement does not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "dsp/types.h"

namespace jmb::chan {

struct OscillatorParams {
  double ppm = 0.0;                      ///< crystal error, parts per million
  double carrier_hz = 2.4e9;  ///< RF carrier the crystal multiplies to
  double sample_rate_hz = 10e6;          ///< nominal ADC/DAC rate
  double phase_noise_linewidth_hz = 0.1; ///< Wiener linewidth (3 dB width)
  std::uint64_t seed = 1;                ///< phase-noise stream seed
};

/// One node's oscillator. Thread-compatible (no internal locking).
class Oscillator {
 public:
  explicit Oscillator(OscillatorParams p);

  /// Deterministic carrier offset in Hz relative to nominal, including
  /// any injected drift-rate steps.
  [[nodiscard]] double cfo_hz() const {
    return params_.ppm * 1e-6 * params_.carrier_hz + injected_cfo_hz_;
  }

  /// Actual sample rate of this node's converters.
  [[nodiscard]] double sample_rate_hz() const {
    return params_.sample_rate_hz * (1.0 + params_.ppm * 1e-6);
  }

  /// Clock ratio relative to nominal (1 + ppm*1e-6).
  [[nodiscard]] double clock_ratio() const { return 1.0 + params_.ppm * 1e-6; }

  /// Phase-noise sample theta(n) at nominal sample index n (radians).
  /// Deterministic: the same (seed, n) always yields the same phase, so a
  /// transmitter queried for several receivers stays self-consistent.
  [[nodiscard]] double phase_noise_at(std::uint64_t n) const;

  /// theta(n0 .. n0 + count - 1) into out[0 .. count - 1] in one sequential
  /// walk. theta is a left fold of hashed increments (increments 2k+1 and
  /// 2k+2 are the two Box–Muller outputs of pair k), so every walk —
  /// from 0, a checkpoint, the last query or the last run's start — gives
  /// each value bitwise equal to phase_noise_at().
  void phase_noise_run(std::uint64_t n0, std::size_t count, double* out) const;

  /// Total oscillator rotation at true time t seconds (index n = t * fs):
  /// e^{j(2 pi cfo t + theta(n))}.
  [[nodiscard]] cplx rotation_at(double t_seconds) const;

  [[nodiscard]] const OscillatorParams& params() const { return params_; }

  /// Fault injection (fault/injector.h): an instantaneous carrier-phase
  /// jump — a micro phase-hit such as a PLL cycle slip or a supply glitch.
  /// Accumulates across calls; affects rotation_at() from now on.
  void inject_phase_jump(double radians) { injected_phase_rad_ += radians; }
  /// Fault injection: a drift-rate step — the crystal's frequency walks to
  /// a new operating point (temperature shock, aging step). Accumulates
  /// into cfo_hz() so both the carrier rotation and every consumer of the
  /// deterministic offset see it.
  void inject_cfo_step(double hz) { injected_cfo_hz_ += hz; }
  [[nodiscard]] double injected_phase_rad() const {
    return injected_phase_rad_;
  }
  [[nodiscard]] double injected_cfo_hz() const { return injected_cfo_hz_; }

 private:
  OscillatorParams params_;
  std::uint64_t key_ = 0;          ///< splitmix64(seed): the walk's stream
  double sigma_per_sample_ = 0.0;  ///< phase-noise increment std dev
  double injected_phase_rad_ = 0.0;
  double injected_cfo_hz_ = 0.0;

  /// Sparse checkpoints of the random walk (every kCheckpointStride
  /// samples), filled in lazily; mutable cache of a deterministic process.
  static constexpr std::uint64_t kCheckpointStride = 1u << 14;
  mutable std::map<std::uint64_t, double> checkpoints_;
  /// Memo of the most recent query's last index: successive windows move
  /// forward, so continuing from here makes them O(1) amortized.
  mutable std::uint64_t last_idx_ = 0;
  mutable double last_phase_ = 0.0;
  /// Start of the most recent run: several receivers render the same
  /// window one after another, and each restarts here for free.
  mutable std::uint64_t anchor_idx_ = 0;
  mutable double anchor_phase_ = 0.0;

  /// Walk theta from (idx, phase) to index `to`, writing theta(idx + 1 ..
  /// to) to `out` (if non-null) and recording checkpoints on the stride.
  void walk(std::uint64_t& idx, double& phase, std::uint64_t to,
            double* out) const;
};

}  // namespace jmb::chan
