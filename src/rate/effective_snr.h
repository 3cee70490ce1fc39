// Effective SNR (Halperin et al.): collapse a frequency-selective set of
// per-subcarrier SNRs into the single flat-channel SNR that would produce
// the same average uncoded BER, per constellation. Rate selection then
// compares the effective SNR against per-rate thresholds.
#pragma once

#include <array>
#include <optional>

#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::rate {

/// Effective SNR (linear) for a constellation given per-subcarrier SNRs.
[[nodiscard]] double effective_snr(phy::Modulation m,
                                   const rvec& subcarrier_snr);

/// Effective SNR in dB from per-subcarrier SNRs in linear units.
[[nodiscard]] double effective_snr_db(phy::Modulation m,
                                      const rvec& subcarrier_snr);

/// Minimum effective SNR (dB) required to run each entry of
/// phy::rate_set() at high delivery probability. Derived from the uncoded
/// BER the 802.11 convolutional code needs at each coding rate; matches
/// our PHY's measured waterfall within ~1 dB.
[[nodiscard]] const rvec& rate_thresholds_db();

/// One link state, seen by rate selection. The constructor makes one pass
/// over the subcarriers and keeps the mean uncoded BER of each
/// constellation. Rate selection then runs in the BER domain, where the
/// effective-SNR method is defined: ber() falls as SNR rises, so a rate's
/// threshold is met exactly when the mean BER is at or below the BER at
/// that threshold. Only a mean BER within a relative 1e-9 of a threshold
/// takes the reference test (invert, compare in dB), so every result is
/// bitwise equal to the per-rate effective_snr_db() computation.
class LinkQuality {
 public:
  /// Throws std::invalid_argument when there are no subcarriers.
  explicit LinkQuality(const rvec& subcarrier_snr);

  /// Same as rate::effective_snr_db(m, subcarrier_snr): one inversion.
  [[nodiscard]] double effective_snr_db(phy::Modulation m) const;

  /// Same as select_rate(subcarrier_snr), without an inversion per rate.
  [[nodiscard]] std::optional<std::size_t> best_rate() const;

  /// Error probability of a 1500-byte frame at `rate_index`, before the
  /// length scaling and clamp (see scale_frame_error_prob in rate/per.h).
  /// Inverts the rate's constellation once.
  [[nodiscard]] double reference_per(std::size_t rate_index) const;

  /// Same as frame_error_prob(subcarrier_snr, rate_index, psdu_bytes).
  [[nodiscard]] double frame_error_prob(std::size_t rate_index,
                                        std::size_t psdu_bytes = 1500) const;

 private:
  /// Mean BER per phy::Modulation, clamped as effective_snr() clamps it.
  std::array<double, 4> mean_ber_{};
};

/// Highest rate_set() index whose threshold is met, or nullopt if even the
/// base rate won't decode.
[[nodiscard]] std::optional<std::size_t> select_rate(
    const rvec& subcarrier_snr);

/// Same, from a single flat SNR in dB.
[[nodiscard]] std::optional<std::size_t> select_rate_flat(double snr_db);

}  // namespace jmb::rate
