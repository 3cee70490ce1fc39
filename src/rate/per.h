// Packet-error-rate model: maps effective SNR margin over the rate
// threshold to a frame delivery probability with the steep waterfall
// characteristic of convolutionally-coded OFDM.
#pragma once

#include "rate/effective_snr.h"

namespace jmb::rate {

/// Frame error probability for a given rate at the given per-subcarrier
/// SNRs. At threshold: ~10% PER; each dB of margin cuts PER by ~10x; PER
/// saturates at 1 a little below threshold. Length scales the error
/// exposure relative to the 1500-byte reference.
[[nodiscard]] double frame_error_prob(const rvec& subcarrier_snr,
                                      std::size_t rate_index,
                                      std::size_t psdu_bytes = 1500);

/// The waterfall alone: error probability of a 1500-byte frame whose
/// effective SNR is `margin_db` above its rate's threshold, not clamped.
[[nodiscard]] double frame_error_prob_at_margin(double margin_db);

/// Scales a 1500-byte error probability to `psdu_bytes` and clamps it to
/// [0, 1], as frame_error_prob does.
[[nodiscard]] double scale_frame_error_prob(double per_1500,
                                            std::size_t psdu_bytes);

/// Flat-channel convenience.
[[nodiscard]] double frame_error_prob_flat(
    double snr_db, std::size_t rate_index, std::size_t psdu_bytes = 1500);

}  // namespace jmb::rate
