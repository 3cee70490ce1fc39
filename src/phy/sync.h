// Packet detection, symbol timing and carrier-frequency-offset estimation.
//
// These are the "standard techniques" the paper's clients use (Section 5.1)
// plus the machinery slave APs use on the lead's sync header. CFO estimates
// here carry exactly the noise the paper discusses: good enough to track
// phase *within* a packet, never good enough to predict phase *across*
// packets — which is why JMB re-measures phase per packet.
#pragma once

#include <optional>
#include <span>

#include "dsp/types.h"
#include "phy/params.h"

namespace jmb::phy {

/// Result of STF-based packet detection.
struct Detection {
  std::size_t stf_start = 0;   ///< approximate first sample of the STF
  double metric = 0.0;         ///< normalized autocorrelation at the peak
};

/// Scan `rx` from `search_from` for the STF's 16-sample periodicity using
/// a normalized sliding autocorrelation. Returns nullopt if no plateau
/// exceeds `threshold`.
[[nodiscard]] std::optional<Detection> detect_packet(
    const cvec& rx, std::size_t search_from = 0, double threshold = 0.6);

/// Coarse CFO from the STF's 16-sample repetition. `stf` must hold at
/// least 96 samples of STF. Range: +-fs/32.
[[nodiscard]] double coarse_cfo_hz(const cvec& stf, double sample_rate_hz);

/// Fine CFO from the LTF's 64-sample repetition, correlating every lag-64
/// pair of `ltf64x2`: at least 128 samples of a 64-periodic stretch (the
/// two LTF symbols, optionally with part of their guard). Range: +-fs/128.
[[nodiscard]] double fine_cfo_hz(const cvec& ltf64x2, double sample_rate_hz);

/// Locate the start of the first 64-sample LTF symbol by cross-correlating
/// with the known LTF within [from, to). Returns the sample index of the
/// correlation peak (start of LTF symbol 1).
[[nodiscard]] std::optional<std::size_t> locate_ltf(const cvec& rx,
                                                    std::size_t from,
                                                    std::size_t to);

/// Like locate_ltf, but returns the EARLIEST qualifying correlation peak
/// (>= 55% of the window's best) rather than the global maximum — needed
/// when the buffer holds several LTF-shaped symbols (e.g. JMB's
/// interleaved measurement frame) and the first one is the sync header.
[[nodiscard]] std::optional<std::size_t> locate_ltf_earliest(const cvec& rx,
                                                             std::size_t from,
                                                             std::size_t to);

/// Normalized LTF cross-correlation metric at one position (0..1-ish);
/// used to disambiguate the two identical LTF repetitions.
[[nodiscard]] double ltf_metric_at(const cvec& rx, std::size_t pos);

/// Anchor grid of correct_cfo_into()'s rotator, in absolute samples.
inline constexpr std::size_t kCfoAnchorStride = 64;

/// Remove a frequency offset: y[n] = x[n] * e^{-j 2 pi f (n + n0) / fs}.
[[nodiscard]] cvec correct_cfo(const cvec& x, double cfo_hz,
                               double sample_rate_hz, double n0 = 0.0);

/// correct_cfo() into a caller-owned span of exactly x.size() entries.
/// `out` may alias `x` (the transform is elementwise). The allocating API
/// wraps this kernel, so results are bitwise identical. The rotation runs
/// as a rotator anchored by an exact phasor at every absolute index n + n0
/// divisible by kCfoAnchorStride (within ~1e-13 of the exact phasor), so
/// for integer n0 a window x[a, b) corrected with n0 + a is bitwise the
/// same samples of the full-buffer correction. Throws
/// std::invalid_argument unless n0 is finite with |n0| < 2^52.
void correct_cfo_into(std::span<const cplx> x, double cfo_hz,
                      double sample_rate_hz, double n0, std::span<cplx> out);

}  // namespace jmb::phy
