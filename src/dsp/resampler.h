// Fractional-delay resampling, used by the channel substrate to apply
// sampling-frequency offset (SFO): a receiver whose ADC clock runs at
// (1 + ppm*1e-6) times the transmitter's DAC clock effectively samples the
// waveform at slowly-drifting fractional positions.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace jmb {

namespace detail {

/// Catmull-Rom style cubic through y1 and y2 at fraction mu in [0, 1).
inline cplx cubic_through(const cplx& y0, const cplx& y1, const cplx& y2,
                          const cplx& y3, double mu) {
  const cplx a = 0.5 * (-y0 + 3.0 * y1 - 3.0 * y2 + y3);
  const cplx b = y0 - 2.5 * y1 + 2.0 * y2 - 0.5 * y3;
  const cplx c = 0.5 * (y2 - y0);
  return ((a * mu + b) * mu + c) * mu + y1;
}

/// interp_cubic within one sample of either edge (neighbours clamp to the
/// end samples) and outside the support (0).
[[nodiscard]] cplx interp_cubic_edge(const cvec& x, double pos);

}  // namespace detail

/// Evaluate x at fractional position `pos` (in samples) with cubic Lagrange
/// interpolation over the four nearest neighbours. Positions outside the
/// valid support, and non-finite positions, return 0 (silence before/after
/// a burst).
[[nodiscard]] inline cplx interp_cubic(const cvec& x, double pos) {
  // Interior fast path: all four neighbours exist, no clamping. The
  // arithmetic is the edge path's, so both give the same bits.
  if (pos >= 1.0 && pos < static_cast<double>(x.size()) - 2.0) {
    const auto i1 = static_cast<std::size_t>(pos);  // floor: pos >= 1
    const double mu = pos - static_cast<double>(i1);
    return detail::cubic_through(x[i1 - 1], x[i1], x[i1 + 1], x[i1 + 2], mu);
  }
  return detail::interp_cubic_edge(x, pos);
}

/// Resample a burst by a clock-ratio: output[n] = x(n * ratio + offset).
/// ratio = 1 + sfo_ppm * 1e-6 models a receiver clock that runs fast (>1)
/// or slow (<1) relative to the transmitter; `offset` is an initial
/// fractional timing offset in samples.
[[nodiscard]] cvec resample(const cvec& x, double ratio, double offset = 0.0);

}  // namespace jmb
