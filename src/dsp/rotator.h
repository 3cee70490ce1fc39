// Phase rotators: a running phasor advanced by a small per-sample angle
// increment instead of a sin/cos per sample. Callers re-anchor with an
// exact phasor() on a fixed grid, so the error never accumulates beyond
// one anchor interval.
#pragma once

#include "dsp/types.h"

namespace jmb {

/// Largest |angle increment| small_angle_phasor() accepts. Over
/// |d| <= 1/8 the degree-8/9 Taylor polynomials below are within 3e-16
/// of cos and sin (first dropped terms d^10/10! and d^11/11!), so one step
/// costs about as much error as the complex multiply that applies it.
inline constexpr double kRotatorMaxStep = 0.125;

/// e^{jd} for |d| <= kRotatorMaxStep by Taylor polynomials in d^2
/// (Horner order, as written; the pinned medium tests depend on it).
[[nodiscard]] inline cplx small_angle_phasor(double d) {
  constexpr double kC2 = -1.0 / 2.0, kC4 = 1.0 / 24.0, kC6 = -1.0 / 720.0,
                   kC8 = 1.0 / 40320.0;
  constexpr double kS3 = -1.0 / 6.0, kS5 = 1.0 / 120.0, kS7 = -1.0 / 5040.0,
                   kS9 = 1.0 / 362880.0;
  const double d2 = d * d;
  const double c = 1.0 + d2 * (kC2 + d2 * (kC4 + d2 * (kC6 + d2 * kC8)));
  const double s = d * (1.0 + d2 * (kS3 + d2 * (kS5 + d2 * (kS7 + d2 * kS9))));
  return {c, s};
}

}  // namespace jmb
