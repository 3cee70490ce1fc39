#include "rate/ber.h"

#include <cmath>
#include <stdexcept>

namespace jmb::rate {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber(phy::Modulation m, double snr) {
  if (snr < 0) throw std::invalid_argument("ber: negative SNR");
  using phy::Modulation;
  switch (m) {
    case Modulation::kBpsk:
      return q_function(std::sqrt(2.0 * snr));
    case Modulation::kQpsk:
      return q_function(std::sqrt(snr));
    case Modulation::kQam16: {
      // (4/log2 M)(1 - 1/sqrt M) Q(sqrt(3 snr/(M-1))), M = 16.
      return 0.75 * q_function(std::sqrt(snr / 5.0));
    }
    case Modulation::kQam64: {
      // M = 64.
      return (7.0 / 12.0) * q_function(std::sqrt(snr / 21.0));
    }
  }
  throw std::logic_error("ber: bad modulation");
}

double snr_for_ber(phy::Modulation m, double target_ber) {
  if (target_ber <= 0.0 || target_ber >= 0.5) {
    throw std::invalid_argument("snr_for_ber: target must be in (0, 0.5)");
  }
  double lo = 1e-6, hi = 1e9;
  for (int it = 0; it < 200; ++it) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    const double prev_lo = lo, prev_hi = hi;
    if (ber(m, mid) > target_ber) {
      lo = mid;
    } else {
      hi = mid;
    }
    // A step that leaves (lo, hi) unchanged is a fixed point of this
    // deterministic map: every later step would repeat it, so stopping
    // here returns the bits the full 200 steps would. In practice the loop
    // ends after 58-60 steps, the last one confirming the fixed point.
    if (lo == prev_lo && hi == prev_hi) break;
  }
  return std::sqrt(lo * hi);
}

}  // namespace jmb::rate
