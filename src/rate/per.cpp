#include "rate/per.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace jmb::rate {

double frame_error_prob(const rvec& subcarrier_snr, std::size_t rate_index,
                        std::size_t psdu_bytes) {
  if (rate_index >= phy::rate_set().size()) {
    throw std::invalid_argument("frame_error_prob: bad rate index");
  }
  // Only the rate's own constellation is needed, so this skips the other
  // three mean BERs a LinkQuality would take.
  const phy::Modulation m = phy::rate_set()[rate_index].modulation;
  const double eff_db = effective_snr_db(m, subcarrier_snr);
  return scale_frame_error_prob(
      frame_error_prob_at_margin(eff_db - rate_thresholds_db()[rate_index]),
      psdu_bytes);
}

double frame_error_prob_at_margin(double margin_db) {
  // Waterfall anchored at 10% PER for 1500 bytes, one decade per dB.
  return 0.1 * std::pow(10.0, -margin_db);
}

double scale_frame_error_prob(double per_1500, std::size_t psdu_bytes) {
  // Longer frames expose more bits; shorter ones fewer (linear in length
  // for small PER).
  per_1500 *= static_cast<double>(psdu_bytes) / 1500.0;
  return std::clamp(per_1500, 0.0, 1.0);
}

double frame_error_prob_flat(double snr_db, std::size_t rate_index,
                             std::size_t psdu_bytes) {
  return frame_error_prob(rvec(phy::kNumDataCarriers, from_db(snr_db)),
                          rate_index, psdu_bytes);
}

}  // namespace jmb::rate
