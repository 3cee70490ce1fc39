#include "rate/effective_snr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rate/ber.h"
#include "rate/per.h"

namespace jmb::rate {
namespace {

void require_subcarriers(const rvec& subcarrier_snr) {
  if (subcarrier_snr.empty()) {
    throw std::invalid_argument("effective_snr: no subcarriers");
  }
}

// Clamp a mean BER away from the solver's domain edges.
double clamp_ber(double mean_ber) {
  return std::clamp(mean_ber, 1e-15, 0.499);
}

std::size_t index_of(phy::Modulation m) { return static_cast<std::size_t>(m); }

// Relative half-width of the band around a threshold BER inside which
// LinkQuality::best_rate() takes the reference dB-domain test. The BER and
// dB tests can only disagree where rounding in erfc, the bisection's last
// step and the dB conversions decides, a few ulps from the threshold;
// tests/test_rate.cpp checks that both band edges already decide alike.
constexpr double kGuard = 1e-9;

// ber(m, from_db(threshold)) for each rate_set() entry: the mean BER at
// which the rate's effective SNR sits exactly on its threshold.
const rvec& threshold_bers() {
  static const rvec kBers = [] {
    const auto& rates = phy::rate_set();
    const rvec& thr = rate_thresholds_db();
    rvec out(rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      out[i] = ber(rates[i].modulation, from_db(thr[i]));
    }
    return out;
  }();
  return kBers;
}

}  // namespace

double effective_snr(phy::Modulation m, const rvec& subcarrier_snr) {
  require_subcarriers(subcarrier_snr);
  double mean_ber = 0.0;
  for (double s : subcarrier_snr) {
    mean_ber += ber(m, std::max(s, 0.0));
  }
  mean_ber /= static_cast<double>(subcarrier_snr.size());
  return snr_for_ber(m, clamp_ber(mean_ber));
}

double effective_snr_db(phy::Modulation m, const rvec& subcarrier_snr) {
  return to_db(effective_snr(m, subcarrier_snr));
}

const rvec& rate_thresholds_db() {
  // Required effective SNR per rate_set() entry, anchored to 802.11a
  // receiver-sensitivity spacing and validated against this repo's PHY
  // waterfalls (tests/test_rate.cpp crosschecks the ordering and spacing).
  static const rvec kThresholds{4.0, 6.0, 7.0, 9.5, 12.5, 16.0, 19.5, 21.0};
  return kThresholds;
}

LinkQuality::LinkQuality(const rvec& subcarrier_snr) {
  require_subcarriers(subcarrier_snr);
  // One pass, one accumulator per constellation. Each sums in
  // effective_snr()'s order, so each mean is bitwise equal to its own.
  using phy::Modulation;
  std::array<double, 4> sum{};
  for (double s : subcarrier_snr) {
    const double x = std::max(s, 0.0);
    for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                         Modulation::kQam16, Modulation::kQam64}) {
      sum[index_of(m)] += ber(m, x);
    }
  }
  const double n = static_cast<double>(subcarrier_snr.size());
  for (std::size_t k = 0; k < sum.size(); ++k) {
    mean_ber_[k] = clamp_ber(sum[k] / n);
  }
}

double LinkQuality::effective_snr_db(phy::Modulation m) const {
  return to_db(snr_for_ber(m, mean_ber_[index_of(m)]));
}

std::optional<std::size_t> LinkQuality::best_rate() const {
  const auto& rates = phy::rate_set();
  const rvec& thr = rate_thresholds_db();
  const rvec& thr_ber = threshold_bers();
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const phy::Modulation m = rates[i].modulation;
    const double b = mean_ber_[index_of(m)];
    // The BER comparison decides outside the guard band; inside it, or
    // for a NaN mean, the reference test does.
    const bool meets = std::abs(b - thr_ber[i]) > kGuard * thr_ber[i]
                           ? b < thr_ber[i]
                           : effective_snr_db(m) >= thr[i];
    if (meets) best = i;
  }
  return best;
}

double LinkQuality::reference_per(std::size_t rate_index) const {
  if (rate_index >= phy::rate_set().size()) {
    throw std::invalid_argument("frame_error_prob: bad rate index");
  }
  const double eff_db =
      effective_snr_db(phy::rate_set()[rate_index].modulation);
  return frame_error_prob_at_margin(eff_db -
                                    rate_thresholds_db()[rate_index]);
}

double LinkQuality::frame_error_prob(std::size_t rate_index,
                                     std::size_t psdu_bytes) const {
  return scale_frame_error_prob(reference_per(rate_index), psdu_bytes);
}

std::optional<std::size_t> select_rate(const rvec& subcarrier_snr) {
  return LinkQuality(subcarrier_snr).best_rate();
}

std::optional<std::size_t> select_rate_flat(double snr_db) {
  return select_rate(rvec(phy::kNumDataCarriers, from_db(snr_db)));
}

}  // namespace jmb::rate
