// Tests for BER models, effective SNR, rate selection, airtime and PER.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "rate/airtime.h"
#include "rate/ber.h"
#include "rate/effective_snr.h"
#include "rate/per.h"
#include "dsp/rng.h"

namespace jmb::rate {
namespace {

using phy::Modulation;

TEST(Ber, QFunctionKnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(3.0), 0.0013499, 1e-6);
  EXPECT_NEAR(q_function(-1.0), 1.0 - 0.158655, 1e-5);
}

TEST(Ber, BpskKnownValue) {
  // BPSK at 9.6 dB (Eb/N0) ~ 1e-5.
  EXPECT_NEAR(std::log10(ber(Modulation::kBpsk, from_db(9.6))), -5.0, 0.2);
  EXPECT_THROW((void)ber(Modulation::kBpsk, -1.0), std::invalid_argument);
}

TEST(Ber, MonotoneDecreasingInSnr) {
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    double prev = 1.0;
    for (double db = -5.0; db <= 30.0; db += 1.0) {
      const double b = ber(m, from_db(db));
      EXPECT_LE(b, prev + 1e-15);
      prev = b;
    }
  }
}

TEST(Ber, HigherOrderNeedsMoreSnr) {
  const double snr = from_db(12.0);
  EXPECT_LT(ber(Modulation::kBpsk, snr), ber(Modulation::kQpsk, snr));
  EXPECT_LT(ber(Modulation::kQpsk, snr), ber(Modulation::kQam16, snr));
  EXPECT_LT(ber(Modulation::kQam16, snr), ber(Modulation::kQam64, snr));
}

TEST(Ber, InverseRoundTrip) {
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    for (double target : {1e-2, 1e-3, 1e-5}) {
      const double snr = snr_for_ber(m, target);
      EXPECT_NEAR(std::log10(ber(m, snr)), std::log10(target), 0.02);
    }
  }
  EXPECT_THROW((void)snr_for_ber(Modulation::kBpsk, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)snr_for_ber(Modulation::kBpsk, 0.6),
               std::invalid_argument);
}

TEST(EffSnr, FlatChannelIsIdentity) {
  const rvec flat(48, from_db(15.0));
  for (Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                       Modulation::kQam16, Modulation::kQam64}) {
    EXPECT_NEAR(effective_snr_db(m, flat), 15.0, 0.05) << phy::to_string(m);
  }
}

TEST(EffSnr, SelectiveChannelBelowMean) {
  // Frequency selectivity always costs: effective SNR <= mean SNR, and the
  // penalty is worse for dense constellations.
  rvec snrs(48);
  for (std::size_t i = 0; i < 48; ++i) {
    snrs[i] = from_db(i % 2 == 0 ? 20.0 : 10.0);  // mean ~ 17.4 dB
  }
  const double mean_db = to_db((from_db(20.0) + from_db(10.0)) / 2.0);
  const double eff_bpsk = effective_snr_db(Modulation::kBpsk, snrs);
  const double eff_q64 = effective_snr_db(Modulation::kQam64, snrs);
  EXPECT_LT(eff_bpsk, mean_db);
  EXPECT_LT(eff_q64, mean_db);
  // For BPSK the deep subcarriers dominate errors harder than for 64-QAM
  // relative to its own scale, but both must stay above the min.
  EXPECT_GT(eff_bpsk, 10.0);
  EXPECT_GT(eff_q64, 10.0);
  EXPECT_THROW((void)effective_snr(Modulation::kBpsk, {}),
               std::invalid_argument);
}

TEST(EffSnr, ThresholdsStrictlyIncreasing) {
  const rvec& thr = rate_thresholds_db();
  ASSERT_EQ(thr.size(), phy::rate_set().size());
  for (std::size_t i = 1; i < thr.size(); ++i) EXPECT_GT(thr[i], thr[i - 1]);
}

TEST(EffSnr, RateSelectionLadder) {
  // Sweep SNR: the selected rate must be monotone nondecreasing, reach the
  // top rate at high SNR, and be empty below the base threshold.
  EXPECT_FALSE(select_rate_flat(0.0).has_value());
  std::size_t prev = 0;
  for (double db = 4.0; db <= 30.0; db += 0.5) {
    const auto r = select_rate_flat(db);
    ASSERT_TRUE(r.has_value()) << db;
    EXPECT_GE(*r, prev);
    prev = *r;
  }
  EXPECT_EQ(prev, phy::rate_set().size() - 1);
}

TEST(EffSnr, SelectionMatchesThresholdEdges) {
  const rvec& thr = rate_thresholds_db();
  for (std::size_t i = 0; i < thr.size(); ++i) {
    const auto just_above = select_rate_flat(thr[i] + 0.1);
    ASSERT_TRUE(just_above.has_value());
    EXPECT_GE(*just_above, i);
    const auto just_below = select_rate_flat(thr[i] - 0.1);
    if (i == 0) {
      EXPECT_FALSE(just_below.has_value());
    } else {
      ASSERT_TRUE(just_below.has_value());
      EXPECT_LT(*just_below, i);
    }
  }
}

// --- Reference copies of the rate code before BER-domain selection: a
// fixed 200-step bisection and one inversion per rate. The fast paths must
// reproduce them bit for bit. ---

constexpr Modulation kAllMods[] = {Modulation::kBpsk, Modulation::kQpsk,
                                   Modulation::kQam16, Modulation::kQam64};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double ref_snr_for_ber(Modulation m, double target_ber) {
  double lo = 1e-6, hi = 1e9;
  for (int it = 0; it < 200; ++it) {
    const double mid = std::sqrt(lo * hi);
    if (ber(m, mid) > target_ber) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

double ref_effective_snr_db(Modulation m, const rvec& snr) {
  double mean_ber = 0.0;
  for (double s : snr) mean_ber += ber(m, std::max(s, 0.0));
  mean_ber /= static_cast<double>(snr.size());
  mean_ber = std::clamp(mean_ber, 1e-15, 0.499);
  return to_db(ref_snr_for_ber(m, mean_ber));
}

// The reference per-rate code, with each constellation's effective SNR
// (a pure function of the link state) computed once instead of per call.
struct Reference {
  explicit Reference(const rvec& snr) {
    for (Modulation m : kAllMods) {
      eff_db[static_cast<std::size_t>(m)] = ref_effective_snr_db(m, snr);
    }
  }
  double eff(std::size_t rate_index) const {
    return eff_db[static_cast<std::size_t>(
        phy::rate_set()[rate_index].modulation)];
  }
  std::optional<std::size_t> select_rate() const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < phy::rate_set().size(); ++i) {
      if (eff(i) >= rate_thresholds_db()[i]) best = i;
    }
    return best;
  }
  double frame_error_prob(std::size_t rate_index,
                          std::size_t psdu_bytes) const {
    const double margin = eff(rate_index) - rate_thresholds_db()[rate_index];
    double per = 0.1 * std::pow(10.0, -margin);
    per *= static_cast<double>(psdu_bytes) / 1500.0;
    return std::clamp(per, 0.0, 1.0);
  }
  double eff_db[4] = {};
};

// Every entry point against the reference on one link state.
void expect_matches_reference(const rvec& snr, std::size_t psdu_bytes) {
  const Reference ref(snr);
  const LinkQuality link(snr);
  ASSERT_EQ(select_rate(snr), ref.select_rate());
  ASSERT_EQ(link.best_rate(), ref.select_rate());
  for (Modulation m : kAllMods) {
    ASSERT_EQ(bits(link.effective_snr_db(m)),
              bits(ref.eff_db[static_cast<std::size_t>(m)]));
  }
  for (std::size_t r = 0; r < phy::rate_set().size(); ++r) {
    const double per = ref.frame_error_prob(r, psdu_bytes);
    ASSERT_EQ(bits(frame_error_prob(snr, r, psdu_bytes)), bits(per)) << r;
    ASSERT_EQ(bits(link.frame_error_prob(r, psdu_bytes)), bits(per)) << r;
    ASSERT_EQ(bits(scale_frame_error_prob(link.reference_per(r), psdu_bytes)),
              bits(per))
        << r;
  }
}

TEST(RateEquivalence, EarlyExitBisectionIsBitwiseTheFixed200Steps) {
  for (Modulation m : kAllMods) {
    // Log-spaced targets from 1e-15 to 0.49, plus the clamp edges.
    for (int i = 0; i <= 2000; ++i) {
      const double target = 1e-15 * std::pow(0.49 / 1e-15, i / 2000.0);
      ASSERT_EQ(bits(snr_for_ber(m, target)), bits(ref_snr_for_ber(m, target)))
          << phy::to_string(m) << " target " << target;
    }
    for (double target : {1e-15, 0.499, std::nextafter(0.5, 0.0)}) {
      EXPECT_EQ(bits(snr_for_ber(m, target)), bits(ref_snr_for_ber(m, target)));
    }
  }
}

TEST(RateEquivalence, RandomSelectiveLinksMatchTheReference) {
  // Seeded 52-subcarrier states, 0-35 dB mean SNR, faded by a random
  // three-tap channel so the subcarriers spread over tens of dB.
  Rng rng(20121);
  rvec snr(52);
  for (int trial = 0; trial < 10000; ++trial) {
    const double mean = from_db(rng.uniform(0.0, 35.0));
    const cplx taps[3] = {rng.cgaussian(0.6), rng.cgaussian(0.3),
                          rng.cgaussian(0.1)};
    for (std::size_t k = 0; k < snr.size(); ++k) {
      cplx h{};
      for (std::size_t t = 0; t < 3; ++t) {
        h += taps[t] * phasor(-kTwoPi * static_cast<double>(k * t) / 16.0);
      }
      snr[k] = mean * std::norm(h);
    }
    const std::size_t bytes = 40 + 40 * static_cast<std::size_t>(trial % 75);
    expect_matches_reference(snr, bytes);
    if (HasFatalFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
}

TEST(RateEquivalence, FlatLinksAtEveryThresholdMatchTheReference) {
  // A flat link at a threshold puts the mean BER within rounding of the
  // threshold BER, inside the guard band, so the reference test decides.
  const rvec& thr = rate_thresholds_db();
  for (std::size_t i = 0; i < thr.size(); ++i) {
    double v = from_db(thr[i]);
    for (int step = 0; step < 4; ++step) v = std::nextafter(v, 0.0);
    for (int step = 0; step < 9; ++step, v = std::nextafter(v, 1e300)) {
      expect_matches_reference(rvec(52, v), 1500);
      ASSERT_FALSE(HasFatalFailure()) << "rate " << i << " step " << step;
    }
  }
}

TEST(RateEquivalence, GuardBandEdgesDecideLikeTheBerComparison) {
  // The reference decision falls as the mean BER rises (the bisection is
  // monotone in its target), so if it already agrees with "mean BER below
  // the threshold BER" at both edges of the 1e-9 guard band, it agrees
  // everywhere outside the band. It does so a thousand times closer in.
  const auto& rates = phy::rate_set();
  const rvec& thr = rate_thresholds_db();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const Modulation m = rates[i].modulation;
    const double t = ber(m, from_db(thr[i]));
    ASSERT_GT(t, 1e-15);  // inside the clamp, so clamping never decides
    ASSERT_LT(t, 0.499);
    for (double guard : {1e-9, 1e-12}) {
      EXPECT_GE(to_db(ref_snr_for_ber(m, t * (1.0 - guard))), thr[i]) << i;
      EXPECT_LT(to_db(ref_snr_for_ber(m, t * (1.0 + guard))), thr[i]) << i;
    }
  }
}

TEST(RateEquivalence, LinkQualityRejectsAnEmptyLink) {
  EXPECT_THROW((void)LinkQuality(rvec{}), std::invalid_argument);
  EXPECT_THROW((void)LinkQuality(rvec(52, 10.0)).reference_per(99),
               std::invalid_argument);
}

TEST(Airtime, FrameAirtimeScalesWithLengthAndRate) {
  const double fs = 10e6;
  const phy::Mcs slow{Modulation::kBpsk, phy::CodeRate::kHalf};
  const phy::Mcs fast{Modulation::kQam64, phy::CodeRate::kThreeQuarters};
  const double t_slow = frame_airtime_s(1500, slow, fs);
  const double t_fast = frame_airtime_s(1500, fast, fs);
  EXPECT_GT(t_slow, 8.0 * t_fast);  // 24 vs 216 bits/symbol
  EXPECT_GT(frame_airtime_s(3000, fast, fs), frame_airtime_s(1500, fast, fs));
  // Hand check: 1500B at BPSK 1/2 = ceil(12022/24) = 501 syms + SIGNAL.
  EXPECT_NEAR(t_slow, (320.0 + 80.0 * 502.0) / fs, 1e-12);
}

TEST(Airtime, JointFrameAddsHeaderAndTurnaround) {
  AirtimeParams p;
  const phy::Mcs mcs{Modulation::kQam16, phy::CodeRate::kHalf};
  const double plain = frame_airtime_s(1500, mcs, p.sample_rate_hz);
  const double joint = joint_frame_airtime_s(1500, mcs, p);
  EXPECT_NEAR(joint - plain, p.turnaround_s + 160.0 / p.sample_rate_hz, 1e-12);
}

TEST(Airtime, MeasurementScalesWithApsAndClients) {
  AirtimeParams p;
  const double m22 = measurement_airtime_s(2, 2, p);
  const double m10 = measurement_airtime_s(10, 10, p);
  EXPECT_GT(m10, m22);
  // Amortized over a 250 ms coherence time, even the 10x10 measurement
  // must stay a small fraction of the medium (the paper's overhead story).
  EXPECT_LT(m10 / 0.25, 0.10);
}

TEST(Per, WaterfallShape) {
  // Well above threshold: essentially error-free; below: lost.
  EXPECT_LT(frame_error_prob_flat(30.0, 0), 1e-6);
  EXPECT_GT(frame_error_prob_flat(1.0, 0), 0.5);
  // At threshold: ~10%.
  const double thr = rate_thresholds_db()[3];
  EXPECT_NEAR(frame_error_prob_flat(thr, 3), 0.1, 0.02);
  // Monotone in SNR.
  double prev = 1.0;
  for (double db = 0.0; db < 30.0; db += 0.5) {
    const double per = frame_error_prob_flat(db, 4);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(Per, LongerFramesFailMore) {
  EXPECT_GT(frame_error_prob_flat(15.0, 4, 3000),
            frame_error_prob_flat(15.0, 4, 500));
  EXPECT_THROW((void)frame_error_prob_flat(15.0, 99), std::invalid_argument);
}

}  // namespace
}  // namespace jmb::rate
