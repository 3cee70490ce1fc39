// Tests for the waveform-level PHY: preambles, OFDM mod/demod, sync,
// channel estimation, and the full TX -> RX loopback chain.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dsp/fft.h"
#include "dsp/rng.h"
#include "phy/chanest.h"
#include "phy/frame.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"
#include "phy/receiver.h"
#include "phy/sync.h"
#include "phy/transmitter.h"

namespace jmb::phy {
namespace {

ByteVec random_psdu(Rng& rng, std::size_t n) {
  ByteVec p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

cvec add_noise(const cvec& x, double snr_db, Rng& rng, double signal_power) {
  const double nvar = signal_power / from_db(snr_db);
  cvec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + rng.cgaussian(nvar);
  }
  return out;
}

TEST(Preamble, StfIsPeriodic16) {
  const cvec& s = stf_time();
  ASSERT_EQ(s.size(), kStfLen);
  for (std::size_t i = 0; i + 16 < s.size(); ++i) {
    EXPECT_NEAR(std::abs(s[i] - s[i + 16]), 0.0, 1e-12);
  }
}

TEST(Preamble, LtfGuardIsCyclic) {
  const cvec& l = ltf_time();
  ASSERT_EQ(l.size(), kLtfLen);
  // Guard = last 32 samples of the symbol; symbols repeat.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(l[i] - l[i + kNfft]), 0.0, 1e-12);
  }
  for (std::size_t i = 0; i < kNfft; ++i) {
    EXPECT_NEAR(std::abs(l[32 + i] - l[32 + kNfft + i]), 0.0, 1e-12);
  }
}

TEST(Preamble, LtfSpectrumIsPlusMinusOne) {
  const cvec& lf = ltf_freq();
  int used = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) {
      EXPECT_EQ(std::abs(lf[bin_of(k)]), 0.0);
      continue;
    }
    EXPECT_NEAR(std::abs(lf[bin_of(k)]), 1.0, 1e-12);
    ++used;
  }
  EXPECT_EQ(used, 52);
}

TEST(Ofdm, MapExtractRoundTrip) {
  Rng rng(1);
  const cvec data = rng.cgaussian_vec(kNumDataCarriers);
  const cvec freq = map_subcarriers(data, 3);
  const cvec back = extract_data(freq);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - data[i]), 0.0, 1e-12);
  }
  // Pilots carry the polarity of symbol 3.
  const cvec pilots = extract_pilots(freq);
  const double pol = pilot_polarity(3);
  EXPECT_NEAR(pilots[0].real(), pol * 1.0, 1e-12);
  EXPECT_NEAR(pilots[3].real(), pol * -1.0, 1e-12);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  Rng rng(2);
  const cvec data = rng.cgaussian_vec(kNumDataCarriers);
  const cvec freq = map_subcarriers(data, 0);
  const cvec time = ofdm_modulate(freq);
  ASSERT_EQ(time.size(), kSymbolLen);
  // CP really is a cyclic prefix.
  for (std::size_t i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(time[i] - time[i + kNfft]), 0.0, 1e-12);
  }
  const cvec rt = ofdm_demodulate(time);
  for (std::size_t b = 0; b < kNfft; ++b) {
    EXPECT_NEAR(std::abs(rt[b] - freq[b]), 0.0, 1e-9);
  }
}

TEST(Ofdm, CpSkipIntroducesKnownPhaseRamp) {
  Rng rng(3);
  const cvec freq = map_subcarriers(rng.cgaussian_vec(kNumDataCarriers), 0);
  const cvec time = ofdm_modulate(freq);
  const std::size_t skip = kCpLen - 4;  // window starts 4 samples early
  const cvec shifted = ofdm_demodulate(time, skip);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    // 4-sample early window rotates bin k by e^{-j 2 pi k 4/64}... verify
    // magnitude preserved and the ramp matches.
    EXPECT_NEAR(std::abs(shifted[b]), std::abs(freq[b]), 1e-9);
    const cplx expected = freq[b] * phasor(-kTwoPi * k * 4.0 / 64.0);
    EXPECT_NEAR(std::abs(shifted[b] - expected), 0.0, 1e-9) << k;
  }
}

TEST(Sync, DetectsPreambleInNoise) {
  Rng rng(4);
  cvec buf = rng.cgaussian_vec(500, 1e-4);  // noise floor
  const cvec pre = preamble_time();
  const std::size_t at = 137;
  for (std::size_t i = 0; i < pre.size(); ++i) buf[at + i] += pre[i];
  const auto det = detect_packet(buf);
  ASSERT_TRUE(det.has_value());
  EXPECT_NEAR(static_cast<double>(det->stf_start), static_cast<double>(at),
              16.0);
}

TEST(Sync, NoFalseDetectInPureNoise) {
  Rng rng(5);
  const cvec buf = rng.cgaussian_vec(2000, 1.0);
  const auto det = detect_packet(buf);
  EXPECT_FALSE(det.has_value());
}

TEST(Sync, CoarseCfoAccuracy) {
  Rng rng(6);
  const double fs = 10e6;
  for (double f : {-50e3, -8e3, 0.0, 3e3, 40e3}) {
    cvec stf = stf_time();
    for (std::size_t n = 0; n < stf.size(); ++n) {
      stf[n] *= phasor(kTwoPi * f * static_cast<double>(n) / fs);
      stf[n] += rng.cgaussian(1e-7);
    }
    EXPECT_NEAR(coarse_cfo_hz(stf, fs), f, 30.0) << f;
  }
}

TEST(Sync, FineCfoAccuracy) {
  Rng rng(7);
  const double fs = 10e6;
  const cvec& sym = ltf_symbol_time();
  for (double f : {-20e3, -1e3, 0.0, 2e3, 30e3}) {
    cvec two;
    two.insert(two.end(), sym.begin(), sym.end());
    two.insert(two.end(), sym.begin(), sym.end());
    for (std::size_t n = 0; n < two.size(); ++n) {
      two[n] *= phasor(kTwoPi * f * static_cast<double>(n) / fs);
      two[n] += rng.cgaussian(1e-7);
    }
    EXPECT_NEAR(fine_cfo_hz(two, fs), f, 25.0) << f;
  }
}

TEST(Sync, LocateLtfFindsSymbolStart) {
  Rng rng(8);
  cvec buf = rng.cgaussian_vec(600, 1e-4);
  const cvec& l = ltf_time();
  const std::size_t at = 200;  // guard starts here; symbol 1 at at+32
  for (std::size_t i = 0; i < l.size(); ++i) buf[at + i] += l[i];
  const auto pos = locate_ltf(buf, 150, 350);
  ASSERT_TRUE(pos.has_value());
  // Correlation peaks at symbol 1 or (identical) symbol 2.
  EXPECT_TRUE(*pos == at + 32 || *pos == at + 32 + kNfft) << *pos;
}

TEST(Sync, CorrectCfoInvertsRotation) {
  Rng rng(9);
  const double fs = 10e6, f = 12.5e3;
  const cvec x = rng.cgaussian_vec(256);
  cvec rotated(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    rotated[n] = x[n] * phasor(kTwoPi * f * static_cast<double>(n) / fs);
  }
  const cvec fixed = correct_cfo(rotated, f, fs);
  for (std::size_t n = 0; n < x.size(); ++n) {
    EXPECT_NEAR(std::abs(fixed[n] - x[n]), 0.0, 1e-9);
  }
}

TEST(Sync, WindowedCfoCorrectionMatchesTheFullBufferBitwise) {
  // The receiver corrects only the ranges it reads, with n0 = the range
  // start: every sample must be bitwise what a full-buffer correction
  // gives it, for any window and any integer base offset.
  Rng rng(21);
  const double fs = 10e6;
  const cvec x = rng.cgaussian_vec(4000);
  for (const double base : {0.0, -417.0, 123456.0}) {
    for (int trial = 0; trial < 40; ++trial) {
      const double f = rng.uniform(-60e3, 60e3);
      cvec full(x.size());
      correct_cfo_into(x, f, fs, base, full);
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, 3999));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(a) + 1, 4000));
      cvec win(b - a);
      correct_cfo_into(std::span<const cplx>(x.data() + a, b - a), f, fs,
                       base + static_cast<double>(a), win);
      for (std::size_t i = 0; i < win.size(); ++i) {
        ASSERT_EQ(win[i], full[a + i])
            << "base " << base << " window [" << a << ", " << b << ") + " << i;
      }
      // The rotator stays within 1e-12 of the exact rotation.
      for (std::size_t n = 0; n < x.size(); n += 7) {
        const double phi =
            -kTwoPi * f / fs * (static_cast<double>(n) + base);
        ASSERT_LE(std::abs(full[n] - x[n] * phasor(phi)),
                  1e-12 * std::abs(x[n]))
            << "base " << base << " sample " << n;
      }
    }
  }
}

TEST(Sync, CfoCorrectionRejectsANonFiniteOffset) {
  const cvec x(8, cplx{1.0, 0.0});
  cvec out(x.size());
  EXPECT_THROW(correct_cfo_into(x, 1e3, 10e6,
                                std::numeric_limits<double>::quiet_NaN(), out),
               std::invalid_argument);
  EXPECT_THROW(correct_cfo_into(x, 1e3, 10e6, 0x1p60, out),
               std::invalid_argument);
}

TEST(ChanEst, FlatChannelEstimatesGain) {
  const cplx g{0.8, -0.6};
  cvec rx = ltf_freq();
  for (cplx& v : rx) v *= g;
  const ChannelEstimate est = estimate_from_ltf(rx);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(est.at(k) - g), 0.0, 1e-12);
  }
  EXPECT_NEAR(est.mean_gain_power(), std::norm(g), 1e-12);
  EXPECT_NEAR(est.mean_phase(), std::arg(g), 1e-12);
}

TEST(ChanEst, MeanRatioRecoversRotation) {
  Rng rng(10);
  ChannelEstimate a;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    a.set(k, rng.cgaussian());
  }
  ChannelEstimate b = a;
  const double phi = 0.42;
  b.rotate(phi);
  const cplx ratio = b.mean_ratio(a);
  EXPECT_NEAR(std::arg(ratio), phi, 1e-12);
  EXPECT_NEAR(std::abs(ratio), 1.0, 1e-12);
}

TEST(ChanEst, AveragingReducesNoise) {
  Rng rng(11);
  ChannelEstimate truth;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    truth.set(k, cplx{1.0, 0.0});
  }
  const double nvar = 0.01;
  auto noisy = [&] {
    ChannelEstimate e = truth;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0) continue;
      e.set(k, e.at(k) + rng.cgaussian(nvar));
    }
    return e;
  };
  double err1 = 0.0, err8 = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    err1 += std::norm(noisy().at(1) - truth.at(1));
    std::vector<ChannelEstimate> es;
    for (int i = 0; i < 8; ++i) es.push_back(noisy());
    err8 += std::norm(average_estimates(es).at(1) - truth.at(1));
  }
  EXPECT_LT(err8, err1 / 4.0);  // expect ~ err1/8
}

TEST(ChanEst, PilotTrackerMeasuresCommonPhase) {
  Rng rng(12);
  ChannelEstimate chan;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    chan.set(k, rng.cgaussian() + cplx{1.5, 0.0});
  }
  const double phi = 0.2, slope = 0.005;
  cvec freq = map_subcarriers(cvec(kNumDataCarriers, cplx{1.0, 0.0}), 4);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    freq[b] *= chan.h[b] * phasor(phi + slope * k);
  }
  const PilotPhase pp = track_pilots(freq, chan, 4);
  EXPECT_NEAR(pp.common, phi, 1e-9);
  EXPECT_NEAR(pp.slope, slope, 1e-9);

  cvec data = extract_data(freq);
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] /= chan.h[bin_of(dc[i])];
  }
  apply_phase_correction(data, pp);
  for (const cplx& d : data) {
    EXPECT_NEAR(std::abs(d - cplx{1.0, 0.0}), 0.0, 1e-9);
  }
}

TEST(Frame, SignalSymbolRoundTrip) {
  for (std::size_t rate = 0; rate < rate_set().size(); ++rate) {
    for (std::size_t len : {1u, 64u, 1500u, 4095u}) {
      const cvec sym = build_signal_symbol({rate, len});
      const auto dec = decode_signal_symbol(sym, 0.01);
      ASSERT_TRUE(dec.has_value());
      EXPECT_EQ(dec->rate_index, rate);
      EXPECT_EQ(dec->length, len);
    }
  }
  EXPECT_THROW((void)build_signal_symbol({0, 0}), std::invalid_argument);
  EXPECT_THROW((void)build_signal_symbol({0, 4096}), std::invalid_argument);
}

TEST(Frame, NDataSymbols) {
  const Mcs bpsk_half{Modulation::kBpsk, CodeRate::kHalf};
  // 16 + 8 + 6 = 30 bits at 24 dbps -> 2 symbols.
  EXPECT_EQ(n_data_symbols(1, bpsk_half), 2u);
  const Mcs q64{Modulation::kQam64, CodeRate::kThreeQuarters};
  // 16 + 12000 + 6 = 12022 bits at 216 dbps -> 56 symbols.
  EXPECT_EQ(n_data_symbols(1500, q64), 56u);
}

class PsduRoundTrip : public ::testing::TestWithParam<Mcs> {};

TEST_P(PsduRoundTrip, CleanChannel) {
  const Mcs mcs = GetParam();
  Rng rng(13);
  for (std::size_t len : {1u, 100u, 1500u}) {
    const ByteVec psdu = random_psdu(rng, len);
    const auto symbols = encode_psdu(psdu, mcs);
    EXPECT_EQ(symbols.size(), n_data_symbols(len, mcs));
    std::vector<std::vector<double>> llr;
    for (const cvec& s : symbols) {
      llr.push_back(demodulate_soft(s, mcs.modulation, 0.05));
    }
    const auto decoded = decode_psdu(llr, {rate_index(mcs), len});
    ASSERT_TRUE(decoded.has_value()) << mcs.name() << " len " << len;
    EXPECT_EQ(*decoded, psdu);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, PsduRoundTrip, ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Frame, ScramblerSeedRecovered) {
  // Different seeds must all decode (the receiver self-recovers the seed).
  const Mcs mcs{Modulation::kQpsk, CodeRate::kHalf};
  Rng rng(14);
  const ByteVec psdu = random_psdu(rng, 200);
  for (unsigned seed : {1u, 0x5Du, 0x7Fu, 0x2Au}) {
    const auto symbols = encode_psdu(psdu, mcs, seed);
    std::vector<std::vector<double>> llr;
    for (const cvec& s : symbols) {
      llr.push_back(demodulate_soft(s, mcs.modulation, 0.05));
    }
    const auto decoded = decode_psdu(llr, {rate_index(mcs), psdu.size()});
    ASSERT_TRUE(decoded.has_value()) << seed;
    EXPECT_EQ(*decoded, psdu);
  }
}

// Full loopback: TX waveform -> (delay + attenuation + CFO + noise) -> RX.
class LoopbackTest : public ::testing::TestWithParam<Mcs> {};

TEST_P(LoopbackTest, DecodesThroughImpairedChannel) {
  const Mcs mcs = GetParam();
  Rng rng(15 + rate_index(mcs));
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  const Receiver rx(cfg);

  const ByteVec psdu = random_psdu(rng, 300);
  const TxFrame frame = tx.build_frame(psdu, mcs);
  const double sig_power = mean_power(frame.samples);

  // 30 dB SNR, 4.7 kHz CFO, flat channel with gain/phase, 50-sample delay.
  const cplx g{0.6, 0.45};
  const double cfo = 4.7e3;
  cvec buf(1200 + frame.samples.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = rng.cgaussian(sig_power / from_db(30.0));
  }
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    const double t = static_cast<double>(i);
    buf[50 + i] +=
        frame.samples[i] * g * phasor(kTwoPi * cfo * t / cfg.sample_rate_hz);
  }

  const RxResult res = rx.receive(buf);
  ASSERT_TRUE(res.ok) << res.fail_reason << " (" << mcs.name() << ")";
  EXPECT_EQ(res.psdu, psdu);
  // One estimate from the 84 lag-64 pairs of GI2 and the LTF has sigma
  // ~100 Hz in this scene (measured over 392 other noise draws): the bound
  // is 4 sigma.
  EXPECT_NEAR(res.preamble.cfo_hz, cfo, 400.0);
  EXPECT_GT(res.evm_snr_db, 15.0);
  EXPECT_NEAR(res.preamble.snr_db, 30.0, 6.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, LoopbackTest, ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Loopback, FailsGracefullyAtVeryLowSnr) {
  Rng rng(16);
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  const Receiver rx(cfg);
  const Mcs mcs{Modulation::kQam64, CodeRate::kThreeQuarters};
  const ByteVec psdu = random_psdu(rng, 500);
  const TxFrame frame = tx.build_frame(psdu, mcs);
  const cvec noisy =
      add_noise(frame.samples, -5.0, rng, mean_power(frame.samples));
  const RxResult res = rx.receive(noisy);
  // At -5 dB SNR 64-QAM 3/4 must not decode; and must not crash.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.fail_reason.empty());
}

TEST(Loopback, MultipathChannelWithinCp) {
  Rng rng(17);
  const PhyConfig cfg;
  const Transmitter tx(cfg);
  const Receiver rx(cfg);
  const Mcs mcs{Modulation::kQam16, CodeRate::kHalf};
  const ByteVec psdu = random_psdu(rng, 400);
  const TxFrame frame = tx.build_frame(psdu, mcs);

  // Two-tap channel: direct + echo at 6 samples, well inside the 16-sample CP.
  const cplx h0{1.0, 0.0}, h1{0.35, -0.2};
  cvec buf(200 + frame.samples.size() + 10, cplx{});
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    buf[100 + i] += frame.samples[i] * h0;
    buf[106 + i] += frame.samples[i] * h1;
  }
  const double sp = mean_power(frame.samples);
  for (auto& v : buf) v += rng.cgaussian(sp / from_db(25.0));

  const RxResult res = rx.receive(buf);
  ASSERT_TRUE(res.ok) << res.fail_reason;
  EXPECT_EQ(res.psdu, psdu);
}

}  // namespace
}  // namespace jmb::phy
