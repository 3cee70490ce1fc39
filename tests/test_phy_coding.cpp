// Tests for the bit-level PHY pipeline: scrambler, CRC, convolutional
// code + puncturing, Viterbi, interleaver, constellation mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dsp/rng.h"
#include "phy/bits.h"
#include "phy/convcode.h"
#include "phy/crc32.h"
#include "phy/interleaver.h"
#include "phy/modulation.h"
#include "phy/scrambler.h"
#include "phy/viterbi.h"

namespace jmb::phy {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  return b;
}

TEST(Scrambler, IsItsOwnInverse) {
  Rng rng(1);
  const BitVec bits = random_bits(rng, 500);
  const BitVec once = scramble_bits(bits, 0x5D);
  EXPECT_NE(once, bits);
  EXPECT_EQ(scramble_bits(once, 0x5D), bits);
}

TEST(Scrambler, RejectsZeroSeed) {
  EXPECT_THROW(Scrambler(0), std::invalid_argument);
  EXPECT_THROW(Scrambler(0x80), std::invalid_argument);  // masked to 0
}

TEST(Scrambler, SequencePeriod127) {
  Scrambler a(0x7F);
  BitVec first(127), second(127);
  for (auto& b : first) b = a.next_bit();
  for (auto& b : second) b = a.next_bit();
  EXPECT_EQ(first, second);
  // Balanced: a maximal-length 7-bit LFSR emits 64 ones and 63 zeros.
  EXPECT_EQ(std::count(first.begin(), first.end(), 1), 64);
}

TEST(Scrambler, PilotPolarityMatchesStandardPrefix) {
  // 802.11a 17.3.5.9: p starts 1,1,1,1,-1,-1,-1,1 ...
  const double expect[8] = {1, 1, 1, 1, -1, -1, -1, 1};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(pilot_polarity(i), expect[i]) << i;
  }
  EXPECT_EQ(pilot_polarity(0), pilot_polarity(127));  // period 127
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  const ByteVec data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, AppendCheckStripRoundTrip) {
  Rng rng(2);
  ByteVec data(100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const ByteVec framed = append_crc32(data);
  EXPECT_EQ(framed.size(), data.size() + 4);
  EXPECT_TRUE(check_crc32(framed));
  EXPECT_EQ(strip_crc32(framed), data);
}

TEST(Crc32, DetectsSingleBitFlip) {
  Rng rng(3);
  ByteVec data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  ByteVec framed = append_crc32(data);
  for (int trial = 0; trial < 50; ++trial) {
    ByteVec corrupted = framed;
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(framed.size()) - 1));
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    EXPECT_FALSE(check_crc32(corrupted));
  }
  EXPECT_FALSE(check_crc32(ByteVec{1, 2, 3}));  // too short
}

TEST(Bits, BytesToBitsLsbFirst) {
  const ByteVec bytes{0x01, 0x80};
  const BitVec bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);  // LSB of 0x01 first
  EXPECT_EQ(bits[7], 0);
  EXPECT_EQ(bits[8], 0);
  EXPECT_EQ(bits[15], 1);  // MSB of 0x80 last
  EXPECT_EQ(bits_to_bytes(bits), bytes);
  EXPECT_THROW((void)bits_to_bytes(BitVec(7, 0)), std::invalid_argument);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance({0, 1, 1}, {0, 1, 1}), 0u);
  EXPECT_EQ(hamming_distance({0, 1, 1}, {1, 1, 0}), 2u);
  EXPECT_EQ(hamming_distance({0, 1}, {0, 1, 1, 1}), 2u);  // length mismatch
}

TEST(ConvCode, KnownImpulseResponse) {
  // A single 1 followed by zeros produces the generator taps.
  const BitVec coded = conv_encode({1, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(coded.size(), 14u);
  // First output pair: both generators tap the current bit -> (1,1).
  EXPECT_EQ(coded[0], 1);
  EXPECT_EQ(coded[1], 1);
}

TEST(ConvCode, RateHalfDoubles) {
  Rng rng(4);
  const BitVec bits = random_bits(rng, 100);
  EXPECT_EQ(conv_encode(bits).size(), 200u);
}

TEST(ConvCode, PunctureLengths) {
  EXPECT_EQ(punctured_length(100, CodeRate::kHalf), 200u);
  EXPECT_EQ(punctured_length(100, CodeRate::kTwoThirds), 150u);
  EXPECT_EQ(punctured_length(99, CodeRate::kThreeQuarters), 132u);
  EXPECT_THROW((void)punctured_length(99, CodeRate::kTwoThirds),
               std::invalid_argument);
  EXPECT_THROW((void)punctured_length(100, CodeRate::kThreeQuarters),
               std::invalid_argument);
}

TEST(ConvCode, DepunctureInsertsErasures) {
  Rng rng(5);
  const BitVec bits = random_bits(rng, 12);
  const BitVec coded = conv_encode(bits);
  const BitVec punct = puncture(coded, CodeRate::kThreeQuarters);
  EXPECT_EQ(punct.size(), 16u);
  std::vector<double> llr(punct.size());
  for (std::size_t i = 0; i < punct.size(); ++i) llr[i] = punct[i] ? -1.0 : 1.0;
  const std::vector<double> dep = depuncture(llr, 12, CodeRate::kThreeQuarters);
  ASSERT_EQ(dep.size(), 24u);
  // Non-erased positions must carry the original coded bits.
  std::size_t erasures = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    if (dep[i] == 0.0) {
      ++erasures;
    } else {
      EXPECT_EQ(dep[i] < 0, coded[i] == 1);
    }
  }
  EXPECT_EQ(erasures, 8u);
}

class ViterbiRoundTrip : public ::testing::TestWithParam<CodeRate> {};

TEST_P(ViterbiRoundTrip, CleanChannelRecoversBits) {
  const CodeRate rate = GetParam();
  Rng rng(6);
  // n_info divisible by 6 keeps all puncturing patterns happy.
  for (int trial = 0; trial < 10; ++trial) {
    BitVec info = random_bits(rng, 120);
    // Terminate the trellis.
    for (int i = 0; i < 6; ++i) {
      info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
    }
    const BitVec punct = puncture(conv_encode(info), rate);
    std::vector<double> llr(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      llr[i] = punct[i] ? -4.0 : 4.0;
    }
    const std::vector<double> dep = depuncture(llr, info.size(), rate);
    EXPECT_EQ(viterbi_decode(dep, info.size()), info);
  }
}

TEST_P(ViterbiRoundTrip, CorrectsNoisySoftBits) {
  const CodeRate rate = GetParam();
  Rng rng(7);
  int failures = 0;
  for (int trial = 0; trial < 20; ++trial) {
    BitVec info = random_bits(rng, 120);
    for (int i = 0; i < 6; ++i) {
      info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
    }
    const BitVec punct = puncture(conv_encode(info), rate);
    // BPSK over AWGN at ~5 dB Eb/N0 equivalent.
    std::vector<double> llr(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      const double tx = punct[i] ? -1.0 : 1.0;
      llr[i] = 2.0 * (tx + rng.gaussian(0.45));
    }
    const std::vector<double> dep = depuncture(llr, info.size(), rate);
    if (viterbi_decode(dep, info.size()) != info) ++failures;
  }
  // Rate 1/2 should essentially never fail here; punctured rates rarely.
  EXPECT_LE(failures, rate == CodeRate::kHalf ? 0 : 4);
}

INSTANTIATE_TEST_SUITE_P(Rates, ViterbiRoundTrip,
                         ::testing::Values(CodeRate::kHalf,
                                           CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters));

TEST(Viterbi, HardDecisionCorrectsErrors) {
  Rng rng(8);
  BitVec info = random_bits(rng, 60);
  for (int i = 0; i < 6; ++i) {
    info[info.size() - 1 - static_cast<std::size_t>(i)] = 0;
  }
  BitVec coded = conv_encode(info);
  // Flip 6 well-separated coded bits: free distance 10 handles these.
  for (std::size_t pos : {3u, 23u, 43u, 63u, 83u, 103u}) coded[pos] ^= 1u;
  EXPECT_EQ(viterbi_decode_hard(coded, info.size()), info);
}

TEST(Viterbi, InputValidation) {
  EXPECT_THROW((void)viterbi_decode(std::vector<double>(10), 6),
               std::invalid_argument);
}

class InterleaverRoundTrip : public ::testing::TestWithParam<Mcs> {};

TEST_P(InterleaverRoundTrip, Bijective) {
  const Mcs mcs = GetParam();
  Rng rng(9);
  const BitVec bits = random_bits(rng, mcs.n_cbps());
  const BitVec inter = interleave(bits, mcs);
  EXPECT_EQ(deinterleave(inter, mcs), bits);
  // Permutation property: sorted indices are 0..n-1.
  auto perm = interleave_permutation(mcs);
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
}

TEST_P(InterleaverRoundTrip, SoftMatchesHard) {
  const Mcs mcs = GetParam();
  Rng rng(10);
  const BitVec bits = random_bits(rng, mcs.n_cbps());
  const BitVec inter = interleave(bits, mcs);
  std::vector<double> llr(inter.size());
  for (std::size_t i = 0; i < inter.size(); ++i) llr[i] = inter[i] ? -1.0 : 1.0;
  const auto soft = deinterleave_soft(llr, mcs);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(soft[i] < 0, bits[i] == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, InterleaverRoundTrip,
    ::testing::ValuesIn(rate_set()),
    [](const ::testing::TestParamInfo<Mcs>& info) {
      return "mcs" + std::to_string(info.index);
    });

TEST(Interleaver, AdjacentBitsSpread) {
  // The point of the interleaver: adjacent coded bits land on
  // non-adjacent subcarriers.
  const Mcs mcs{Modulation::kQam16, CodeRate::kHalf};
  const auto perm = interleave_permutation(mcs);
  for (std::size_t k = 0; k + 1 < perm.size(); ++k) {
    const auto sub_a = perm[k] / mcs.n_bpsc();
    const auto sub_b = perm[k + 1] / mcs.n_bpsc();
    EXPECT_NE(sub_a, sub_b);
  }
}

class ModulationRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationRoundTrip, HardDecisionRecovers) {
  const Modulation m = GetParam();
  Rng rng(11);
  const BitVec bits = random_bits(rng, bits_per_symbol(m) * 96);
  const cvec syms = modulate(bits, m);
  EXPECT_EQ(syms.size(), 96u);
  EXPECT_EQ(demodulate_hard(syms, m), bits);
}

TEST_P(ModulationRoundTrip, UnitAveragePower) {
  const Modulation m = GetParam();
  const cvec& pts = constellation(m);
  double p = 0.0;
  for (const cplx& v : pts) p += std::norm(v);
  EXPECT_NEAR(p / static_cast<double>(pts.size()), 1.0, 1e-12);
}

TEST_P(ModulationRoundTrip, SoftSignsMatchHardBits) {
  const Modulation m = GetParam();
  Rng rng(12);
  const BitVec bits = random_bits(rng, bits_per_symbol(m) * 48);
  const cvec syms = modulate(bits, m);
  const auto llr = demodulate_soft(syms, m, 0.1);
  ASSERT_EQ(llr.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      EXPECT_LT(llr[i], 0.0) << i;
    } else {
      EXPECT_GT(llr[i], 0.0) << i;
    }
  }
}

TEST_P(ModulationRoundTrip, GrayNeighborsDifferInOneBit) {
  // Gray property: horizontally/vertically adjacent constellation points
  // differ in exactly one bit.
  const Modulation m = GetParam();
  if (m == Modulation::kBpsk) GTEST_SKIP() << "trivial for BPSK";
  const cvec& pts = constellation(m);
  const std::size_t nbits = bits_per_symbol(m);
  const double step = 2.0 * kmod(m);
  for (std::size_t a = 0; a < pts.size(); ++a) {
    for (std::size_t b = 0; b < pts.size(); ++b) {
      const double d = std::abs(pts[a] - pts[b]);
      if (std::abs(d - step) < 1e-9) {
        int diff = 0;
        for (std::size_t k = 0; k < nbits; ++k) {
          if (((a >> k) ^ (b >> k)) & 1u) ++diff;
        }
        EXPECT_EQ(diff, 1) << "points " << a << "," << b;
      }
    }
  }
}

// The per-bit demapper loops the one-pass kernel replaced: every bit
// recomputes all point distances; the EVM path hard-decides, then
// re-modulates the bits.
std::vector<double> per_bit_llrs(const cvec& symbols, Modulation m,
                                 const rvec& noise) {
  const std::size_t nbits = bits_per_symbol(m);
  const cvec& pts = constellation(m);
  std::vector<double> out;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const double nv = std::max(noise[s], 1e-12);
    for (std::size_t b = 0; b < nbits; ++b) {
      const std::size_t bit_pos = nbits - 1 - b;
      double d0 = std::numeric_limits<double>::infinity();
      double d1 = std::numeric_limits<double>::infinity();
      for (std::size_t v = 0; v < pts.size(); ++v) {
        const double d = std::norm(symbols[s] - pts[v]);
        if ((v >> bit_pos) & 1u) {
          d1 = std::min(d1, d);
        } else {
          d0 = std::min(d0, d);
        }
      }
      out.push_back((d1 - d0) / nv);
    }
  }
  return out;
}

cvec hard_then_remodulate(const cvec& symbols, Modulation m) {
  const cvec& pts = constellation(m);
  cvec out;
  for (const cplx& y : symbols) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < pts.size(); ++v) {
      const double d = std::norm(y - pts[v]);
      if (d < best_d) {
        best_d = d;
        best = v;
      }
    }
    out.push_back(pts[best]);
  }
  return out;
}

std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST_P(ModulationRoundTrip, OnePassDemapperMatchesThePerBitLoopsBitwise) {
  const Modulation m = GetParam();
  const cvec& pts = constellation(m);
  Rng rng(13);
  cvec syms;
  rvec noise;
  // Noisy points at a range of SNRs.
  for (int i = 0; i < 400; ++i) {
    const cplx p = pts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pts.size()) - 1))];
    syms.push_back(p + rng.cgaussian(std::pow(10.0, rng.uniform(-4.0, 0.5))));
    noise.push_back(rng.uniform(0.0, 0.2));  // includes the 1e-12 clamp
  }
  // Ties: the origin, exact points, midpoints of every pair of points and
  // points on the decision boundaries' extensions.
  syms.push_back({0.0, 0.0});
  for (std::size_t a = 0; a < pts.size(); ++a) {
    syms.push_back(pts[a]);
    for (std::size_t b = a + 1; b < pts.size(); ++b) {
      syms.push_back(0.5 * (pts[a] + pts[b]));
    }
    syms.push_back({pts[a].real(), 0.0});
    syms.push_back({0.0, pts[a].imag()});
  }
  // Non-finite equalizer outputs (a zero channel tap).
  const double inf = std::numeric_limits<double>::infinity();
  syms.push_back({inf, 0.0});
  syms.push_back({std::numeric_limits<double>::quiet_NaN(), 1.0});
  noise.resize(syms.size(), 0.05);

  const std::vector<double> want_llr = per_bit_llrs(syms, m, noise);
  const cvec want_near = hard_then_remodulate(syms, m);
  std::vector<double> llr;
  cvec nearest;
  demodulate_soft_nearest_into(syms, m, noise, llr, nearest);
  std::vector<double> soft_only;
  demodulate_soft_into(syms, m, noise, soft_only);
  BitVec hard;
  demodulate_hard_into(syms, m, hard);
  cvec remod(syms.size());
  modulate_into(hard, m, remod);
  ASSERT_EQ(llr.size(), want_llr.size());
  ASSERT_EQ(soft_only.size(), want_llr.size());
  for (std::size_t i = 0; i < want_llr.size(); ++i) {
    ASSERT_EQ(bits_of(llr[i]), bits_of(want_llr[i])) << "llr " << i;
    ASSERT_EQ(bits_of(soft_only[i]), bits_of(want_llr[i])) << "llr " << i;
  }
  ASSERT_EQ(nearest.size(), syms.size());
  double err = 0.0, sig = 0.0, want_err = 0.0, want_sig = 0.0;
  for (std::size_t i = 0; i < syms.size(); ++i) {
    ASSERT_EQ(nearest[i], want_near[i]) << "nearest " << i;
    ASSERT_EQ(remod[i], want_near[i]) << "hard decision " << i;
    if (!std::isfinite(std::norm(syms[i]))) continue;
    err += std::norm(syms[i] - nearest[i]);
    sig += std::norm(nearest[i]);
    want_err += std::norm(syms[i] - want_near[i]);
    want_sig += std::norm(want_near[i]);
  }
  EXPECT_EQ(bits_of(err), bits_of(want_err));
  EXPECT_EQ(bits_of(sig), bits_of(want_sig));
}

INSTANTIATE_TEST_SUITE_P(AllMods, ModulationRoundTrip,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Modulation, InputValidation) {
  EXPECT_THROW((void)modulate(BitVec(3, 0), Modulation::kQpsk),
               std::invalid_argument);
  EXPECT_THROW((void)demodulate_soft(cvec(4), Modulation::kBpsk, rvec(3)),
               std::invalid_argument);
}

TEST(Params, RateSetValues) {
  const auto& rates = rate_set();
  ASSERT_EQ(rates.size(), 8u);
  // 20 MHz: the classic 6..54 Mb/s ladder.
  const double expect20[8] = {6, 9, 12, 18, 24, 36, 48, 54};
  // 10 MHz (the paper's USRP channel): everything halves.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(rates[i].rate_mbps(20e6), expect20[i], 1e-9) << i;
    EXPECT_NEAR(rates[i].rate_mbps(10e6), expect20[i] / 2, 1e-9) << i;
  }
}

TEST(Params, RateFieldRoundTrip) {
  for (std::size_t i = 0; i < rate_set().size(); ++i) {
    EXPECT_EQ(rate_index_from_field(rate_field_bits(i)), i);
  }
  EXPECT_THROW((void)rate_index_from_field(0b0000), std::invalid_argument);
  EXPECT_THROW((void)rate_field_bits(8), std::invalid_argument);
}

TEST(Params, CarrierLayout) {
  EXPECT_EQ(data_carriers().size(), 48u);
  EXPECT_EQ(pilot_carriers().size(), 4u);
  // No overlap between data and pilot carriers, none at DC.
  for (int d : data_carriers()) {
    EXPECT_NE(d, 0);
    for (int p : pilot_carriers()) EXPECT_NE(d, p);
  }
  EXPECT_EQ(bin_of(-1), 63u);
  EXPECT_EQ(bin_of(1), 1u);
  EXPECT_EQ(bin_of(-26), 38u);
}

TEST(Params, NdbpsTable) {
  EXPECT_EQ((Mcs{Modulation::kBpsk, CodeRate::kHalf}).n_dbps(), 24u);
  EXPECT_EQ((Mcs{Modulation::kQam64, CodeRate::kThreeQuarters}).n_dbps(), 216u);
  EXPECT_EQ((Mcs{Modulation::kQam64, CodeRate::kTwoThirds}).n_dbps(), 192u);
  EXPECT_EQ((Mcs{Modulation::kQam16, CodeRate::kHalf}).n_cbps(), 192u);
}

}  // namespace
}  // namespace jmb::phy
