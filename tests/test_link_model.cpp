// Tests for the link abstraction the MAC-level benches share: the SINR
// pool and the 802.11 best-AP baseline (core/link_model.h).
#include <gtest/gtest.h>

#include <vector>

#include "core/link_model.h"
#include "phy/params.h"
#include "phy/workspace.h"

namespace jmb::core {
namespace {

TEST(SinrPool, MatchesTheCursorIdiomItReplaces) {
  Rng rng(21);
  const ChannelMatrixSet h = random_channel_set(3, 3, rng);
  const auto precoder = Precoder::build_kind(h, PrecoderConfig{});
  ASSERT_TRUE(precoder.has_value());
  constexpr std::size_t kPool = 4;
  constexpr std::size_t kStreams = 3;
  Rng legacy_rng(5);
  std::vector<std::vector<rvec>> legacy;
  for (std::size_t i = 0; i < kPool; ++i) {
    legacy.push_back(jmb_subcarrier_sinrs(h, *precoder, kCalibratedPhaseSigma,
                                          1.0, legacy_rng));
  }
  SinrPool pool(kPool, kStreams, Rng(5));
  pool.append(h, &*precoder);
  std::size_t draw = 0;
  for (std::size_t read = 0; read < 40; ++read) {
    const std::size_t c = (read * 7) % kStreams;
    EXPECT_EQ(pool.state(c).subcarrier_snr,
              legacy[(draw++ / kStreams) % kPool][c])
        << "read " << read;
  }
}

TEST(SinrPool, TooFewSurvivorsIsAnOutage) {
  Rng rng(22);
  const ChannelMatrixSet h = random_channel_set(3, 4, rng);
  Workspace ws;
  SinrPool pool(h, ws, 4, 3, Rng(6));
  const std::vector<std::uint8_t> two_up{1, 0, 1, 0};
  EXPECT_EQ(pool.state(0, two_up).subcarrier_snr,
            rvec(h.n_subcarriers(), 0.0));
  // The outage drew nothing and left the cursor alone.
  SinrPool fresh(h, ws, 4, 3, Rng(6));
  const std::vector<std::uint8_t> all_up(4, 1);
  EXPECT_EQ(pool.state(1, all_up).subcarrier_snr,
            fresh.state(1, all_up).subcarrier_snr);
}

TEST(SinrPool, ZeroInterferenceLeavesEntriesBitwiseUnchanged) {
  Rng rng(23);
  const ChannelMatrixSet h = random_channel_set(2, 3, rng);
  Workspace ws;
  const std::size_t n_sc = h.n_subcarriers();
  SinrPool plain(h, ws, 4, 2, Rng(7));
  SinrPool zero(h, ws, 4, 2, Rng(7), std::vector<double>(n_sc, 0.0));
  SinrPool doubled(h, ws, 4, 2, Rng(7), std::vector<double>(n_sc, 1.0));
  const std::vector<std::uint8_t> mask{1, 1, 0};
  for (std::size_t read = 0; read < 12; ++read) {
    const rvec a = plain.state(read % 2, mask).subcarrier_snr;
    EXPECT_EQ(zero.state(read % 2, mask).subcarrier_snr, a);
    const rvec b = doubled.state(read % 2, mask).subcarrier_snr;
    for (std::size_t k = 0; k < n_sc; ++k) EXPECT_EQ(b[k], a[k] / 2.0);
  }
}

TEST(BestApLinkState, IgnoresDownAps) {
  const std::vector<double> gains{3.0, 9.0, 5.0};
  const auto flat = [](double snr) {
    return rvec(phy::kNumDataCarriers, snr);
  };
  EXPECT_EQ(best_ap_link_state(gains).subcarrier_snr, flat(9.0));
  const std::vector<std::uint8_t> up{1, 0, 1};
  EXPECT_EQ(best_ap_link_state(gains, up).subcarrier_snr, flat(5.0));
  const std::vector<std::uint8_t> none(3, 0);
  EXPECT_EQ(best_ap_link_state(gains, none).subcarrier_snr, flat(0.0));
}

}  // namespace
}  // namespace jmb::core
