// Tests for the channel substrate: oscillator model, fading, topology,
// and the sample-level Medium — including an end-to-end packet through the
// medium into the standard receiver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "chan/fading.h"
#include "chan/medium.h"
#include "chan/oscillator.h"
#include "chan/topology.h"
#include "dsp/fft.h"
#include "dsp/stats.h"
#include "phy/receiver.h"
#include "phy/transmitter.h"

namespace jmb::chan {
namespace {

TEST(Oscillator, CfoFromPpm) {
  Oscillator osc({.ppm = 2.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
                  .phase_noise_linewidth_hz = 0.0, .seed = 1});
  EXPECT_NEAR(osc.cfo_hz(), 4800.0, 1e-9);
  EXPECT_NEAR(osc.clock_ratio(), 1.000002, 1e-12);
  EXPECT_NEAR(osc.sample_rate_hz(), 10e6 * 1.000002, 1e-3);
}

TEST(Oscillator, RotationWithoutNoiseIsPureCfo) {
  Oscillator osc({.ppm = 1.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
                  .phase_noise_linewidth_hz = 0.0, .seed = 1});
  const double t = 1e-3;
  const cplx r = osc.rotation_at(t);
  EXPECT_NEAR(std::arg(r), wrap_phase(kTwoPi * 2400.0 * t), 1e-9);
}

TEST(Oscillator, PhaseNoiseIsDeterministic) {
  const OscillatorParams p{.ppm = 0.0, .carrier_hz = 2.4e9,
                           .sample_rate_hz = 10e6,
                           .phase_noise_linewidth_hz = 0.5, .seed = 42};
  Oscillator a(p), b(p);
  // Query in different orders; same values must come back.
  const double v1 = a.phase_noise_at(100000);
  const double v2 = a.phase_noise_at(50000);
  EXPECT_EQ(b.phase_noise_at(50000), v2);
  EXPECT_EQ(b.phase_noise_at(100000), v1);
}

TEST(Oscillator, PhaseNoiseVarianceGrowsLinearly) {
  // Wiener process: Var[theta(n)] = (2 pi B / fs) * n. Check the ensemble
  // across seeds at two horizons.
  const double fs = 10e6, B = 1.0;
  RunningStats s_short, s_long;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Oscillator osc({.ppm = 0.0, .carrier_hz = 2.4e9, .sample_rate_hz = fs,
                    .phase_noise_linewidth_hz = B, .seed = seed});
    s_short.add(osc.phase_noise_at(10000));
    s_long.add(osc.phase_noise_at(40000));
  }
  const double expect_short = kTwoPi * B / fs * 10000;
  const double expect_long = kTwoPi * B / fs * 40000;
  EXPECT_NEAR(s_short.variance(), expect_short, expect_short * 0.35);
  EXPECT_NEAR(s_long.variance(), expect_long, expect_long * 0.35);
}

TEST(Fading, MeanPowerMatchesGain) {
  RunningStats power;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FadingChannel ch({.gain = 2.5, .n_taps = 4, .tap_decay = 0.5,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    double p = 0.0;
    for (const cplx& t : ch.taps()) p += std::norm(t);
    power.add(p);
  }
  EXPECT_NEAR(power.mean(), 2.5, 0.25);
}

TEST(Fading, ExponentialProfileDecays) {
  RunningStats t0, t1, t2;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 3, .tap_decay = 0.4,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    t0.add(std::norm(ch.taps()[0]));
    t1.add(std::norm(ch.taps()[1]));
    t2.add(std::norm(ch.taps()[2]));
  }
  EXPECT_NEAR(t1.mean() / t0.mean(), 0.4, 0.1);
  EXPECT_NEAR(t2.mean() / t1.mean(), 0.4, 0.15);
}

TEST(Fading, CoherenceTimeDecorrelation) {
  // Jakes model: autocorrelation ~ J0(2 pi f_D dt) with f_D picked so the
  // 50% point lands at the configured coherence time. Short lags must be
  // essentially unchanged (quadratic rolloff) — the property that lets JMB
  // amortize one measurement over the coherence time.
  const double tc = 0.25;
  RunningStats corr_tc, corr_tiny, err_tiny;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 0.5,
                      .rice_k = 0.0, .delay_s = 0.0, .coherence_time_s = tc,
                      .sample_rate_hz = 10e6, .seed = seed});
    const cplx h0 = ch.taps()[0];
    ch.evolve_to(3e-3);  // << Tc: essentially unchanged
    corr_tiny.add((std::conj(h0) * ch.taps()[0]).real() / std::norm(h0));
    err_tiny.add(std::norm(ch.taps()[0] - h0) / std::norm(h0));
    ch.evolve_to(3e-3 + tc);
    corr_tc.add((std::conj(h0) * ch.taps()[0]).real());
  }
  EXPECT_GT(corr_tiny.mean(), 0.999);
  // The 3 ms innovation must be far below -25 dB relative to the tap —
  // Gauss-Markov (linear rolloff) would fail this at ~ -16 dB.
  EXPECT_LT(to_db(err_tiny.mean()), -25.0);
  EXPECT_NEAR(corr_tc.mean(), 0.5, 0.15);
}

TEST(Fading, EvolveBackwardsThrows) {
  FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 0.5, .rice_k = 0.0,
                    .delay_s = 0.0, .coherence_time_s = 0.25,
                    .sample_rate_hz = 10e6, .seed = 1});
  ch.evolve_to(1.0);
  EXPECT_THROW(ch.evolve_to(0.5), std::invalid_argument);
}

TEST(Fading, RicianKConcentratesFirstTap) {
  RunningStats mag;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FadingChannel ch({.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                      .rice_k = 20.0, .delay_s = 0.0, .coherence_time_s = 0.25,
                      .sample_rate_hz = 10e6, .seed = seed});
    mag.add(std::abs(ch.taps()[0]));
  }
  // Strong LOS: magnitude tightly clustered near 1.
  EXPECT_NEAR(mag.mean(), 1.0, 0.05);
  EXPECT_LT(mag.stddev(), 0.2);
}

TEST(Fading, ApplyIsLinearConvolution) {
  FadingChannel ch({.gain = 1.0, .n_taps = 3, .tap_decay = 0.5, .rice_k = 0.0,
                    .delay_s = 0.0, .coherence_time_s = 0.25,
                    .sample_rate_hz = 10e6, .seed = 7});
  const cvec x{cplx{1, 0}, cplx{0, 1}};
  const cvec y = ch.apply(x);
  ASSERT_EQ(y.size(), 4u);
  const auto& h = ch.taps();
  EXPECT_NEAR(std::abs(y[0] - h[0] * x[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - (h[1] * x[0] + h[0] * x[1])), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[3] - h[2] * x[1]), 0.0, 1e-12);
}

TEST(Topology, PlacementRespectsRoom) {
  Rng rng(1);
  const RoomParams room;
  const Topology t = sample_topology(10, 10, room, rng);
  EXPECT_EQ(t.aps.size(), 10u);
  EXPECT_EQ(t.clients.size(), 10u);
  ASSERT_EQ(t.links.size(), 10u);
  for (const auto& row : t.links) EXPECT_EQ(row.size(), 10u);
  for (const Position& p : t.aps) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, room.width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, room.height_m);
    // On a ledge: within 0.5 m of some wall.
    const double wall = std::min(std::min(p.x, room.width_m - p.x),
                                 std::min(p.y, room.height_m - p.y));
    EXPECT_LE(wall, 0.5);
  }
}

TEST(Topology, CloserIsStrongerOnAverage) {
  Rng rng(2);
  const RoomParams room;
  RunningStats near_snr, far_snr;
  for (int trial = 0; trial < 60; ++trial) {
    const Topology t = sample_topology(4, 4, room, rng);
    for (std::size_t c = 0; c < t.clients.size(); ++c) {
      for (std::size_t a = 0; a < t.aps.size(); ++a) {
        (t.links[c][a].distance_m < 5.0 ? near_snr : far_snr)
            .add(t.links[c][a].snr_db);
      }
    }
  }
  EXPECT_GT(near_snr.mean(), far_snr.mean() + 3.0);
}

TEST(Topology, BandSamplerHitsBand) {
  Rng rng(3);
  const RoomParams room;
  for (const auto& [lo, hi] :
       {std::pair{6.0, 12.0}, {12.0, 18.0}, {18.0, 30.0}}) {
    const Topology t = sample_topology_in_band(6, 6, room, rng, lo, hi);
    for (std::size_t c = 0; c < t.clients.size(); ++c) {
      double best = -1e18;
      for (const Link& l : t.links[c]) best = std::max(best, l.snr_db);
      EXPECT_GE(best, lo - 1e-9);
      EXPECT_LE(best, hi + 1e-9);
    }
  }
}

TEST(Topology, PropagationDelayScale) {
  // 15 m across a conference room: 50 ns, i.e. half a sample at 10 MHz —
  // comfortably inside the 1.6 us cyclic prefix, as the paper argues.
  EXPECT_NEAR(propagation_delay_s(15.0), 50e-9, 1e-9);
}

// ---------------------------------------------------------------------------
// Pinned sample-level physics. No checked-in baseline covers the medium, so
// the tests below compare it bitwise with an independent copy of the
// per-sample renderer it started from: per (transmission, receiver) pair a
// fresh convolution, then for every receiver sample a cubic interpolation,
// a CFO rotation and both oscillators' phase noise theta(n), looked up one
// index at a time from a plain left fold of the hashed increments.

std::uint64_t oracle_splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double oracle_hashed_gaussian(std::uint64_t seed, std::uint64_t n) {
  const std::uint64_t key = oracle_splitmix64(seed);
  const std::uint64_t a = oracle_splitmix64(key ^ oracle_splitmix64(2 * n + 1));
  const std::uint64_t b = oracle_splitmix64(key ^ oracle_splitmix64(2 * n + 2));
  const double u1 = (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = (static_cast<double>(b >> 11) + 0.5) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

/// theta(0..last) as the left fold theta(n) = theta(n-1) + sigma * g(n).
std::vector<double> oracle_theta(const OscillatorParams& p,
                                 std::uint64_t last) {
  std::vector<double> theta(last + 1, 0.0);
  const double sigma =
      std::sqrt(kTwoPi * p.phase_noise_linewidth_hz / p.sample_rate_hz);
  if (sigma == 0.0) return theta;
  double phase = 0.0;
  for (std::uint64_t n = 1; n <= last; ++n) {
    phase += sigma * oracle_hashed_gaussian(p.seed, n);
    theta[n] = phase;
  }
  return theta;
}

cplx oracle_interp_cubic(const cvec& x, double pos) {
  if (x.empty() || pos < 0.0 || pos > static_cast<double>(x.size() - 1)) {
    return {0.0, 0.0};
  }
  const auto i1 = static_cast<std::ptrdiff_t>(std::floor(pos));
  const double mu = pos - static_cast<double>(i1);
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const auto at = [&](std::ptrdiff_t i) -> cplx {
    if (i < 0) return x.front();
    if (i >= n) return x.back();
    return x[static_cast<std::size_t>(i)];
  };
  const cplx y0 = at(i1 - 1);
  const cplx y1 = at(i1);
  const cplx y2 = at(i1 + 1);
  const cplx y3 = at(i1 + 2);
  const cplx a = 0.5 * (-y0 + 3.0 * y1 - 3.0 * y2 + y3);
  const cplx b = y0 - 2.5 * y1 + 2.0 * y2 - 0.5 * y3;
  const cplx c = 0.5 * (y2 - y0);
  return ((a * mu + b) * mu + c) * mu + y1;
}

cvec oracle_convolve(const cvec& taps, const cvec& x) {
  if (x.empty()) return {};
  cvec out(x.size() + taps.size() - 1, cplx{});
  for (std::size_t l = 0; l < taps.size(); ++l) {
    const cplx h = taps[l];
    if (h == cplx{}) continue;
    for (std::size_t n = 0; n < x.size(); ++n) out[n + l] += h * x[n];
  }
  return out;
}

struct OracleBurst {
  NodeId tx = 0;
  double start_s = 0.0;
  cvec samples;
};

/// What each of `rxs` hears, rendered one receiver after the other with
/// `noise` drawn in that order (white floor, then the interference blocks).
std::vector<cvec> oracle_receive(const Medium& m, Rng& noise,
                                 const std::vector<OracleBurst>& bursts,
                                 const std::vector<NodeId>& rxs,
                                 double start_s, std::size_t n) {
  const double fs = m.sample_rate_hz();
  std::vector<std::vector<double>> theta(m.n_nodes());
  const auto theta_of = [&](NodeId id, std::uint64_t idx) {
    if (theta[id].size() <= idx) {
      theta[id] = oracle_theta(m.oscillator(id).params(), idx + 4096);
    }
    return theta[id][idx];
  };
  std::vector<cvec> out;
  for (const NodeId rx : rxs) {
    const Oscillator& rxo = m.oscillator(rx);
    const double fs_rx = rxo.sample_rate_hz();
    cvec y(n);
    for (cplx& v : y) v = noise.cgaussian(m.noise_var(rx));
    const std::vector<double>& psd = m.interference(rx);
    if (!psd.empty()) {
      const std::size_t nfft = psd.size();
      cvec bins(nfft);
      for (std::size_t start = 0; start < n; start += nfft) {
        for (std::size_t k = 0; k < nfft; ++k) {
          bins[k] = noise.cgaussian(static_cast<double>(nfft) * psd[k]);
        }
        const cvec block = ifft(bins);
        for (std::size_t i = 0; i < std::min(nfft, n - start); ++i) {
          y[start + i] += block[i];
        }
      }
    }
    for (const OracleBurst& t : bursts) {
      if (t.tx == rx) continue;
      const FadingChannel* ch = m.link(t.tx, rx);
      if (ch == nullptr) continue;
      const Oscillator& txo = m.oscillator(t.tx);
      const double fs_tx = txo.sample_rate_hz();
      const double delta_cfo = txo.cfo_hz() - rxo.cfo_hz();
      const cvec conv = oracle_convolve(ch->taps(), t.samples);
      const double t0 = t.start_s + ch->delay_samples() / fs;
      for (std::size_t k = 0; k < n; ++k) {
        const double tm = start_s + static_cast<double>(k) / fs_rx;
        const double pos = (tm - t0) * fs_tx;
        if (pos < 0.0 || pos > static_cast<double>(conv.size() - 1)) continue;
        const cplx s = oracle_interp_cubic(conv, pos);
        if (s == cplx{}) continue;
        const double det = kTwoPi * delta_cfo * tm;
        const auto idx = static_cast<std::uint64_t>(std::max(0.0, tm * fs));
        const double pn = theta_of(t.tx, idx) - theta_of(rx, idx);
        y[k] += s * phasor(det + pn);
      }
    }
    out.push_back(std::move(y));
  }
  return out;
}

/// Four APs and four clients at up to +-20 ppm with 0.1 Hz phase noise and
/// 4-tap multipath; AP 0 sends a sync header, then all four APs send a
/// burst. The link ap3 -> c2 is missing, c1 carries an interference psd,
/// and `rxs` ends with AP 1, which transmits too (half duplex).
struct PinnedScene {
  static constexpr double kHeaderT = 3.1e-3;  // window crosses n = 2^15
  static constexpr std::size_t kWindow = 3200;

  explicit PinnedScene(std::uint64_t noise_seed) : medium({}, noise_seed) {
    const double ap_ppm[4] = {20.0, -20.0, 7.5, -13.0};
    const double client_ppm[4] = {-20.0, 20.0, 3.0, -9.0};
    for (std::size_t i = 0; i < 4; ++i) {
      aps.push_back(medium.add_node({.ppm = ap_ppm[i],
                                     .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.1,
                                     .seed = 100 + i},
                                    1e-3));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      clients.push_back(medium.add_node({.ppm = client_ppm[i],
                                         .carrier_hz = 2.4e9,
                                         .sample_rate_hz = 10e6,
                                         .phase_noise_linewidth_hz = 0.1,
                                         .seed = 200 + i},
                                        2e-3));
    }
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t c = 0; c < 4; ++c) {
        if (a == 3 && c == 2) continue;  // missing link
        medium.set_link(aps[a], clients[c],
                        {.gain = 0.5 + 0.25 * static_cast<double>(a),
                         .n_taps = 4, .tap_decay = 0.5, .rice_k = 2.0,
                         .delay_s = 30e-9 * static_cast<double>(a + 1) +
                                    17e-9 * static_cast<double>(c),
                         .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                         .seed = 300 + 10 * a + c});
      }
    }
    for (std::size_t a = 1; a < 4; ++a) {
      medium.set_link(aps[0], aps[a],
                      {.gain = 4.0, .n_taps = 4, .tap_decay = 0.5,
                       .rice_k = 5.0, .delay_s = 20e-9,
                       .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                       .seed = 400 + a});
    }
    std::vector<double> psd(64);
    for (std::size_t k = 0; k < psd.size(); ++k) {
      psd[k] = 1e-3 * (1.0 + static_cast<double>(k % 7));
    }
    medium.set_interference(clients[1], psd);
    medium.evolve_links_to(kHeaderT);

    Rng rng(7);
    bursts.push_back({aps[0], kHeaderT, rng.cgaussian_vec(400, 1.0)});
    for (std::size_t a = 0; a < 4; ++a) {
      const double start = kHeaderT + 400.0 / 10e6 + 2e-6 +
                           rng.gaussian(20e-9);
      bursts.push_back({aps[a], start, rng.cgaussian_vec(2500, 1.0)});
    }
    for (const OracleBurst& b : bursts) {
      medium.transmit(b.tx, b.start_s, b.samples);
    }
    rxs = {clients[0], clients[1], clients[2], clients[3], aps[1]};
  }

  [[nodiscard]] double window_start() const { return kHeaderT - 20.0 / 10e6; }

  Medium medium;
  std::vector<NodeId> aps;
  std::vector<NodeId> clients;
  std::vector<OracleBurst> bursts;
  std::vector<NodeId> rxs;
};

TEST(PinnedMedium, ReceiveMatchesThePerSampleOracleBitwise) {
  PinnedScene scene(99);
  Rng noise(99);
  const auto expect = oracle_receive(scene.medium, noise, scene.bursts,
                                     scene.rxs, scene.window_start(),
                                     PinnedScene::kWindow);
  for (std::size_t r = 0; r < scene.rxs.size(); ++r) {
    const cvec got = scene.medium.receive(scene.rxs[r], scene.window_start(),
                                          PinnedScene::kWindow);
    EXPECT_EQ(got, expect[r]) << "receiver " << r;
  }
  // A second, later window in reverse receiver order: the oscillators now
  // hold state from the first pass, which must not change a single bit.
  const std::vector<NodeId> reversed(scene.rxs.rbegin(), scene.rxs.rend());
  const double later = PinnedScene::kHeaderT + 1000.0 / 10e6;
  const auto expect2 =
      oracle_receive(scene.medium, noise, scene.bursts, reversed, later, 1500);
  for (std::size_t r = 0; r < reversed.size(); ++r) {
    EXPECT_EQ(scene.medium.receive(reversed[r], later, 1500), expect2[r])
        << "receiver " << r << " (later window)";
  }
  // The scene is not degenerate: bursts are heard, the missing link and
  // the half-duplex receiver still get signal from the other APs.
  EXPECT_GT(mean_power(expect[2]), 10.0 * 2e-3);
  EXPECT_GT(mean_power(expect[4]), 10.0 * 1e-3);

  // The joint renderer on an identically seeded scene, same two windows.
  PinnedScene joint(99);
  const auto all = joint.medium.receive_all(joint.rxs, joint.window_start(),
                                            PinnedScene::kWindow);
  ASSERT_EQ(all.size(), expect.size());
  for (std::size_t r = 0; r < all.size(); ++r) {
    EXPECT_EQ(all[r], expect[r]) << "receive_all, receiver " << r;
  }
  const auto all2 = joint.medium.receive_all(reversed, later, 1500);
  ASSERT_EQ(all2.size(), expect2.size());
  for (std::size_t r = 0; r < all2.size(); ++r) {
    EXPECT_EQ(all2[r], expect2[r]) << "receive_all, receiver " << r
                                   << " (later window)";
  }
}

TEST(PinnedMedium, ReceiveAllDrawsNoiseLikeSequentialReceives) {
  PinnedScene joint(1234);
  PinnedScene sequential(1234);
  const auto all = joint.medium.receive_all(
      joint.clients, joint.window_start(), PinnedScene::kWindow);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(all[c],
              sequential.medium.receive(sequential.clients[c],
                                        sequential.window_start(),
                                        PinnedScene::kWindow))
        << "client " << c;
  }
  // Both media have drawn the same noise, so the next call agrees too.
  EXPECT_EQ(joint.medium.receive(joint.clients[1], 0.0, 256),
            sequential.medium.receive(sequential.clients[1], 0.0, 256));
  // Empty lists and empty windows draw nothing.
  EXPECT_TRUE(joint.medium.receive_all({}, 0.0, 64).empty());
  const auto none = joint.medium.receive_all(joint.clients, 0.0, 0);
  ASSERT_EQ(none.size(), 4u);
  for (const cvec& y : none) EXPECT_TRUE(y.empty());
  EXPECT_EQ(joint.medium.receive(joint.clients[0], 0.0, 64),
            sequential.medium.receive(sequential.clients[0], 0.0, 64));
}

TEST(PinnedMedium, PhaseNoiseRunMatchesPerIndexLookups) {
  const OscillatorParams p{.ppm = 0.0, .carrier_hz = 2.4e9,
                           .sample_rate_hz = 10e6,
                           .phase_noise_linewidth_hz = 0.1, .seed = 42};
  const Oscillator ref(p);
  const auto check_run = [&](const Oscillator& osc, std::uint64_t n0,
                             std::size_t count) {
    std::vector<double> run(count);
    osc.phase_noise_run(n0, count, run.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(run[i], ref.phase_noise_at(n0 + i)) << "n0 " << n0 << " + "
                                                     << i;
    }
  };
  Oscillator osc(p);
  check_run(osc, 15000, 3000);  // crosses the 16384-sample checkpoint
  check_run(osc, 15000, 10);    // restarts at the anchor
  check_run(osc, 14000, 500);   // starts before the anchor
  check_run(osc, 17999, 2);     // continues from the last run's end
  check_run(osc, 40000, 1);     // far ahead of everything
  check_run(osc, 0, 5);
  osc.phase_noise_run(123, 0, nullptr);  // an empty run touches nothing

  const Oscillator quiet({.ppm = 0.0, .carrier_hz = 2.4e9,
                          .sample_rate_hz = 10e6,
                          .phase_noise_linewidth_hz = 0.0, .seed = 42});
  std::vector<double> zeros(64, 1.0);
  quiet.phase_noise_run(30000, zeros.size(), zeros.data());
  for (const double v : zeros) EXPECT_EQ(v, 0.0);
}

TEST(PinnedMedium, PhaseNoiseMatchesAnIndependentLeftFold) {
  const OscillatorParams p{.ppm = 0.0, .carrier_hz = 2.4e9,
                           .sample_rate_hz = 10e6,
                           .phase_noise_linewidth_hz = 0.1, .seed = 42};
  const std::vector<double> fold = oracle_theta(p, 40000);
  Oscillator osc(p);
  // Forward across the 16384-sample checkpoint, then back before the
  // memo, then a far jump that starts from a checkpoint.
  for (std::uint64_t n = 16000; n < 16800; ++n) {
    ASSERT_EQ(osc.phase_noise_at(n), fold[n]) << n;
  }
  for (std::uint64_t n = 9000; n < 9100; ++n) {
    ASSERT_EQ(osc.phase_noise_at(n), fold[n]) << n;
  }
  EXPECT_EQ(osc.phase_noise_at(40000), fold[40000]);
  EXPECT_EQ(osc.phase_noise_at(16384), fold[16384]);
  EXPECT_EQ(osc.phase_noise_at(0), 0.0);

  Oscillator quiet({.ppm = 0.0, .carrier_hz = 2.4e9, .sample_rate_hz = 10e6,
                    .phase_noise_linewidth_hz = 0.0, .seed = 42});
  EXPECT_EQ(quiet.phase_noise_at(12345), 0.0);
}

TEST(Medium, SingleLinkSnrMatchesBudget) {
  MediumParams mp;
  Medium medium(mp);
  const NodeId tx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 1},
                                    /*noise_var=*/1e-3);
  const NodeId rx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 2},
                                    1e-3);
  medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                           .rice_k = 100.0, .delay_s = 0.0,
                           .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                           .seed = 3});
  Rng rng(4);
  const cvec burst = rng.cgaussian_vec(5000, 1.0);  // unit power
  medium.transmit(tx, 0.0, burst);
  const cvec heard = medium.receive(rx, 0.0, 5000);
  // SNR = gain * power / noise_var = 1 / 1e-3 = 30 dB.
  const double p = mean_power(heard);
  EXPECT_NEAR(to_db((p - 1e-3) / 1e-3), 30.0, 1.0);
}

TEST(MetroGeometry, GridPlacementIsRowMajor) {
  const CellGridParams g{.cols = 3, .pitch_m = 30.0};
  EXPECT_DOUBLE_EQ(cell_center(0, g).x, 0.0);
  EXPECT_DOUBLE_EQ(cell_center(0, g).y, 0.0);
  EXPECT_DOUBLE_EQ(cell_center(4, g).x, 30.0);  // (4 % 3, 4 / 3) = (1, 1)
  EXPECT_DOUBLE_EQ(cell_center(4, g).y, 30.0);
  EXPECT_DOUBLE_EQ(cell_distance_m(0, 1, g), 30.0);
  EXPECT_DOUBLE_EQ(cell_distance_m(0, 4, g), 30.0 * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(cell_distance_m(2, 5, g), cell_distance_m(5, 2, g));
}

TEST(MetroGeometry, LeakageGainIsMonotoneInDistance) {
  const InterCellParams p;
  // Clamped below ref_distance_m; strictly decreasing beyond it.
  EXPECT_DOUBLE_EQ(inter_cell_leakage_gain(0.0, p),
                   inter_cell_leakage_gain(p.ref_distance_m, p));
  double prev = inter_cell_leakage_gain(p.ref_distance_m, p);
  EXPECT_GT(prev, 0.0);
  for (double d = p.ref_distance_m * 1.5; d < 400.0; d *= 1.5) {
    const double g = inter_cell_leakage_gain(d, p);
    EXPECT_LT(g, prev) << "at d=" << d;
    prev = g;
  }
}

TEST(MetroGeometry, InterferenceIsSymmetricForACellPair) {
  // Two cells, saturated duty: the fade is drawn from the unordered pair,
  // so each side sees the identical per-subcarrier profile no matter
  // which shard computes first.
  const CellGridParams grid{.cols = 2, .pitch_m = 30.0};
  const InterCellParams p;
  const auto at0 = inter_cell_interference(0, 2, grid, p, 48, 1234, {});
  const auto at1 = inter_cell_interference(1, 2, grid, p, 48, 1234, {});
  ASSERT_EQ(at0.size(), 48u);
  double total = 0.0;
  for (std::size_t k = 0; k < at0.size(); ++k) {
    EXPECT_DOUBLE_EQ(at0[k], at1[k]);
    total += at0[k];
  }
  EXPECT_GT(total, 0.0);
  // And regenerating the same shard's view is bit-stable.
  const auto again = inter_cell_interference(0, 2, grid, p, 48, 1234, {});
  EXPECT_EQ(at0, again);
  // A different trial seed redraws the fades.
  const auto other = inter_cell_interference(0, 2, grid, p, 48, 1235, {});
  EXPECT_NE(at0, other);
}

TEST(MetroGeometry, ZeroCouplingIsExactlyZero) {
  const CellGridParams grid{.cols = 3, .pitch_m = 30.0};
  InterCellParams p;
  p.coupling_scale = 0.0;
  EXPECT_EQ(inter_cell_leakage_gain(10.0, p), 0.0);
  const auto psd = inter_cell_interference(4, 9, grid, p, 48, 77, {});
  for (const double v : psd) EXPECT_EQ(v, 0.0);
  // Single-cell grids have no neighbors regardless of coupling.
  const auto lone =
      inter_cell_interference(0, 1, grid, InterCellParams{}, 48, 77, {});
  for (const double v : lone) EXPECT_EQ(v, 0.0);
}

TEST(Medium, InterferencePsdRaisesTheNoiseFloor) {
  // A flat interference profile of variance v per subcarrier must raise
  // the received power by exactly v on top of the thermal floor.
  Medium medium({});
  const NodeId rx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 5},
                                    /*noise_var=*/1e-3);
  const std::size_t n = 64 * 512;
  const cvec quiet = medium.receive(rx, 0.0, n);
  EXPECT_NEAR(mean_power(quiet), 1e-3, 2e-4);

  medium.set_interference(rx, std::vector<double>(64, 2e-3));
  ASSERT_EQ(medium.interference(rx).size(), 64u);
  const cvec noisy = medium.receive(rx, 0.0, n);
  EXPECT_NEAR(mean_power(noisy), 3e-3, 4e-4);
}

TEST(Medium, NonFiniteStartTimeIsRejected) {
  // A NaN start time used to pass every range guard and reach undefined
  // behaviour in the interpolator's index conversion.
  Medium medium({});
  const NodeId a = medium.add_node({}, 1e-6);
  const NodeId b = medium.add_node({}, 1e-6);
  medium.set_link(a, b, {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const cvec burst(100, cplx{1.0, 0.0});
  EXPECT_THROW(medium.transmit(a, nan, burst), std::invalid_argument);
  EXPECT_THROW(medium.transmit(a, -inf, burst), std::invalid_argument);
  medium.transmit(a, 0.0, burst);
  EXPECT_THROW((void)medium.receive(b, nan, 100), std::invalid_argument);
  EXPECT_THROW((void)medium.receive(b, inf, 100), std::invalid_argument);
  const std::vector<NodeId> rxs{a, b};
  EXPECT_THROW((void)medium.receive_all(rxs, nan, 100),
               std::invalid_argument);
  EXPECT_THROW((void)medium.receive_all(rxs, 1e300, 100),
               std::invalid_argument);
  EXPECT_THROW((void)medium.receive(7, 0.0, 100), std::invalid_argument);
  EXPECT_EQ(medium.receive(b, 0.0, 100).size(), 100u);
}

TEST(Medium, HalfDuplexAndMissingLinksAreSilent) {
  Medium medium({});
  const NodeId a = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.0, .seed = 1},
                                   1e-6);
  const NodeId b = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                    .sample_rate_hz = 10e6,
                                    .phase_noise_linewidth_hz = 0.0, .seed = 2},
                                   1e-6);
  Rng rng(5);
  medium.transmit(a, 0.0, rng.cgaussian_vec(1000, 1.0));
  // a doesn't hear itself; b has no link from a.
  EXPECT_NEAR(mean_power(medium.receive(a, 0.0, 1000)), 1e-6, 5e-7);
  EXPECT_NEAR(mean_power(medium.receive(b, 0.0, 1000)), 1e-6, 5e-7);
}

TEST(Medium, CfoAppearsAsExpectedRotation) {
  Medium medium({});
  // tx at +2 ppm, rx at -1 ppm: relative CFO = 3e-6 * 2.4 GHz = 7.2 kHz.
  const NodeId tx = medium.add_node({.ppm = 2.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 1},
                                    1e-12);
  const NodeId rx = medium.add_node({.ppm = -1.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 2},
                                    1e-12);
  medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                           .rice_k = 1e9, .delay_s = 0.0,
                           .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                           .seed = 3});
  const cvec ones(4000, cplx{1.0, 0.0});
  medium.transmit(tx, 0.0, ones);
  const cvec heard = medium.receive(rx, 0.0, 4000);
  // Measure the rotation rate over the middle of the burst.
  cplx acc{};
  for (std::size_t n = 1000; n < 3000; ++n) {
    acc += std::conj(heard[n]) * heard[n + 1];
  }
  const double f = std::arg(acc) * 10e6 / kTwoPi;
  EXPECT_NEAR(f, 7200.0, 50.0);
}

TEST(Medium, TrueChannelIncludesDelayRamp) {
  Medium medium({});
  const NodeId tx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 1});
  const NodeId rx = medium.add_node({.ppm = 0.0, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.0,
                                     .seed = 2});
  const double delay_s = 2.5e-7;  // 2.5 samples
  medium.set_link(tx, rx, {.gain = 1.0, .n_taps = 1, .tap_decay = 1.0,
                           .rice_k = 1e9, .delay_s = delay_s,
                           .coherence_time_s = 0.25, .sample_rate_hz = 10e6,
                           .seed = 3});
  const cvec h = medium.true_channel(tx, rx);
  // |H| flat; phase slope across bins = -2 pi k * 2.5 / 64.
  const double mag0 = std::abs(h[1]);
  EXPECT_NEAR(std::abs(h[10]) / mag0, 1.0, 1e-6);
  const double slope = std::arg(h[2] * std::conj(h[1]));
  EXPECT_NEAR(slope, -kTwoPi * 2.5 / 64.0, 1e-6);
  EXPECT_THROW((void)medium.true_channel(rx, tx), std::invalid_argument);
}

TEST(Medium, EndToEndPacketThroughMediumDecodes) {
  // A real 802.11 frame from a +1.5 ppm AP to a -1.2 ppm client across a
  // fading link at ~25 dB SNR, with phase noise — the standard receiver
  // must decode it.
  Medium medium({});
  const NodeId ap = medium.add_node({.ppm = 1.5, .carrier_hz = 2.4e9,
                                     .sample_rate_hz = 10e6,
                                     .phase_noise_linewidth_hz = 0.1,
                                     .seed = 11},
                                    1e-12);
  const double noise = 1e-3;
  const NodeId client = medium.add_node({.ppm = -1.2, .carrier_hz = 2.4e9,
                                         .sample_rate_hz = 10e6,
                                         .phase_noise_linewidth_hz = 0.1,
                                         .seed = 12},
                                        noise);

  const phy::PhyConfig cfg;
  const phy::Transmitter tx(cfg);
  const phy::Receiver rx(cfg);
  Rng rng(14);
  phy::ByteVec psdu(500);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const phy::TxFrame frame =
      tx.build_frame(psdu, {phy::Modulation::kQam16, phy::CodeRate::kHalf});

  // Gain such that mean received signal power sits 25 dB above the noise.
  const double gain = noise * from_db(25.0) / mean_power(frame.samples);
  medium.set_link(ap, client,
                  {.gain = gain, .n_taps = 3, .tap_decay = 0.4,
                   .rice_k = 5.0, .delay_s = 40e-9, .coherence_time_s = 0.25,
                   .sample_rate_hz = 10e6, .seed = 13});

  medium.transmit(ap, 100e-6, frame.samples);
  const cvec heard = medium.receive(client, 0.0, 4000 + frame.samples.size());
  const phy::RxResult res = rx.receive(heard);
  ASSERT_TRUE(res.ok) << res.fail_reason;
  EXPECT_EQ(res.psdu, psdu);
  // CFO estimate should land near 2.7 ppm * 2.4 GHz = 6.48 kHz.
  EXPECT_NEAR(res.preamble.cfo_hz, 6480.0, 300.0);
  EXPECT_NEAR(res.preamble.snr_db, 25.0, 6.0);
}

}  // namespace
}  // namespace jmb::chan
