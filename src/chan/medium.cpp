#include "chan/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fft.h"
#include "dsp/resampler.h"

namespace jmb::chan {

Medium::Medium(MediumParams p, std::uint64_t noise_seed)
    : params_(p), noise_rng_(noise_seed) {}

NodeId Medium::add_node(OscillatorParams osc, double noise_var) {
  osc.sample_rate_hz = params_.sample_rate_hz;
  nodes_.push_back(Node{Oscillator(osc), noise_var, {}});
  return nodes_.size() - 1;
}

const Oscillator& Medium::oscillator(NodeId id) const {
  return nodes_.at(id).osc;
}

Oscillator& Medium::oscillator_mutable(NodeId id) { return nodes_.at(id).osc; }

double Medium::noise_var(NodeId id) const { return nodes_.at(id).noise_var; }

void Medium::set_noise_var(NodeId id, double noise_var) {
  nodes_.at(id).noise_var = noise_var;
}

void Medium::set_interference(NodeId rx, std::vector<double> psd) {
  nodes_.at(rx).interference_psd = std::move(psd);
}

const std::vector<double>& Medium::interference(NodeId rx) const {
  return nodes_.at(rx).interference_psd;
}

void Medium::set_link(NodeId tx, NodeId rx, FadingParams fading) {
  if (tx >= nodes_.size() || rx >= nodes_.size()) {
    throw std::invalid_argument("Medium::set_link: unknown node");
  }
  fading.sample_rate_hz = params_.sample_rate_hz;
  links_[{tx, rx}] = std::make_unique<FadingChannel>(fading);
}

FadingChannel* Medium::link(NodeId tx, NodeId rx) {
  const auto it = links_.find({tx, rx});
  return it == links_.end() ? nullptr : it->second.get();
}

const FadingChannel* Medium::link(NodeId tx, NodeId rx) const {
  const auto it = links_.find({tx, rx});
  return it == links_.end() ? nullptr : it->second.get();
}

void Medium::evolve_links_to(double t_seconds) {
  for (auto& [key, chan] : links_) chan->evolve_to(t_seconds);
}

namespace {

/// Start times must be finite and their sample index must fit the
/// phase-noise index and the double mantissa; a NaN would otherwise slip
/// past every range comparison downstream.
void check_start(double start_s, double fs, const char* what) {
  if (!(std::abs(start_s) * fs < 0x1p53)) {
    throw std::invalid_argument(std::string(what) +
                                ": start time must be finite and within "
                                "2^53 samples of 0");
  }
}

/// Nominal sample index of true time t, clamped at 0 (the phase-noise
/// walk starts at index 0).
std::uint64_t nominal_index(double t, double fs) {
  return static_cast<std::uint64_t>(std::max(0.0, t * fs));
}

}  // namespace

void Medium::transmit(NodeId tx, double start_s, cvec samples) {
  if (tx >= nodes_.size()) {
    throw std::invalid_argument("Medium::transmit: unknown node");
  }
  check_start(start_s, params_.sample_rate_hz, "Medium::transmit");
  transmissions_.push_back({tx, start_s, std::move(samples)});
}

void Medium::clear_transmissions() { transmissions_.clear(); }

cvec Medium::receive(NodeId rx, double start_s, std::size_t n) {
  return std::move(receive_all(std::span<const NodeId>(&rx, 1), start_s, n)[0]);
}

cvec Medium::draw_noise(const Node& rxn, std::size_t n) {
  // Start with the receiver's own thermal noise.
  cvec y(n);
  for (cplx& v : y) v = noise_rng_.cgaussian(rxn.noise_var);

  // Inter-cell interference as shaped noise: draw each FFT bin at the
  // installed per-subcarrier power and transform one block at a time.
  // Bin k of variance nfft * psd[k] lands in the time domain (ifft
  // scales by 1/N) with per-sample variance mean(psd) — a flat psd of v
  // raises the white floor by exactly v. Receivers without a profile
  // skip this entirely (no RNG draws), keeping legacy runs bitwise
  // identical.
  if (!rxn.interference_psd.empty()) {
    const std::vector<double>& psd = rxn.interference_psd;
    const std::size_t nfft = psd.size();
    const auto nfft_d = static_cast<double>(nfft);
    cvec bins(nfft);
    for (std::size_t start = 0; start < n; start += nfft) {
      for (std::size_t k = 0; k < nfft; ++k) {
        bins[k] = noise_rng_.cgaussian(nfft_d * psd[k]);
      }
      const cvec block = ifft(bins);
      const std::size_t len = std::min(nfft, n - start);
      for (std::size_t i = 0; i < len; ++i) y[start + i] += block[i];
    }
  }
  return y;
}

const FadingChannel* Medium::heard_through(const Transmission& t, NodeId rx,
                                           double start_s,
                                           std::size_t n) const {
  if (t.tx == rx) return nullptr;  // half-duplex: a node doesn't hear itself
  if (t.samples.empty()) return nullptr;
  const FadingChannel* ch = link(t.tx, rx);
  if (ch == nullptr) return nullptr;
  // Quick reject: does this burst overlap the window at all?
  const double t0 = t.start_s + ch->delay_samples() / params_.sample_rate_hz;
  const double burst_end =
      t0 + static_cast<double>(ch->output_len(t.samples.size())) /
               nodes_[t.tx].osc.sample_rate_hz();
  const double win_end =
      start_s + static_cast<double>(n) / nodes_[rx].osc.sample_rate_hz();
  if (burst_end < start_s || t0 > win_end) return nullptr;
  return ch;
}

std::vector<cvec> Medium::receive_all(std::span<const NodeId> rxs,
                                      double start_s, std::size_t n) {
  for (const NodeId rx : rxs) {
    if (rx >= nodes_.size()) {
      throw std::invalid_argument("Medium::receive: unknown node");
    }
  }
  const double fs = params_.sample_rate_hz;
  check_start(start_s, fs, "Medium::receive");

  std::vector<cvec> ys;
  ys.reserve(rxs.size());
  for (const NodeId rx : rxs) ys.push_back(draw_noise(nodes_[rx], n));
  if (n == 0 || transmissions_.empty()) return ys;

  // Receiver sample m is taken at true time t_m = start_s + m / fs_rx;
  // both oscillators' phase noise is read at nominal index floor(t_m * fs),
  // which is non-decreasing in m and starts at the same index i0 for every
  // receiver. Each transmitter's theta is walked once over [i0, i_end] and
  // serves every receiver; each receiver's theta is walked once.
  const std::uint64_t i0 = nominal_index(start_s, fs);
  std::uint64_t i_end = i0;
  for (const NodeId rx : rxs) {
    const double fs_rx = nodes_[rx].osc.sample_rate_hz();
    i_end = std::max(
        i_end,
        nominal_index(start_s + static_cast<double>(n - 1) / fs_rx, fs));
  }
  const std::size_t span = static_cast<std::size_t>(i_end - i0) + 1;

  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> tx_slot(nodes_.size(), kNoSlot);
  std::size_t n_tx = 0;
  for (const Transmission& t : transmissions_) {
    if (tx_slot[t.tx] != kNoSlot) continue;
    for (const NodeId rx : rxs) {
      if (heard_through(t, rx, start_s, n) != nullptr) {
        tx_slot[t.tx] = n_tx++;
        break;
      }
    }
  }
  if (n_tx == 0) return ys;
  rvec theta_tx(n_tx * span);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (tx_slot[id] == kNoSlot) continue;
    nodes_[id].osc.phase_noise_run(i0, span,
                                   theta_tx.data() + tx_slot[id] * span);
  }

  rvec theta_rx_own;  // for receivers that did not transmit
  cvec conv;          // one convolution buffer for every pair
  for (std::size_t r = 0; r < rxs.size(); ++r) {
    const NodeId rx = rxs[r];
    const Node& rxn = nodes_[rx];
    const double fs_rx = rxn.osc.sample_rate_hz();
    const double* theta_rx = nullptr;
    cvec& y = ys[r];
    for (const Transmission& t : transmissions_) {
      const FadingChannel* ch = heard_through(t, rx, start_s, n);
      if (ch == nullptr) continue;
      if (theta_rx == nullptr) {
        if (tx_slot[rx] != kNoSlot) {
          theta_rx = theta_tx.data() + tx_slot[rx] * span;
        } else {
          theta_rx_own.resize(span);
          rxn.osc.phase_noise_run(i0, span, theta_rx_own.data());
          theta_rx = theta_rx_own.data();
        }
      }
      const Node& txn = nodes_[t.tx];
      const double fs_tx = txn.osc.sample_rate_hz();
      const double delta_cfo = txn.osc.cfo_hz() - rxn.osc.cfo_hz();
      const double* theta_t = theta_tx.data() + tx_slot[t.tx] * span;

      // Multipath at nominal tap spacing, then the pair-specific time
      // base: sample m sees the transmit waveform at position
      // (t_m - t0 - delay) * fs_tx.
      ch->apply_into(t.samples, conv);
      const double t0 = t.start_s + ch->delay_samples() / fs;
      const auto last = static_cast<double>(conv.size() - 1);
      for (std::size_t m = 0; m < n; ++m) {
        const double tm = start_s + static_cast<double>(m) / fs_rx;
        const double pos = (tm - t0) * fs_tx;
        if (pos < 0.0 || pos > last) continue;
        const cplx s = interp_cubic(conv, pos);
        if (s == cplx{}) continue;
        // Oscillator rotations evaluated at true time.
        const double det = kTwoPi * delta_cfo * tm;
        const std::uint64_t k = nominal_index(tm, fs) - i0;
        y[m] += s * phasor(det + (theta_t[k] - theta_rx[k]));
      }
    }
  }
  return ys;
}

cvec Medium::true_channel(NodeId tx, NodeId rx, std::size_t nfft) const {
  const FadingChannel* ch = link(tx, rx);
  if (ch == nullptr) {
    throw std::invalid_argument("Medium::true_channel: no such link");
  }
  cvec h = ch->frequency_response(nfft);
  // Fractional-delay phase ramp: delay d samples multiplies bin k by
  // e^{-j 2 pi k d / nfft} (k interpreted as signed logical index).
  const double d = ch->delay_samples();
  for (std::size_t b = 0; b < nfft; ++b) {
    const int k = (b <= nfft / 2)
                      ? static_cast<int>(b)
                      : static_cast<int>(b) - static_cast<int>(nfft);
    h[b] *= phasor(-kTwoPi * static_cast<double>(k) * d /
                   static_cast<double>(nfft));
  }
  return h;
}

}  // namespace jmb::chan
