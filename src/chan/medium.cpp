#include "chan/medium.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/counter_rng.h"
#include "dsp/resampler.h"
#include "dsp/rotator.h"

namespace jmb::chan {

namespace {

/// Mixed into a node's white-noise key to give its interference stream an
/// independent key (domain separation).
constexpr std::uint64_t kInterferenceDomain = 0x6A09E667F3BCC909ull;

/// Standard deviation of each component of a complex Gaussian of variance
/// `var`; rejects a variance that is not finite and >= 0.
double component_scale(double var, const char* what) {
  const double s = std::sqrt(var / 2.0);
  if (!(s >= 0.0) || !std::isfinite(s)) {
    throw std::invalid_argument(std::string("Medium: ") + what +
                                " must be finite and >= 0");
  }
  return s;
}

}  // namespace

Medium::Medium(MediumParams p, std::uint64_t noise_seed)
    : params_(p), noise_key_(splitmix64(noise_seed)) {}

NodeId Medium::add_node(OscillatorParams osc, double noise_var) {
  osc.sample_rate_hz = params_.sample_rate_hz;
  const NodeId id = nodes_.size();
  Node node{Oscillator(osc), noise_var, {},
            component_scale(noise_var, "noise_var"), {}};
  node.white_key = splitmix64(noise_key_ ^ id);
  node.interference_key = splitmix64(node.white_key ^ kInterferenceDomain);
  nodes_.push_back(std::move(node));
  return id;
}

const Oscillator& Medium::oscillator(NodeId id) const {
  return nodes_.at(id).osc;
}

Oscillator& Medium::oscillator_mutable(NodeId id) { return nodes_.at(id).osc; }

double Medium::noise_var(NodeId id) const { return nodes_.at(id).noise_var; }

void Medium::set_noise_var(NodeId id, double noise_var) {
  Node& node = nodes_.at(id);
  node.white_scale = component_scale(noise_var, "noise_var");
  node.noise_var = noise_var;
}

void Medium::set_interference(NodeId rx, std::vector<double> psd) {
  if (!psd.empty() && (psd.size() & (psd.size() - 1)) != 0) {
    throw std::invalid_argument(
        "Medium::set_interference: psd size must be a power of two");
  }
  Node& node = nodes_.at(rx);
  // Bin k of variance nfft * psd[k] lands in the time domain (the inverse
  // FFT scales by 1/N) with per-sample variance mean(psd).
  const auto nfft = static_cast<double>(psd.size());
  std::vector<double> scale(psd.size());
  for (std::size_t k = 0; k < psd.size(); ++k) {
    scale[k] = component_scale(nfft * psd[k], "interference psd");
  }
  if (!psd.empty() && !interference_plans_.contains(psd.size())) {
    interference_plans_.emplace(psd.size(), FftPlan(psd.size()));
  }
  node.interference_psd = std::move(psd);
  node.interference_scale = std::move(scale);
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

void Medium::draw_noise(Node& rxn, cvec& y) {
  // Thermal noise: pair k of the node's white stream is one complex
  // sample, scaled to E|y|^2 = noise_var.
  const std::size_t n = y.size();
  for (std::size_t m = 0; m < n; ++m) {
    y[m] = rxn.white_scale * gaussian_pair(rxn.white_key, rxn.white_draws + m);
  }
  rxn.white_draws += n;

  // Inter-cell interference as shaped noise: draw each FFT bin at the
  // installed per-subcarrier power from the node's interference stream
  // and transform one block at a time — a flat psd of v raises the white
  // floor by exactly v.
  const std::vector<double>& scale = rxn.interference_scale;
  if (scale.empty()) return;
  const std::size_t nfft = scale.size();
  const FftPlan& plan = interference_plans_.find(nfft)->second;
  bins_.resize(nfft);
  for (std::size_t start = 0; start < n; start += nfft) {
    for (std::size_t k = 0; k < nfft; ++k) {
      bins_[k] = scale[k] * gaussian_pair(rxn.interference_key,
                                          rxn.interference_draws + k);
    }
    rxn.interference_draws += nfft;
    plan.inverse(bins_);
    const std::size_t len = std::min(nfft, n - start);
    for (std::size_t i = 0; i < len; ++i) y[start + i] += bins_[i];
  }
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

  // Each receiver's noise comes from its own counter streams, so it does
  // not depend on which other receivers share the call or their order.
  std::vector<cvec> ys(rxs.size());
  for (std::size_t r = 0; r < rxs.size(); ++r) {
    ys[r].resize(n);
    draw_noise(nodes_[rxs[r]], ys[r]);
  }
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
      // The oscillator rotation e^{j angle_m} runs as a rotator: each
      // sample multiplies the previous phasor by e^{j (angle_m -
      // angle_{m-1})}, and an exact phasor re-anchors it every
      // kRotatorAnchorStride samples, after a skipped sample and whenever
      // the increment exceeds kRotatorMaxStep.
      cplx rot{};
      double prev_angle = 0.0;
      bool prev_rendered = false;
      for (std::size_t m = 0; m < n; ++m) {
        const double tm = start_s + static_cast<double>(m) / fs_rx;
        const double pos = (tm - t0) * fs_tx;
        if (pos < 0.0 || pos > last) {
          prev_rendered = false;
          continue;
        }
        const cplx s = interp_cubic(conv, pos);
        if (s == cplx{}) {
          prev_rendered = false;
          continue;
        }
        // Oscillator rotations evaluated at true time.
        const double det = kTwoPi * delta_cfo * tm;
        const std::uint64_t k = nominal_index(tm, fs) - i0;
        const double angle = det + (theta_t[k] - theta_rx[k]);
        const double step = angle - prev_angle;
        if (!prev_rendered || m % kRotatorAnchorStride == 0 ||
            !(std::abs(step) <= kRotatorMaxStep)) {
          rot = phasor(angle);
        } else {
          rot *= small_angle_phasor(step);
        }
        prev_angle = angle;
        prev_rendered = true;
        y[m] += s * rot;
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
