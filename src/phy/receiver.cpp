#include "phy/receiver.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft_plan.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/sync.h"
#include "phy/workspace.h"

namespace jmb::phy {

namespace {

// Every helper takes the (possibly null) per-trial workspace and binds
// each buffer it needs via `cvec local; cvec& buf = ws ? ws->x : local;`
// — one implementation, so the workspace path cannot diverge from the
// allocating path.

const FftPlan& plan64() {
  static const FftPlan kPlan(kNfft);
  return kPlan;
}

// FFT of a bare 64-sample window starting at `pos` (no CP handling),
// written into `out`.
void fft_window_into(const cvec& x, std::size_t pos, cvec& out) {
  out.resize(kNfft);
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(pos),
            x.begin() + static_cast<std::ptrdiff_t>(pos + kNfft), out.begin());
  plan64().forward(out);
}

// Noise variance estimate from the two (ideally identical) LTF symbols.
double ltf_noise_var(const cvec& f1, const cvec& f2) {
  double acc = 0.0;
  int n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t b = bin_of(k);
    acc += std::norm(f1[b] - f2[b]);
    ++n;
  }
  // Var(f1 - f2) = 2 * noise_var per subcarrier.
  return std::max(acc / (2.0 * n), 1e-12);
}

// Demodulate/equalize one OFDM symbol whose 80 samples start at
// `sym_start`, leaving the equalized data and per-carrier noise variances
// in `freq`/`data48`/`noise48`.
void decode_symbol(const cvec& corrected, std::size_t sym_start,
                   std::size_t backoff, const ChannelEstimate& chan,
                   double noise_var, std::size_t symbol_index, cvec& freq,
                   cvec& data48, rvec& noise48) {
  const std::size_t win = sym_start + kCpLen - backoff;
  fft_window_into(corrected, win, freq);
  const PilotPhase pp = track_pilots(freq, chan, symbol_index);

  data48.resize(kNumDataCarriers);
  noise48.resize(kNumDataCarriers);
  const auto& dc = data_carriers();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
    const std::size_t b = bin_of(dc[i]);
    const cplx h = chan.h[b];
    const double hp = std::max(std::norm(h), 1e-12);
    data48[i] = freq[b] / h;
    noise48[i] = noise_var / hp;
  }
  apply_phase_correction(data48, pp);
}

// Shared back half of reception: channel-estimate in pm, symbols start
// right after the two LTF repetitions at pm.ltf_start.
RxResult decode_after_ltf(const cvec& corrected, const PreambleMeasurement& pm,
                          std::size_t timing_backoff, Workspace* ws) {
  RxResult res;
  res.preamble = pm;
  const std::size_t backoff = std::min(pm.ltf_start, timing_backoff);
  const std::size_t payload = pm.ltf_start + 2 * kNfft;

  cvec local_freq;
  cvec& freq = ws ? ws->sym_freq : local_freq;
  cvec local_data48;
  cvec& data48 = ws ? ws->data48 : local_data48;
  rvec local_noise48;
  rvec& noise48 = ws ? ws->noise48 : local_noise48;

  if (corrected.size() < payload + kSymbolLen) {
    res.fail_reason = "buffer too short for SIGNAL";
    return res;
  }
  decode_symbol(corrected, payload, backoff, pm.chan, pm.noise_var, 0, freq,
                data48, noise48);
  const auto sig = decode_signal_symbol(
      data48,
      std::max(pm.noise_var / std::max(pm.chan.mean_gain_power(), 1e-12),
               1e-12));
  if (!sig) {
    res.fail_reason = "SIGNAL decode failed";
    return res;
  }
  res.sig = *sig;
  res.header_ok = true;

  const Mcs& mcs = rate_set()[sig->rate_index];
  const std::size_t n_sym = n_data_symbols(sig->length, mcs);
  if (corrected.size() < payload + (1 + n_sym) * kSymbolLen) {
    res.fail_reason = "buffer too short for payload";
    return res;
  }

  std::vector<std::vector<double>> local_llr;
  std::vector<std::vector<double>>& llr_per_symbol =
      ws ? ws->llr_per_symbol : local_llr;
  llr_per_symbol.resize(n_sym);
  cvec local_nearest;
  cvec& nearest = ws ? ws->nearest : local_nearest;

  double evm_err = 0.0, evm_sig = 0.0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const std::size_t sym_start = payload + (1 + s) * kSymbolLen;
    decode_symbol(corrected, sym_start, backoff, pm.chan, pm.noise_var, s + 1,
                  freq, data48, noise48);
    // LLRs and, for the EVM, the nearest constellation points.
    demodulate_soft_nearest_into(data48, mcs.modulation, noise48,
                                 llr_per_symbol[s], nearest);
    for (std::size_t i = 0; i < data48.size(); ++i) {
      evm_err += std::norm(data48[i] - nearest[i]);
      evm_sig += std::norm(nearest[i]);
    }
  }
  res.evm_snr_db = to_db(evm_sig / std::max(evm_err, 1e-12));

  const auto psdu = ws ? decode_psdu(llr_per_symbol, *sig, *ws)
                       : decode_psdu(llr_per_symbol, *sig);
  if (!psdu) {
    res.fail_reason = "payload decode failed";
    return res;
  }
  res.psdu = *psdu;
  res.ok = true;
  return res;
}

// correct_cfo over rx[lo, min(hi, rx.size())) into the same positions of a
// reusable destination sized like rx. n0 = lo keeps every rotation on the
// absolute index grid, so each sample in the range is bitwise what a
// full-buffer correction gives it. Entries outside the range are left
// stale: each caller passes the range it reads.
void correct_cfo_range(const cvec& rx, double cfo_hz, double fs,
                       std::size_t lo, std::size_t hi, cvec& out) {
  out.resize(rx.size());
  hi = std::min(hi, rx.size());
  if (lo >= hi) return;
  correct_cfo_into(std::span<const cplx>(rx.data() + lo, hi - lo), cfo_hz, fs,
                   static_cast<double>(lo),
                   std::span<cplx>(out.data() + lo, hi - lo));
}

}  // namespace

std::optional<PreambleMeasurement> Receiver::measure_preamble(
    const cvec& rx, std::size_t search_from) const {
  cvec local_corrected;
  cvec& corrected = ws_ ? ws_->corrected : local_corrected;
  cvec local_a;
  cvec& win_a = ws_ ? ws_->win_a : local_a;
  cvec local_b;
  cvec& win_b = ws_ ? ws_->win_b : local_b;
  cvec local_freq;
  cvec& freq_scratch = ws_ ? ws_->sym_freq : local_freq;

  const auto det = detect_packet(rx, search_from);
  std::size_t stf = 0;
  double coarse = 0.0;
  std::optional<std::size_t> ltf;
  if (det) {
    stf = det->stf_start;
    if (rx.size() < stf + kPreambleLen + kSymbolLen) return std::nullopt;
    // Coarse CFO from the STF body (skip the detection edge).
    win_a.assign(rx.begin() + static_cast<std::ptrdiff_t>(stf + 8),
                 rx.begin() + static_cast<std::ptrdiff_t>(stf + 152));
    coarse = coarse_cfo_hz(win_a, cfg_.sample_rate_hz);
    // The first LTF symbol nominally starts at stf + 192; search around it.
    // The search and the fine-CFO window below read
    // [stf + 150 - kFineCfoLead, ltf + 128) with stf + 150 <= ltf < stf + 240.
    correct_cfo_range(rx, coarse, cfg_.sample_rate_hz, stf + 150 - kFineCfoLead,
                      stf + 240 + 2 * kNfft, corrected);
    ltf = locate_ltf(corrected, stf + 150, std::min(rx.size(), stf + 240));
  } else {
    // Low-SNR fallback: the STF autocorrelation plateau drowns near the
    // detection threshold, but a coherent cross-correlation against the
    // known 64-sample LTF has ~18 dB of processing gain. Locate the LTF
    // anywhere in the buffer, then estimate CFO from its repetition.
    auto raw_ltf = locate_ltf_earliest(rx, search_from, rx.size());
    if (!raw_ltf || *raw_ltf < 192 + kNfft) return std::nullopt;
    // The correlator may have locked onto the (identical) second
    // repetition: if the position 64 samples earlier also looks like an
    // LTF while 64 later does not, shift back.
    if (ltf_metric_at(rx, *raw_ltf - kNfft) >
        ltf_metric_at(rx, *raw_ltf + kNfft)) {
      *raw_ltf -= kNfft;
    }
    if (rx.size() < *raw_ltf + 2 * kNfft + kSymbolLen) return std::nullopt;
    win_b.assign(rx.begin() + static_cast<std::ptrdiff_t>(*raw_ltf),
                 rx.begin() +
                     static_cast<std::ptrdiff_t>(*raw_ltf + 2 * kNfft));
    coarse = fine_cfo_hz(win_b, cfg_.sample_rate_hz);
    // Refine the location post-correction; it may land on the (identical)
    // second repetition, which the symmetric +-window below tolerates.
    // The search reads from raw - 8, the fine-CFO window from kFineCfoLead
    // samples before the LTF it finds, up to raw + 8 + 128.
    const std::size_t lo = *raw_ltf - std::min<std::size_t>(*raw_ltf, 8);
    correct_cfo_range(rx, coarse, cfg_.sample_rate_hz,
                      lo - std::min(lo, kFineCfoLead),
                      *raw_ltf + 8 + 2 * kNfft, corrected);
    ltf = locate_ltf(corrected, lo, std::min(rx.size(), *raw_ltf + 8));
    if (!ltf) ltf = raw_ltf;
    stf = *ltf - 192;
  }
  if (!ltf) return std::nullopt;
  const std::size_t ltf_start = *ltf;
  if (rx.size() < ltf_start + 2 * kNfft) return std::nullopt;

  // The fine-CFO window starts inside the 32-sample GI2 (a cyclic copy of
  // the LTF, so the lag-64 correlation holds there too) and stops
  // kTimingBackoff short of the SIGNAL symbol: the located LTF start can
  // sit a sample or two late under multipath, and a window running into
  // SIGNAL biases the estimate by hundreds of Hz.
  const std::size_t fine_at = ltf_start - std::min(ltf_start, kFineCfoLead);
  freq_scratch.assign(
      corrected.begin() + static_cast<std::ptrdiff_t>(fine_at),
      corrected.begin() +
          static_cast<std::ptrdiff_t>(ltf_start + 2 * kNfft - kTimingBackoff));
  const double fine = fine_cfo_hz(freq_scratch, cfg_.sample_rate_hz);
  const double total_cfo = coarse + fine;

  const std::size_t w1 = ltf_start - std::min(ltf_start, kTimingBackoff);
  correct_cfo_range(rx, total_cfo, cfg_.sample_rate_hz, w1, w1 + 2 * kNfft,
                    corrected);
  fft_window_into(corrected, w1, win_a);
  fft_window_into(corrected, w1 + kNfft, win_b);

  PreambleMeasurement pm;
  pm.stf_start = stf;
  pm.ltf_start = ltf_start;
  pm.cfo_hz = total_cfo;
  pm.noise_var = ltf_noise_var(win_a, win_b);
  pm.chan =
      average_estimates({estimate_from_ltf(win_a), estimate_from_ltf(win_b)});
  pm.snr_db = to_db(std::max(pm.chan.mean_gain_power(), 1e-12) / pm.noise_var);
  return pm;
}

RxResult Receiver::receive(const cvec& rx, std::size_t search_from) const {
  const auto pm = measure_preamble(rx, search_from);
  if (!pm) {
    RxResult res;
    res.fail_reason = "no preamble detected";
    return res;
  }
  cvec local_corrected;
  cvec& corrected = ws_ ? ws_->corrected : local_corrected;
  // Payload symbols start right after the second LTF repetition; the FFT
  // windows inside use the same back-off as the channel-estimate windows,
  // so nothing before the LTF is read.
  correct_cfo_range(rx, pm->cfo_hz, cfg_.sample_rate_hz, pm->ltf_start,
                    rx.size(), corrected);
  return decode_after_ltf(corrected, *pm, kTimingBackoff, ws_);
}

RxResult Receiver::receive_payload(const cvec& rx, std::size_t payload_start,
                                   double cfo_hz) const {
  RxResult res;
  cvec local_corrected;
  cvec& corrected = ws_ ? ws_->corrected : local_corrected;
  // Everything read below (the LTF search from payload_start, FFT windows
  // backed off into the guard, the data symbols) lies at or after
  // payload_start - kTimingBackoff.
  correct_cfo_range(rx, cfo_hz, cfg_.sample_rate_hz,
                    payload_start - std::min(payload_start, kTimingBackoff),
                    rx.size(), corrected);
  cvec local_a;
  cvec& win_a = ws_ ? ws_->win_a : local_a;
  cvec local_b;
  cvec& win_b = ws_ ? ws_->win_b : local_b;

  // The payload begins with its own double-guard LTF: 32-sample GI2 then
  // two 64-sample symbols. Search a window wide enough for a few samples
  // of timing slop but short enough that the identical second repetition
  // (at +96) can never win the correlation.
  const auto ltf = locate_ltf(corrected, payload_start,
                              std::min(rx.size(), payload_start + kNfft));
  if (!ltf) {
    res.fail_reason = "payload LTF not found";
    return res;
  }
  const std::size_t ltf_start = *ltf;
  if (corrected.size() < ltf_start + 2 * kNfft + kSymbolLen) {
    res.fail_reason = "buffer too short for payload LTF";
    return res;
  }
  const std::size_t backoff = std::min(ltf_start, kTimingBackoff);
  const std::size_t w1 = ltf_start - backoff;
  fft_window_into(corrected, w1, win_a);
  fft_window_into(corrected, w1 + kNfft, win_b);

  PreambleMeasurement pm;
  pm.stf_start = payload_start;
  pm.ltf_start = ltf_start;
  pm.cfo_hz = cfo_hz;
  pm.noise_var = ltf_noise_var(win_a, win_b);
  pm.chan =
      average_estimates({estimate_from_ltf(win_a), estimate_from_ltf(win_b)});
  pm.snr_db = to_db(std::max(pm.chan.mean_gain_power(), 1e-12) / pm.noise_var);
  return decode_after_ltf(corrected, pm, kTimingBackoff, ws_);
}

}  // namespace jmb::phy
