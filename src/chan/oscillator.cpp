#include "chan/oscillator.h"

#include <algorithm>
#include <cmath>

#include "dsp/counter_rng.h"

namespace jmb::chan {

Oscillator::Oscillator(OscillatorParams p)
    : params_(p), key_(splitmix64(p.seed)) {
  // Wiener phase noise with linewidth B: Var[theta(t+dt) - theta(t)] =
  // 2 pi B dt. Per nominal sample: sigma^2 = 2 pi B / fs.
  sigma_per_sample_ = std::sqrt(kTwoPi * params_.phase_noise_linewidth_hz /
                                params_.sample_rate_hz);
  checkpoints_[0] = 0.0;
}

void Oscillator::walk(std::uint64_t& idx, double& phase, std::uint64_t to,
                      double* out) const {
  // Increments 2k+1 and 2k+2 are sigma times the two Gaussians of pair k.
  // A walk may start on either half of a pair; the sum is the same left
  // fold whatever the start.
  const auto take = [&](double g) {
    ++idx;
    phase += sigma_per_sample_ * g;
    if (out != nullptr) *out++ = phase;
    if (idx % kCheckpointStride == 0) checkpoints_[idx] = phase;
  };
  while (idx < to) {
    const cplx g = gaussian_pair(key_, idx / 2);
    if (idx % 2 == 0) {
      take(g.real());
      if (idx == to) break;
    }
    take(g.imag());
  }
}

double Oscillator::phase_noise_at(std::uint64_t n) const {
  double phase = 0.0;
  phase_noise_run(n, 1, &phase);
  return phase;
}

void Oscillator::phase_noise_run(std::uint64_t n0, std::size_t count,
                                 double* out) const {
  if (count == 0) return;
  if (sigma_per_sample_ == 0.0) {
    std::fill(out, out + count, 0.0);
    return;
  }
  // Start from the latest known prefix at or below n0: the nearest
  // checkpoint, the previous run's end or the previous run's start. Each
  // holds the exact fold theta(idx), so the walk below is bitwise the
  // same from any of them.
  auto it = checkpoints_.upper_bound(n0);
  --it;  // checkpoints_[0] always exists
  std::uint64_t idx = it->first;
  double phase = it->second;
  if (last_idx_ <= n0 && last_idx_ > idx) {
    idx = last_idx_;
    phase = last_phase_;
  }
  if (anchor_idx_ <= n0 && anchor_idx_ > idx) {
    idx = anchor_idx_;
    phase = anchor_phase_;
  }
  walk(idx, phase, n0, nullptr);
  anchor_idx_ = n0;
  anchor_phase_ = phase;
  out[0] = phase;
  walk(idx, phase, n0 + count - 1, out + 1);
  last_idx_ = idx;
  last_phase_ = phase;
}

cplx Oscillator::rotation_at(double t_seconds) const {
  const double det = kTwoPi * cfo_hz() * t_seconds;
  const auto n = static_cast<std::uint64_t>(
      std::max(0.0, t_seconds * params_.sample_rate_hz));
  return phasor(det + phase_noise_at(n) + injected_phase_rad_);
}

}  // namespace jmb::chan
