#include "chan/oscillator.h"

#include <algorithm>
#include <cmath>

namespace jmb::chan {

namespace {

// splitmix64: cheap stateless hash -> 64 uniform bits per (seed, counter).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// One standard Gaussian from two hashed uniforms (Box-Muller). The seed is
// pre-mixed so that distinct seeds yield independent streams even for
// overlapping counter ranges (nodes must not share phase noise).
double hashed_gaussian(std::uint64_t seed, std::uint64_t n) {
  const std::uint64_t key = splitmix64(seed);
  const std::uint64_t a = splitmix64(key ^ splitmix64(2 * n + 1));
  const std::uint64_t b = splitmix64(key ^ splitmix64(2 * n + 2));
  const double u1 = (static_cast<double>(a >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = (static_cast<double>(b >> 11) + 0.5) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

}  // namespace

Oscillator::Oscillator(OscillatorParams p) : params_(p) {
  // Wiener phase noise with linewidth B: Var[theta(t+dt) - theta(t)] =
  // 2 pi B dt. Per nominal sample: sigma^2 = 2 pi B / fs.
  sigma_per_sample_ = std::sqrt(kTwoPi * params_.phase_noise_linewidth_hz /
                                params_.sample_rate_hz);
  checkpoints_[0] = 0.0;
}

double Oscillator::increment(std::uint64_t n) const {
  return sigma_per_sample_ * hashed_gaussian(params_.seed, n);
}

void Oscillator::step(std::uint64_t& idx, double& phase) const {
  ++idx;
  phase += increment(idx);
  if (idx % kCheckpointStride == 0) checkpoints_[idx] = phase;
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
  while (idx < n0) step(idx, phase);
  anchor_idx_ = n0;
  anchor_phase_ = phase;
  out[0] = phase;
  for (std::size_t i = 1; i < count; ++i) {
    step(idx, phase);
    out[i] = phase;
  }
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
