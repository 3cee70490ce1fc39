#include "phy/modulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace jmb::phy {

namespace {

// Gray mapping of b bits to one PAM axis level, per 802.11a Table 17-* :
// 1 bit:  0 -> -1, 1 -> +1
// 2 bits: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
// 3 bits: 000 -> -7, 001 -> -5, 011 -> -3, 010 -> -1,
//         110 -> +1, 111 -> +3, 101 -> +5, 100 -> +7
double gray_level(unsigned bits, unsigned nbits) {
  switch (nbits) {
    case 1:
      return bits ? 1.0 : -1.0;
    case 2: {
      static const double kMap[4] = {-3.0, -1.0, 3.0, 1.0};
      return kMap[bits & 3];
    }
    case 3: {
      static const double kMap[8] = {-7.0, -5.0, -1.0, -3.0,
                                     7.0,  5.0,  1.0,  3.0};
      return kMap[bits & 7];
    }
    default:
      throw std::logic_error("gray_level: unsupported width");
  }
}

cvec build_constellation(Modulation m) {
  const std::size_t nbits = bits_per_symbol(m);
  const std::size_t npoints = 1u << nbits;
  const double k = kmod(m);
  cvec pts(npoints);
  for (std::size_t v = 0; v < npoints; ++v) {
    if (m == Modulation::kBpsk) {
      pts[v] = cplx{gray_level(static_cast<unsigned>(v), 1) * k, 0.0};
      continue;
    }
    // First half of the bits select I, second half select Q (MSB first).
    const unsigned half = static_cast<unsigned>(nbits / 2);
    const unsigned i_bits = static_cast<unsigned>(v) >> half;
    const unsigned q_bits = static_cast<unsigned>(v) & ((1u << half) - 1);
    pts[v] = cplx{gray_level(i_bits, half) * k, gray_level(q_bits, half) * k};
  }
  return pts;
}

}  // namespace

double kmod(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  throw std::logic_error("kmod: bad modulation");
}

const cvec& constellation(Modulation m) {
  static const cvec kBpsk = build_constellation(Modulation::kBpsk);
  static const cvec kQpsk = build_constellation(Modulation::kQpsk);
  static const cvec kQam16 = build_constellation(Modulation::kQam16);
  static const cvec kQam64 = build_constellation(Modulation::kQam64);
  switch (m) {
    case Modulation::kBpsk: return kBpsk;
    case Modulation::kQpsk: return kQpsk;
    case Modulation::kQam16: return kQam16;
    case Modulation::kQam64: return kQam64;
  }
  throw std::logic_error("constellation: bad modulation");
}

void modulate_into(std::span<const std::uint8_t> bits, Modulation m,
                   std::span<cplx> out) {
  const std::size_t nbits = bits_per_symbol(m);
  if (bits.size() % nbits != 0) {
    throw std::invalid_argument(
        "modulate: bit count not a multiple of bits/symbol");
  }
  if (out.size() != bits.size() / nbits) {
    throw std::invalid_argument("modulate: output size mismatch");
  }
  const cvec& pts = constellation(m);
  for (std::size_t s = 0; s < out.size(); ++s) {
    unsigned v = 0;
    for (std::size_t b = 0; b < nbits; ++b) {
      v = (v << 1) | (bits[s * nbits + b] & 1u);
    }
    out[s] = pts[v];
  }
}

cvec modulate(const BitVec& bits, Modulation m) {
  cvec out(bits.size() / bits_per_symbol(m));
  modulate_into(bits, m, out);
  return out;
}

namespace {

/// The largest constellation (64-QAM).
constexpr std::size_t kMaxPoints = 64;

/// Squared distances from y to every constellation point, in index order.
void distances(cplx y, const cvec& pts, double* d) {
  for (std::size_t v = 0; v < pts.size(); ++v) d[v] = std::norm(y - pts[v]);
}

/// Index of the nearest point; the lowest index wins a tie (and a NaN
/// distance never wins).
std::size_t nearest_index(const double* d, std::size_t n_points) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < n_points; ++v) {
    if (d[v] < best_d) {
      best_d = d[v];
      best = v;
    }
  }
  return best;
}

/// Max-log LLRs of one symbol (MSB first) from its point distances: the
/// minimum over each bit's two subsets, taken in index order.
void append_llrs(const double* d, std::size_t n_points, std::size_t nbits,
                 double nv, std::vector<double>& out) {
  for (std::size_t b = 0; b < nbits; ++b) {
    const std::size_t bit_pos = nbits - 1 - b;  // MSB first
    double d0 = std::numeric_limits<double>::infinity();
    double d1 = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < n_points; ++v) {
      if ((v >> bit_pos) & 1u) {
        d1 = std::min(d1, d[v]);
      } else {
        d0 = std::min(d0, d[v]);
      }
    }
    out.push_back((d1 - d0) / nv);
  }
}

void check_noise_size(std::size_t n_symbols, std::size_t n_noise) {
  if (n_symbols != n_noise) {
    throw std::invalid_argument("demodulate_soft: noise vector size mismatch");
  }
}

}  // namespace

void demodulate_hard_into(std::span<const cplx> symbols, Modulation m,
                          BitVec& out) {
  const std::size_t nbits = bits_per_symbol(m);
  const cvec& pts = constellation(m);
  out.clear();
  out.reserve(symbols.size() * nbits);
  double d[kMaxPoints];
  for (const cplx& y : symbols) {
    distances(y, pts, d);
    const std::size_t best = nearest_index(d, pts.size());
    for (std::size_t b = nbits; b-- > 0;) {
      out.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
    }
  }
}

BitVec demodulate_hard(const cvec& symbols, Modulation m) {
  BitVec out;
  demodulate_hard_into(symbols, m, out);
  return out;
}

void demodulate_soft_into(std::span<const cplx> symbols, Modulation m,
                          std::span<const double> noise_var_per_symbol,
                          std::vector<double>& out) {
  check_noise_size(symbols.size(), noise_var_per_symbol.size());
  const std::size_t nbits = bits_per_symbol(m);
  const cvec& pts = constellation(m);
  out.clear();
  out.reserve(symbols.size() * nbits);
  double d[kMaxPoints];
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    distances(symbols[s], pts, d);
    append_llrs(d, pts.size(), nbits,
                std::max(noise_var_per_symbol[s], 1e-12), out);
  }
}

void demodulate_soft_nearest_into(std::span<const cplx> symbols, Modulation m,
                                  std::span<const double> noise_var_per_symbol,
                                  std::vector<double>& llr, cvec& nearest) {
  check_noise_size(symbols.size(), noise_var_per_symbol.size());
  const std::size_t nbits = bits_per_symbol(m);
  const cvec& pts = constellation(m);
  llr.clear();
  llr.reserve(symbols.size() * nbits);
  nearest.resize(symbols.size());
  double d[kMaxPoints];
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    distances(symbols[s], pts, d);
    append_llrs(d, pts.size(), nbits,
                std::max(noise_var_per_symbol[s], 1e-12), llr);
    nearest[s] = pts[nearest_index(d, pts.size())];
  }
}

std::vector<double> demodulate_soft(const cvec& symbols, Modulation m,
                                    const rvec& noise_var_per_symbol) {
  std::vector<double> llr;
  demodulate_soft_into(symbols, m, noise_var_per_symbol, llr);
  return llr;
}

std::vector<double> demodulate_soft(const cvec& symbols, Modulation m,
                                    double noise_var) {
  return demodulate_soft(symbols, m, rvec(symbols.size(), noise_var));
}

}  // namespace jmb::phy
