// Gray-coded constellation mapping and soft demapping (802.11a 17.3.5.8).
#pragma once

#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/params.h"
#include "phy/scrambler.h"  // BitVec

namespace jmb::phy {

/// All points of a constellation (normalized to unit average energy),
/// indexed by the integer whose bits are the mapped bit group (MSB first).
[[nodiscard]] const cvec& constellation(Modulation m);

/// Per-constellation normalization factor K_mod (1, 1/sqrt2, 1/sqrt10,
/// 1/sqrt42).
[[nodiscard]] double kmod(Modulation m);

/// Map bits (size divisible by bits_per_symbol) to symbols, MSB first.
[[nodiscard]] cvec modulate(const BitVec& bits, Modulation m);

/// Nearest-point hard decision back to bits.
[[nodiscard]] BitVec demodulate_hard(const cvec& symbols, Modulation m);

/// Exact max-log LLRs: for each bit, llr = (min_{b=1} d^2 - min_{b=0} d^2)
/// / noise_var, positive when bit 0 is more likely — matching the Viterbi
/// decoder's convention. `noise_var` scales confidence; per-symbol noise
/// variances allow per-subcarrier weighting after equalization.
[[nodiscard]] std::vector<double> demodulate_soft(const cvec& symbols,
                                                  Modulation m,
                                                  double noise_var);
[[nodiscard]] std::vector<double> demodulate_soft(
    const cvec& symbols, Modulation m, const rvec& noise_var_per_symbol);

// ---- Allocation-free kernels (workspace-owned outputs) -------------------
// The allocating APIs above wrap these, so the arithmetic has a single
// implementation and results are bitwise identical.

/// modulate() into a span of exactly bits.size()/bits_per_symbol entries.
void modulate_into(std::span<const std::uint8_t> bits, Modulation m,
                   std::span<cplx> out);

/// demodulate_hard() into a reused vector (cleared first; capacity kept,
/// so the call is allocation-free once the buffer is warm).
void demodulate_hard_into(std::span<const cplx> symbols, Modulation m,
                          BitVec& out);

/// demodulate_soft() into a reused vector (cleared first).
void demodulate_soft_into(std::span<const cplx> symbols, Modulation m,
                          std::span<const double> noise_var_per_symbol,
                          std::vector<double>& out);

/// demodulate_soft_into() plus each symbol's nearest constellation point
/// (bitwise modulate(demodulate_hard()), ties to the lowest index) into
/// `nearest` (resized), from one pass of point distances per symbol.
void demodulate_soft_nearest_into(std::span<const cplx> symbols, Modulation m,
                                  std::span<const double> noise_var_per_symbol,
                                  std::vector<double>& llr, cvec& nearest);

}  // namespace jmb::phy
