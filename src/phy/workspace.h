// Per-trial scratch workspace: cached FFT plans plus every reusable buffer
// the frame hot path needs, so steady-state frames run without touching
// the heap.
//
// Ownership model (see DESIGN.md "Memory model"):
//  - One Workspace per engine::TrialRunner worker, owned by SystemState
//    and threaded through the pipeline stages — never shared across
//    threads, so access is lock-free by construction.
//  - Buffers are named for their hot-path role and reach steady-state
//    capacity after the first frame of a given shape; later frames reuse
//    the capacity (vectors are resized/cleared, never reallocated).
//  - Everything here is scratch: no buffer carries state between calls,
//    so using a workspace changes *where* intermediates live but never
//    their values — physics outputs are bitwise identical with or
//    without one, and for any JMB_THREADS.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dsp/fft_plan.h"
#include "dsp/types.h"
#include "linalg/pinv.h"
#include "phy/viterbi.h"
#include "simd/aligned.h"

namespace jmb {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Cached FFT plan for size n (built on first use, then allocation-free).
  const FftPlan& fft_plan(std::size_t n);

  /// Per-workspace projection matrix for phy::denoise_time_support — the
  /// lock-free replacement for the old process-wide mutex-guarded cache.
  const CMatrix& denoise_projection(std::size_t support);

  // ---- linalg scratch ----------------------------------------------------
  PinvScratch pinv;

  // ---- receiver scratch (phy::Receiver::set_workspace) -------------------
  cvec corrected;    ///< CFO-corrected copy of the RX buffer
  cvec win_a;        ///< first LTF FFT window
  cvec win_b;        ///< second LTF FFT window
  cvec sym_freq;     ///< per-symbol FFT window
  cvec data48;       ///< equalized data subcarriers
  rvec noise48;      ///< post-equalization noise variance per carrier
  cvec nearest;      ///< EVM nearest constellation points
  std::vector<std::vector<double>> llr_per_symbol;
  std::vector<double> llr_concat;  ///< deinterleaved LLRs, all symbols
  std::vector<double> llr_dei;     ///< one symbol's deinterleaved LLRs
  std::vector<double> llr_mother;  ///< depunctured mother-rate LLRs
  phy::ViterbiScratch viterbi;
  phy::BitVec decoded_bits;

  // ---- channel-estimation scratch ----------------------------------------
  cvec denoise_v;       ///< 52 used-subcarrier gains
  cvec denoise_smooth;  ///< projected (denoised) gains

  // ---- transmit / synthesis scratch --------------------------------------
  // Cache-line aligned: these are the buffers the subcarrier-batched SIMD
  // kernels stream through, so vector loads never split cache lines.
  simd::acvec spec;      ///< kNfft frequency-domain accumulation buffer
  simd::acvec sym_time;  ///< kSymbolLen modulated symbol

  // ---- measurement scratch ------------------------------------------------
  cvec meas_win;   ///< per-round CFO-corrected LTF window
  cvec meas_freq;  ///< its FFT

 private:
  std::map<std::size_t, FftPlan> plans_;
  std::map<std::size_t, CMatrix> projections_;
};

}  // namespace jmb
