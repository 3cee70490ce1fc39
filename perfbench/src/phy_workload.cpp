// phy_samples: the sample-level chain. Independent 4-AP x 4-client
// JmbSystem lanes, each alternating a channel-measurement epoch with a
// burst of joint 1500-byte frames. The benchmark drives the five engine
// stages itself on JmbSystem::state(), in the order FramePipeline runs
// them, so each stage is timed from outside.
#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <memory>
#include <vector>

#include "chan/topology.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "engine/pipeline.h"
#include "engine/system.h"
#include "phy/crc32.h"
#include "phy/params.h"
#include "runner.h"
#ifdef PERFBENCH_ALLOC_COUNT
#include "obs/alloc_count.h"
#endif

namespace perfbench {

namespace {

using namespace jmb;

constexpr std::size_t kAps = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kPsduBytes = 1500;
constexpr std::size_t kFcsBytes = 4;
/// Per-link SNR band the lane topologies are drawn from (the paper's high
/// band), the topology draws per lane, and the effective SNR the lanes are
/// then calibrated to.
constexpr double kLoDb = 18.0;
constexpr double kHiDb = 28.0;
constexpr std::size_t kPlacements = 8;
constexpr double kEffectiveSnrDb = 22.0;
const phy::Mcs kMcs{phy::Modulation::kQam16, phy::CodeRate::kHalf};
/// Idle samples the pipeline leaves after each frame (engine/pipeline.cpp).
constexpr std::size_t kGapSamples = 400;

class PhySamples final : public Workload {
 public:
  explicit PhySamples(Size size)
      : lanes_n_(size == Size::kTiny ? 2 : 16),
        frames_(2) {}

  [[nodiscard]] bool passes_repeat() const override { return false; }
  /// Lanes carry state from pass to pass; averaging four passes' frames
  /// steadies the simulated outputs.
  [[nodiscard]] std::size_t sim_passes() const override { return 4; }

  // Each set-up builds every lane afresh (placement draws, each with its
  // measurement epoch, then calibration), lanes in parallel on the workers.
  [[nodiscard]] std::size_t setup_reps() const override { return 3; }

  void setup(std::uint64_t seed, std::size_t workers,
             std::vector<Tracer>* tracers) override {
    lanes_.clear();
    lanes_.resize(lanes_n_);
    std::vector<std::exception_ptr> errors(lanes_n_);
    parallel_for(lanes_n_, workers, [&](std::size_t id, std::size_t l) {
      Tracer* tr = tracers != nullptr ? &(*tracers)[id] : nullptr;
      const Scope root(tr, Layer::kSetup);
      try {
        lanes_[l] = make_lane(seed, l, tr);
      } catch (...) {
        errors[l] = std::current_exception();
      }
    });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    // What one AP sending the same frame alone occupies: preamble, the
    // same symbols, the same inter-frame gap the pipeline leaves.
    const std::size_t n_sym =
        lanes_.front()->sys.state().tx.build_freq_symbols(
            lanes_.front()->payloads.front().front(), kMcs).size();
    single_frame_samples_ = static_cast<double>(
        phy::kPreambleLen + n_sym * phy::kSymbolLen + kGapSamples);
  }

  [[nodiscard]] std::size_t tasks() const override { return lanes_.size(); }

  [[nodiscard]] TaskResult run_task(std::size_t task,
                                    const TaskEnv& env) override {
    TaskResult r;
    r.digest = kDigestSeed;
    Lane& lane = *lanes_[task];
    engine::SystemState& st = lane.sys.state();
    const double t_begin = st.now;
    const std::uint64_t flow = env.flow_base + task * (frames_ + 1) + 1;
    {
      const Scope root(env.tracer, Layer::kEpoch, flow);
      measurement_epoch(lane, env.tracer);
    }
    digest_add(r.digest, st.precoder ? 1.0 : 0.0);
    std::vector<double> delivered(kClients, 0.0);
    for (std::size_t f = 0; f < frames_; ++f) {
      const std::vector<phy::ByteVec>& sent = lane.payloads[f];
      r.frames += kClients;
      if (!st.precoder) continue;  // no usable channel snapshot yet
      const std::uint64_t t0 = now_ns();
      core::JointResult result;
      {
        const Scope root(env.tracer, Layer::kUnit, flow + f + 1);
        result = joint_frame(lane, sent, env.tracer);
      }
      r.unit_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      const std::size_t ok = check_frame(result, sent, r, delivered);
      // Virtual latency of each delivered frame: from the start of the
      // lane's epoch (when the burst was queued) to the frame's end.
      if (env.keep_sim) {
        r.latency_s.insert(r.latency_s.end(), ok, st.now - t_begin);
      }
    }
    r.jmb_frames = r.frames;
    r.air_samples = (st.now - t_begin) * st.params.phy.sample_rate_hz;
    r.jmb_goodput_mbps = r.jmb_delivered * kPsduBytes * 8.0 /
                         (r.air_samples / st.params.phy.sample_rate_hz) / 1e6;
    r.jain = jain_index(delivered);
    digest_add(r.digest, r.air_samples);
    return r;
  }

  void sim_metrics(const std::vector<TaskResult>& pass,
                   std::vector<Metric>& out) const override {
    double frames = 0.0;
    double ok = 0.0;
    double air = 0.0;
    double goodput = 0.0;
    double jain_sum = 0.0;
    rvec latency;
    for (const TaskResult& r : pass) {
      frames += r.frames;
      ok += r.jmb_delivered;
      air += r.air_samples;
      goodput += r.jmb_goodput_mbps;
      jain_sum += r.jain;
      latency.insert(latency.end(), r.latency_s.begin(), r.latency_s.end());
    }
    const double bursts =
        static_cast<double>(std::max<std::size_t>(pass.size(), 1));
    out.push_back({"sim_goodput_mbps", goodput / bursts, "Mb/s"});
    // Delivered frames times the air time each would take one AP alone,
    // over the air time JMB took, measurement epochs included.
    out.push_back({"sim_gain",
                   air > 0.0 ? ok * single_frame_samples_ / air : 0.0,
                   "ratio"});
    out.push_back({"sim_latency_p99_ms",
                   latency.empty() ? 0.0 : percentile(latency, 0.99) * 1e3,
                   "sim_ms"});
    out.push_back({"sim_jain", jain_sum / bursts, "index"});
    out.push_back({"sim_decode_ok_frac", frames > 0.0 ? ok / frames : 0.0,
                   "frac"});
  }

  void probe_allocs(double& propagate, double& decode) override {
    propagate = 0.0;
    decode = 0.0;
#ifdef PERFBENCH_ALLOC_COUNT
    // Counting is process-wide, so this runs on one thread with no
    // workers live: one epoch on lane 0, then a few frames with counting
    // switched on around the two stages only.
    constexpr std::size_t kProbeFrames = 3;
    Lane& lane = *lanes_.front();
    measurement_epoch(lane, nullptr);
    if (!lane.sys.state().precoder) return;
    for (std::size_t f = 0; f < kProbeFrames; ++f) {
      std::vector<std::vector<cvec>> streams =
          build_streams(lane, lane.payloads[f % frames_], nullptr);
      engine::FrameContext ctx(lane.sys.state());
      ctx.streams = &streams;
      ++lane.sys.state().frame_seq;
      engine::StageContext sc(ctx);
      lane.synthesis.run(sc);
      propagate += counted([&] { lane.propagate.run(sc); });
      decode += counted([&] { lane.decode.run(sc); });
    }
    propagate /= static_cast<double>(kProbeFrames);
    decode /= static_cast<double>(kProbeFrames);
#endif
  }

 private:
  struct Lane {
    Lane(const core::SystemParams& p,
         const std::vector<std::vector<double>>& gains)
        : sys(p, gains) {}
    core::JmbSystem sys;
    engine::MeasurementStage measure;
    engine::PrecodeStage precode;
    engine::SynthesisStage synthesis;
    engine::PropagationStage propagate;
    engine::DecodeStage decode;
    std::vector<std::vector<phy::ByteVec>> payloads;  ///< [frame][client]
  };

#ifdef PERFBENCH_ALLOC_COUNT
  template <class F>
  static double counted(F body) {
    obs::reset_alloc_counts();
    obs::set_alloc_counting(true);
    body();
    obs::set_alloc_counting(false);
    return static_cast<double>(obs::alloc_counts().allocs);
  }
#endif

  /// FramePipeline::run_measurement: measure, then precode on success.
  static void measurement_epoch(Lane& lane, Tracer* tr) {
    engine::FrameContext ctx(lane.sys.state());
    ++lane.sys.state().frame_seq;
    engine::StageContext sc(ctx);
    {
      const Scope span(tr, Layer::kEngineMeasure);
      lane.measure.run(sc);
    }
    if (!ctx.measurement_ok) return;
    const Scope span(tr, Layer::kEnginePrecode);
    lane.precode.run(sc);
  }

  /// JmbSystem::transmit_joint's stream build: one frequency-domain
  /// symbol stream per client, padded to a common length.
  static std::vector<std::vector<cvec>> build_streams(
      Lane& lane, const std::vector<phy::ByteVec>& psdus, Tracer* tr) {
    const Scope span(tr, Layer::kPhyBuildSymbols);
    std::vector<std::vector<cvec>> streams;
    streams.reserve(psdus.size());
    std::size_t n_sym = 0;
    for (const phy::ByteVec& psdu : psdus) {
      streams.push_back(lane.sys.state().tx.build_freq_symbols(psdu, kMcs));
      n_sym = std::max(n_sym, streams.back().size());
    }
    for (auto& s : streams) {
      while (s.size() < n_sym) s.emplace_back(phy::kNfft, cplx{});
    }
    return streams;
  }

  /// FramePipeline::run_joint: synthesis -> propagate -> decode.
  static core::JointResult joint_frame(Lane& lane,
                                       const std::vector<phy::ByteVec>& psdus,
                                       Tracer* tr) {
    const std::vector<std::vector<cvec>> streams =
        build_streams(lane, psdus, tr);
    engine::FrameContext ctx(lane.sys.state());
    ctx.streams = &streams;
    ++lane.sys.state().frame_seq;
    engine::StageContext sc(ctx);
    {
      const Scope span(tr, Layer::kEngineSynthesis);
      lane.synthesis.run(sc);
    }
    {
      const Scope span(tr, Layer::kEnginePropagate);
      lane.propagate.run(sc);
    }
    {
      const Scope span(tr, Layer::kEngineDecode);
      lane.decode.run(sc);
    }
    return std::move(ctx.result);
  }

  /// A client frame counts as delivered when it decodes and its FCS
  /// (CRC-32) checks; every such frame must carry exactly the bytes sent.
  /// Returns the number of client frames delivered.
  static std::size_t check_frame(const core::JointResult& result,
                                 const std::vector<phy::ByteVec>& sent,
                                 TaskResult& r,
                                 std::vector<double>& delivered) {
    if (result.per_client.size() != sent.size()) {
      if (r.failed == 0) r.error = "joint result has the wrong client count";
      ++r.failed;
      return 0;
    }
    std::size_t ok = 0;
    bool frame_ok = true;
    for (std::size_t c = 0; c < sent.size(); ++c) {
      const phy::RxResult& rx = result.per_client[c];
      digest_add(r.digest, rx.ok ? 1.0 : 0.0);
      digest_add(r.digest, rx.evm_snr_db);
      if (!rx.ok || !phy::check_crc32(rx.psdu)) continue;
      if (rx.psdu != sent[c]) {
        frame_ok = false;
        continue;
      }
      r.jmb_delivered += 1.0;
      delivered[c] += 1.0;
      ++ok;
    }
    if (!frame_ok) {
      if (r.failed == 0) r.error = "CRC-ok frame decoded to the wrong bytes";
      ++r.failed;
    }
    return ok;
  }

  std::unique_ptr<Lane> make_lane(std::uint64_t seed, std::size_t l,
                                  Tracer* tr) const {
    Rng rng(mix_seed(seed, l));
    // Placement, as the paper places clients in the desired SNR band
    // (Section 11): of kPlacements topology draws, keep the one with the
    // highest measured beamforming SNR at the link budget. A fixed number
    // of draws keeps the set-up work the same for every seed.
    std::unique_ptr<Lane> lane;
    double best_db = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < kPlacements; ++k) {
      std::vector<std::vector<double>> gains;
      {
        const Scope span(tr, Layer::kChanLinkGains);
        gains = chan::diverse_link_gains(kAps, kClients, kLoDb, kHiDb, rng);
      }
      // Link gains are per-subcarrier SNRs; the sample-level medium wants
      // waveform gains at the same SNR.
      for (auto& row : gains) {
        for (double& g : row) {
          g = core::JmbSystem::gain_for_snr_db(to_db(g), 1.0);
        }
      }
      core::SystemParams params;
      params.n_aps = kAps;
      params.n_clients = kClients;
      params.seed = rng.next_u64();
      auto candidate = std::make_unique<Lane>(params, gains);
      if (!candidate->sys.run_measurement()) continue;
      const double db = candidate->sys.predicted_beamforming_snr_db();
      if (db > best_db) {
        best_db = db;
        lane = std::move(candidate);
      }
    }
    if (!lane) {
      throw std::runtime_error("phy_samples: no lane placement measured");
    }
    // Then calibrate every lane's noise floor to one operating point and
    // measure again so the measurement noise matches it.
    lane->sys.calibrate_to_effective_snr(kEffectiveSnrDb);
    (void)lane->sys.run_measurement();
    // Random payloads, each closed by its 802.11 FCS (CRC-32).
    lane->payloads.resize(frames_);
    for (auto& frame : lane->payloads) {
      frame.assign(kClients, phy::ByteVec(kPsduBytes - kFcsBytes));
      for (phy::ByteVec& psdu : frame) {
        for (std::size_t i = 0; i < psdu.size(); i += 8) {
          const std::uint64_t w = rng.next_u64();
          std::memcpy(psdu.data() + i, &w,
                      std::min<std::size_t>(8, psdu.size() - i));
        }
        psdu = phy::append_crc32(std::move(psdu));
      }
    }
    return lane;
  }

  std::size_t lanes_n_;
  std::size_t frames_;
  double single_frame_samples_ = 0.0;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace

std::unique_ptr<Workload> make_phy_samples(Size size) {
  return std::make_unique<PhySamples>(size);
}

}  // namespace perfbench
