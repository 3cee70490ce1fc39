// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions: one Tracer per worker thread, no
// locking, nothing written until the run ends. A layer's self time is its
// span minus the time its child spans cover (for example the link-state
// callbacks inside a MAC call).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The timed boundaries. Names follow the src/ module that owns the call.
enum class Layer : std::uint8_t {
  kSetup,              ///< root: one set-up of the workload's inputs
  kUnit,               ///< root: one work unit
  kEpoch,              ///< root: one measurement epoch (phy_samples)
  kChanLinkGains,      ///< chan::diverse_link_gains
  kCoreChannelSet,     ///< core::well_conditioned_channel_set
  kCorePrecode,        ///< core::Precoder::build_kind
  kCoreSinr,           ///< core::jmb_subcarrier_sinrs
  kNetMac,             ///< net::run_jmb_mac / net::run_baseline_mac
  kNetLinkState,       ///< the benchmark's net::LinkStateFn
  kTrafficDrain,       ///< net::TrafficSource::drain_until
  kTrafficSelect,      ///< net::Scheduler::select
  kPhyBuildSymbols,    ///< phy::Transmitter::build_freq_symbols
  kEngineMeasure,      ///< engine::MeasurementStage::run
  kEnginePrecode,      ///< engine::PrecodeStage::run
  kEngineSynthesis,    ///< engine::SynthesisStage::run
  kEnginePropagate,    ///< engine::PropagationStage::run
  kEngineDecode,       ///< engine::DecodeStage::run
  kCount
};
inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LayerTotals {
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;

  void add(const LayerTotals& o) {
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    calls += o.calls;
  }
};
using Totals = std::array<LayerTotals, kNumLayers>;

class Tracer {
 public:
  explicit Tracer(std::uint32_t tid) : tid_(tid) {}

  /// Open a span. A root span (kSetup, kUnit, kEpoch) carries `flow`, the
  /// work item's id (0 = none); nested spans ignore the argument.
  void begin(Layer layer, std::uint64_t flow);
  void end();

  [[nodiscard]] const Totals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }

  /// Append this tracer's spans to a Chrome trace_event array body.
  void append_events(std::string& out, std::uint64_t t0_ns, bool& first) const;
  [[nodiscard]] std::size_t spans_kept() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t spans_dropped() const { return dropped_; }

 private:
  /// High-rate leaf calls keep only this many spans per root span; their
  /// time still counts in the totals.
  static constexpr std::uint32_t kLeafSpansPerRoot = 16;
  static constexpr std::size_t kMaxSpans = 200000;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t flow = 0;
    std::int64_t parent = -1;
    Layer layer = Layer::kUnit;
  };
  struct Open {
    Layer layer = Layer::kUnit;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::int64_t span = -1;  ///< index into spans_, -1 when not kept
  };

  std::uint32_t tid_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::array<std::uint32_t, kNumLayers> leaf_kept_{};
  std::uint64_t dropped_ = 0;
  Totals totals_{};
};

/// RAII span; a null tracer makes it free apart from the branch.
class Scope {
 public:
  Scope(Tracer* t, Layer layer, std::uint64_t flow = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(layer, flow);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Write every tracer's spans as Chrome trace_event JSON ("X" events with
/// args {flow, span, parent}), readable by tools/trace_stats.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<Tracer>& tracers,
                                      std::uint64_t t0_ns);

}  // namespace perfbench
