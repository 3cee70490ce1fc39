// The benchmark's workload interface and the pass runner that drives it.
//
// A workload's inputs are one fixed *pass* of tasks generated from the
// seed. The runner repeats passes on a fixed pool of worker threads until
// the run's time is up, so every run measures whole passes of identical
// work, and the simulated outputs (sim_*) are taken from the first
// passes, which do not depend on how fast the host is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsp/types.h"
#include "trace.h"

namespace perfbench {

using jmb::rvec;

/// Everything one task reported. The MAC workloads run one work unit per
/// task; phy_samples runs one lane's measurement epoch plus its burst of
/// joint frames, each frame a unit.
struct TaskResult {
  std::vector<double> unit_ms;  ///< host time of each work unit
  double task_ms = 0.0;         ///< host time of the whole task (runner)
  std::size_t failed = 0;       ///< units that threw or failed the check
  std::string error;            ///< first failure, for the log
  std::uint64_t digest = 0;     ///< hash of the task's simulated outputs

  /// Simulated frame attempts: MPDUs of both MACs, or client frames of
  /// the joint transmissions.
  double frames = 0.0;
  /// Virtual air time simulated, in samples of the 10 MS/s channel.
  double air_samples = 0.0;

  // Simulated outputs of the JMB side (first pass feeds the sim_* metrics).
  double jmb_frames = 0.0;      ///< JMB MPDU attempts / client frames sent
  double jmb_delivered = 0.0;   ///< of those, delivered (CRC ok)
  double jmb_goodput_mbps = 0.0;
  double base_goodput_mbps = 0.0;
  double jain = 0.0;            ///< JMB fairness index of the unit
  std::size_t n = 0;            ///< APs = clients; 0 when the MACs did not run
  rvec latency_s;               ///< JMB frame latencies, first pass only

  // MAC-layer accounting, summed over both MACs.
  double failed_attempts = 0.0;
  double joint_tx = 0.0;
  double link_state_calls = 0.0;
  double hint_calls = 0.0;          ///< link-state calls inside select()
  double arrivals = 0.0;
  double select_calls = 0.0;
  double select_backlog_sum = 0.0;  ///< queue size summed over select calls
  double queue_depth_max = 0.0;
  std::vector<rvec> link_samples;   ///< traced first pass only
};

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Hands a task its worker's tracer (null in untraced passes) and whether
/// its pass feeds the sim_* metrics (keep_sim: keep latency samples).
struct TaskEnv {
  Tracer* tracer = nullptr;
  bool keep_sim = false;
  bool sample_links = false;
  std::uint64_t flow_base = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the pass inputs from the seed (chan::diverse_link_gains, lane
  /// systems, payloads) on `workers` threads; `tracers` is null or holds
  /// one tracer per worker. Called several times to time it; the last
  /// call's inputs are used.
  virtual void setup(std::uint64_t seed, std::size_t workers,
                     std::vector<Tracer>* tracers) = 0;
  /// How many times a run sets up (setup_s is the median).
  [[nodiscard]] virtual std::size_t setup_reps() const { return 15; }
  [[nodiscard]] virtual std::size_t tasks() const = 0;
  /// Run one task. Throws only on internal errors; output-check failures
  /// are reported through TaskResult::failed.
  [[nodiscard]] virtual TaskResult run_task(std::size_t task,
                                            const TaskEnv& env) = 0;
  /// Whether every pass must repeat the first pass's simulated outputs
  /// exactly (the MAC workloads; phy_samples lanes carry state across
  /// passes).
  [[nodiscard]] virtual bool passes_repeat() const { return true; }
  /// Passes whose results feed the sim_* metrics; every run makes at
  /// least this many.
  [[nodiscard]] virtual std::size_t sim_passes() const { return 1; }
  /// The sim_* metrics, from the first sim_passes() passes' results in
  /// pass and task order.
  virtual void sim_metrics(const std::vector<TaskResult>& results,
                           std::vector<Metric>& out) const = 0;
  /// Allocation probe for the traced binary (phy_samples only): the mean
  /// heap allocations per frame inside PropagationStage and DecodeStage.
  virtual void probe_allocs(double& propagate, double& decode) {
    propagate = 0.0;
    decode = 0.0;
  }
};

enum class Size { kFull, kTiny };

[[nodiscard]] std::unique_ptr<Workload> make_mac_saturated(Size size);
[[nodiscard]] std::unique_ptr<Workload> make_mac_overload(Size size);
[[nodiscard]] std::unique_ptr<Workload> make_phy_samples(Size size);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;
  Size size = Size::kFull;
  std::string trace_out;
};

/// CPUs this process may run on (its affinity mask).
[[nodiscard]] std::size_t available_cpus();

/// Run the workload and print the log plus the final JSON result line.
/// Returns the process exit code.
int run_benchmark(const RunConfig& cfg);

// --- helpers shared by the workloads ---

/// Calls body(worker, i) for every i < n, pulled by `workers` threads (the
/// calling thread is worker 0); returns when all are done. The body must
/// not throw.
void parallel_for(std::size_t n, std::size_t workers,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Jain fairness index of a set of shares: 1 = equal, 1/n = one took all.
[[nodiscard]] double jain_index(const rvec& shares);

/// FNV-1a over the bit patterns of a run of values.
void digest_add(std::uint64_t& h, double v);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Per-unit seed: splitmix64 of the run seed and the unit index.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t idx);

}  // namespace perfbench
