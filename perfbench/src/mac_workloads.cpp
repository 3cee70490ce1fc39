// The link-abstraction workloads: mac_saturated (the Fig. 9 grid) and
// mac_overload (bursty per-flow traffic at twice the nominal load under
// proportional-fair scheduling). Each work unit is one topology: its
// channel set, precoder and SINR pool, then the 802.11 baseline and the
// JMB MAC on it.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "chan/topology.h"
#include "core/link_model.h"
#include "core/precoder.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "net/mac.h"
#include "phy/params.h"
#include "runner.h"
#include "traffic/flow.h"
#include "traffic/policy.h"

namespace perfbench {

namespace {

using namespace jmb;

/// The paper's effective-SNR bands (Section 11): high, medium, low.
struct Band {
  double lo_db;
  double hi_db;
};
constexpr Band kBands[] = {{18.0, 28.0}, {12.0, 18.0}, {6.0, 12.0}};
constexpr std::size_t kNumBands = sizeof(kBands) / sizeof(kBands[0]);

/// Residual per-slave phase error (rad) the link model draws, calibrated
/// against the sample-level Fig. 7 distribution (as the figure benches).
constexpr double kPhaseSigma = 0.02;
/// SIFS-like MAC turnaround, as in the fig09 and overload benches.
constexpr double kTurnaroundS = 16e-6;

/// Link-state samples kept for the rate replay: every kSampleStride-th
/// callback of a task, at most kMaxSamples per task.
constexpr std::size_t kSampleStride = 61;
constexpr std::size_t kMaxSamples = 64;

/// Wraps a link-state source as the MAC's net::LinkStateFn: counts the
/// calls, times them in traced runs and keeps the replay sample. Calls
/// made from inside a scheduler's select() (its rate hints) are counted
/// apart and not sampled, so the sample matches the MAC's own calls.
class LinkProbe {
 public:
  LinkProbe(const TaskEnv& env, TaskResult& r)
      : tracer_(env.tracer),
        samples_(env.sample_links ? &r.link_samples : nullptr),
        calls_(r.link_state_calls),
        hint_calls_(r.hint_calls) {}
  LinkProbe(const LinkProbe&) = delete;
  LinkProbe& operator=(const LinkProbe&) = delete;

  template <class Source>
  [[nodiscard]] net::LinkStateFn wrap(Source source) {
    return [this, source](std::size_t client) {
      const Scope span(tracer_, Layer::kNetLinkState);
      net::LinkState ls = source(client);
      if (in_select_) {
        hint_calls_ += 1.0;
      } else if (samples_ != nullptr &&
                 static_cast<std::size_t>(calls_ - hint_calls_) %
                         kSampleStride ==
                     0 &&
                 samples_->size() < kMaxSamples) {
        samples_->push_back(ls.subcarrier_snr);
      }
      calls_ += 1.0;
      return ls;
    };
  }

  void set_in_select(bool on) { in_select_ = on; }

 private:
  Tracer* tracer_;
  std::vector<rvec>* samples_;
  double& calls_;
  double& hint_calls_;
  bool in_select_ = false;
};

/// Times and counts net::TrafficSource::drain_until.
class TimedSource final : public net::TrafficSource {
 public:
  TimedSource(net::TrafficSource& inner, Tracer* tracer, TaskResult& r)
      : inner_(inner), tracer_(tracer), r_(r) {}
  std::size_t drain_until(double t, net::DownlinkQueue& q) override {
    const Scope span(tracer_, Layer::kTrafficDrain);
    const std::size_t n = inner_.drain_until(t, q);
    r_.arrivals += static_cast<double>(n);
    return n;
  }
  [[nodiscard]] double next_arrival_s() const override {
    return inner_.next_arrival_s();
  }

 private:
  net::TrafficSource& inner_;
  Tracer* tracer_;
  TaskResult& r_;
};

/// Times and counts net::Scheduler::select and the backlog it sees.
class TimedScheduler final : public net::Scheduler {
 public:
  TimedScheduler(net::Scheduler& inner, Tracer* tracer, TaskResult& r,
                 LinkProbe& probe)
      : inner_(inner), tracer_(tracer), r_(r), probe_(probe) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::vector<std::size_t> select(
      const net::DownlinkQueue& q, std::size_t max_streams, double now,
      const net::RateHintFn* rate_hint) override {
    const Scope span(tracer_, Layer::kTrafficSelect);
    r_.select_calls += 1.0;
    r_.select_backlog_sum += static_cast<double>(q.size());
    probe_.set_in_select(true);
    std::vector<std::size_t> picked =
        inner_.select(q, max_streams, now, rate_hint);
    probe_.set_in_select(false);
    return picked;
  }
  void on_served(std::size_t client, double bytes, double slot_s) override {
    inner_.on_served(client, bytes, slot_s);
  }
  void on_slot(double slot_s) override { inner_.on_slot(slot_s); }

 private:
  net::Scheduler& inner_;
  Tracer* tracer_;
  TaskResult& r_;
  LinkProbe& probe_;
};

std::optional<core::Precoder> build_zf(Tracer* tracer,
                                       const core::ChannelMatrixSet& h) {
  const Scope span(tracer, Layer::kCorePrecode);
  return core::Precoder::build_kind(h, core::PrecoderConfig{});
}

/// Per-transmission SINR draws: pool[i][client] is one draw's
/// per-subcarrier SINRs.
std::vector<std::vector<rvec>> sinr_pool(Tracer* tracer,
                                         const core::ChannelMatrixSet& h,
                                         const core::Precoder& precoder,
                                         std::size_t size, Rng& rng) {
  std::vector<std::vector<rvec>> pool;
  pool.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const Scope span(tracer, Layer::kCoreSinr);
    pool.push_back(core::jmb_subcarrier_sinrs(h, precoder, kPhaseSigma, 1.0,
                                              rng));
  }
  return pool;
}

/// Baseline link state: flat per-subcarrier SNR from the best AP.
rvec best_ap_snrs(const std::vector<double>& gains) {
  double best = 0.0;
  for (const double g : gains) best = std::max(best, g);
  return rvec(phy::kNumDataCarriers, best);
}

net::MacReport run_mac(Tracer* tracer, bool jmb, std::size_t n_aps,
                       std::size_t n_clients, std::size_t n_streams,
                       const net::LinkStateFn& links,
                       const net::MacParams& params) {
  const Scope span(tracer, Layer::kNetMac);
  return jmb ? net::run_jmb_mac(n_aps, n_clients, n_streams, links, params)
             : net::run_baseline_mac(n_clients, links, params);
}

/// The MAC accounting invariants; returns an empty string when they hold.
std::string check_report(const net::MacReport& r, const net::MacParams& p) {
  const bool traffic = p.traffic != nullptr;
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  double sum = 0.0;
  for (const net::ClientStats& c : r.per_client) {
    if (c.dropped > c.failed_attempts) {
      return "a client dropped more frames than it failed";
    }
    if (!std::isfinite(c.goodput_mbps) || c.goodput_mbps < 0.0) {
      return "client goodput not finite and >= 0";
    }
    if (!traffic) {
      const double expect = static_cast<double>(c.delivered) *
                            static_cast<double>(p.psdu_bytes) * 8.0 /
                            p.duration_s / 1e6;
      if (std::abs(c.goodput_mbps - expect) > 1e-9 * std::max(1.0, expect)) {
        return "client goodput disagrees with its delivered frames";
      }
    }
    delivered += c.delivered;
    dropped += c.dropped;
    sum += c.goodput_mbps;
  }
  if (!std::isfinite(r.total_goodput_mbps) || r.total_goodput_mbps < 0.0) {
    return "total goodput not finite and >= 0";
  }
  if (std::abs(r.total_goodput_mbps - sum) > 1e-9 * std::max(1.0, sum)) {
    return "total goodput is not the sum over clients";
  }
  if (r.data_airtime_s + r.measurement_airtime_s > p.duration_s + 0.01) {
    return "airtime exceeds the run duration";
  }
  if (traffic) {
    if (delivered + dropped > r.offered_packets) {
      return "delivered + dropped exceeds offered";
    }
    std::size_t flow_delivered = 0;
    std::size_t flow_dropped = 0;
    for (const net::FlowStats& f : r.flows) {
      flow_delivered += f.delivered;
      flow_dropped += f.dropped;
    }
    if (flow_delivered != delivered || flow_dropped != dropped) {
      return "per-flow and per-client accounting disagree";
    }
  }
  if (p.record_latency) {
    if (r.frame_latency_s.size() != delivered) {
      return "latency samples != delivered frames";
    }
    for (const double l : r.frame_latency_s) {
      if (!std::isfinite(l) || l < 0.0) return "latency not finite and >= 0";
    }
  }
  return {};
}

/// Folds one MAC report into the task's accounting and digest.
void account(TaskResult& r, const net::MacReport& rep,
             const net::MacParams& params, bool jmb) {
  double attempts = 0.0;
  double delivered = 0.0;
  double failed = 0.0;
  for (const net::ClientStats& c : rep.per_client) {
    attempts += static_cast<double>(c.delivered + c.failed_attempts);
    delivered += static_cast<double>(c.delivered);
    failed += static_cast<double>(c.failed_attempts);
    digest_add(r.digest, static_cast<double>(c.delivered));
    digest_add(r.digest, static_cast<double>(c.dropped));
  }
  r.frames += attempts;
  r.air_samples += params.duration_s * params.airtime.sample_rate_hz;
  r.failed_attempts += failed;
  r.queue_depth_max = std::max(r.queue_depth_max, rep.max_queue_depth);
  if (jmb) {
    r.jmb_frames += attempts;
    r.jmb_delivered += delivered;
    r.joint_tx += static_cast<double>(rep.joint_transmissions);
    r.jmb_goodput_mbps = rep.total_goodput_mbps;
  } else {
    r.base_goodput_mbps = rep.total_goodput_mbps;
  }
  digest_add(r.digest, rep.total_goodput_mbps);
  digest_add(r.digest, attempts);
  digest_add(r.digest, static_cast<double>(rep.offered_packets));
  digest_add(r.digest, static_cast<double>(rep.measurement_epochs));
  if (jmb) {
    for (const double l : rep.frame_latency_s) digest_add(r.digest, l);
  }
}

void fail(TaskResult& r, const std::string& what) {
  if (r.failed == 0) r.error = what;
  r.failed = 1;
}

/// The sim_* metrics both MAC workloads share, over the units that ran
/// their MACs (a rank-deficient channel yields no precoder and no MAC run,
/// as in the fig09 bench).
void mac_sim_metrics(const std::vector<TaskResult>& pass, double gain,
                     std::vector<Metric>& out) {
  double goodput = 0.0;
  double jain = 0.0;
  double p99 = 0.0;
  double frames = 0.0;
  double delivered = 0.0;
  std::size_t units = 0;
  for (const TaskResult& r : pass) {
    if (r.n == 0) continue;
    ++units;
    goodput += r.jmb_goodput_mbps;
    jain += r.jain;
    if (!r.latency_s.empty()) p99 += percentile(r.latency_s, 0.99);
    frames += r.jmb_frames;
    delivered += r.jmb_delivered;
  }
  // Per-topology means, as the overload bench aggregates its grid points.
  const double n = static_cast<double>(std::max<std::size_t>(units, 1));
  out.push_back({"sim_goodput_mbps", goodput / n, "Mb/s"});
  out.push_back({"sim_gain", gain, "ratio"});
  out.push_back({"sim_latency_p99_ms", p99 / n * 1e3, "sim_ms"});
  out.push_back({"sim_jain", jain / n, "index"});
  out.push_back({"sim_decode_ok_frac", frames > 0.0 ? delivered / frames : 0.0,
                 "frac"});
}

/// One MAC work unit as one task: a root span and its host time.
template <class Body>
TaskResult timed_unit(const TaskEnv& env, std::size_t task, Body body) {
  TaskResult r;
  r.digest = kDigestSeed;
  const std::uint64_t t0 = now_ns();
  {
    const Scope root(env.tracer, Layer::kUnit, env.flow_base + task + 1);
    body(r);
  }
  r.unit_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  return r;
}

// ---------------------------------------------------------------------------

class MacSaturated final : public Workload {
 public:
  explicit MacSaturated(Size size) {
    if (size == Size::kTiny) {
      ns_ = {4, 2};
      topologies_ = 1;
      duration_s_ = 0.02;
    } else {
      // Largest N first, so a pass ends on its cheapest units.
      for (std::size_t n = 10; n >= 2; --n) ns_.push_back(n);
      topologies_ = 8;
      duration_s_ = 0.1;
    }
  }

  void setup(std::uint64_t seed, std::size_t /*workers*/,
             std::vector<Tracer>* tracers) override {
    Tracer* tracer = tracers != nullptr ? &tracers->front() : nullptr;
    const Scope root(tracer, Layer::kSetup);
    units_.clear();
    for (const std::size_t n : ns_) {
      for (std::size_t b = 0; b < kNumBands; ++b) {
        for (std::size_t t = 0; t < topologies_; ++t) {
          Rng rng(mix_seed(seed, (n * kNumBands + b) * 1024 + t));
          Unit u;
          u.n = n;
          {
            const Scope span(tracer, Layer::kChanLinkGains);
            u.gains = chan::diverse_link_gains(n, n, kBands[b].lo_db,
                                               kBands[b].hi_db, rng);
          }
          u.seed = rng.next_u64();
          units_.push_back(std::move(u));
        }
      }
    }
  }

  [[nodiscard]] std::size_t tasks() const override { return units_.size(); }

  [[nodiscard]] TaskResult run_task(std::size_t task,
                                    const TaskEnv& env) override {
    return timed_unit(env, task,
                      [&](TaskResult& r) { run_unit(units_[task], env, r); });
  }

  void sim_metrics(const std::vector<TaskResult>& pass,
                   std::vector<Metric>& out) const override {
    const std::size_t max_n = ns_.front();
    double jmb = 0.0;
    double base = 0.0;
    for (const TaskResult& r : pass) {
      if (r.n != max_n) continue;
      jmb += r.jmb_goodput_mbps;
      base += r.base_goodput_mbps;
    }
    mac_sim_metrics(pass, base > 0.0 ? jmb / base : 0.0, out);
  }

 private:
  struct Unit {
    std::size_t n = 0;
    std::vector<std::vector<double>> gains;
    std::uint64_t seed = 0;
  };

  void run_unit(const Unit& u, const TaskEnv& env, TaskResult& r) const {
    Tracer* tr = env.tracer;
    Rng rng(u.seed);
    core::ChannelMatrixSet h(0, 0);
    {
      const Scope span(tr, Layer::kCoreChannelSet);
      h = core::well_conditioned_channel_set(u.gains, rng);
    }
    const std::optional<core::Precoder> precoder = build_zf(tr, h);
    if (!precoder) return;
    r.n = u.n;

    net::MacParams mac;
    mac.duration_s = duration_s_;
    mac.airtime.turnaround_s = kTurnaroundS;
    LinkProbe probe(env, r);

    std::vector<rvec> base_snrs;
    base_snrs.reserve(u.n);
    for (const auto& row : u.gains) base_snrs.push_back(best_ap_snrs(row));
    mac.seed = rng.next_u64();
    const net::MacReport base = run_mac(
        tr, false, u.n, u.n, u.n,
        probe.wrap([&](std::size_t c) { return net::LinkState{base_snrs[c]}; }),
        mac);

    // JMB: per-transmission residual phase errors from a pre-drawn pool,
    // exactly the fig09 construction.
    Rng err_rng(rng.next_u64());
    constexpr std::size_t kPool = 16;
    const std::vector<std::vector<rvec>> pool =
        sinr_pool(tr, h, *precoder, kPool, err_rng);
    std::size_t draw = 0;
    mac.seed = rng.next_u64();
    mac.record_latency = true;
    net::MacReport jmb = run_mac(
        tr, true, u.n, u.n, u.n, probe.wrap([&](std::size_t c) {
          return net::LinkState{pool[(draw++ / u.n) % kPool][c]};
        }),
        mac);

    mac.record_latency = false;
    std::string err = check_report(base, mac);
    mac.record_latency = true;
    if (err.empty()) err = check_report(jmb, mac);
    if (!err.empty()) fail(r, err);
    account(r, base, mac, false);
    account(r, jmb, mac, true);
    rvec shares;
    for (const net::ClientStats& c : jmb.per_client) {
      shares.push_back(static_cast<double>(c.delivered));
    }
    r.jain = jain_index(shares);
    if (env.keep_sim) r.latency_s = std::move(jmb.frame_latency_s);
  }

  std::vector<std::size_t> ns_;
  std::size_t topologies_ = 0;
  double duration_s_ = 0.0;
  std::vector<Unit> units_;
};

// ---------------------------------------------------------------------------

class MacOverload final : public Workload {
 public:
  explicit MacOverload(Size size)
      : topologies_(size == Size::kTiny ? 2 : 48),
        duration_s_(size == Size::kTiny ? 0.05 : 0.1) {}

  void setup(std::uint64_t seed, std::size_t /*workers*/,
             std::vector<Tracer>* tracers) override {
    Tracer* tracer = tracers != nullptr ? &tracers->front() : nullptr;
    const Scope root(tracer, Layer::kSetup);
    units_.clear();
    for (std::size_t t = 0; t < topologies_; ++t) {
      Rng rng(mix_seed(seed, t));
      Unit u;
      {
        const Scope span(tracer, Layer::kChanLinkGains);
        u.gains = chan::diverse_link_gains(kAps, kUsers, kBands[0].lo_db,
                                           kBands[0].hi_db, rng);
      }
      u.seed = rng.next_u64();
      units_.push_back(std::move(u));
    }
  }

  [[nodiscard]] std::size_t tasks() const override { return units_.size(); }

  [[nodiscard]] TaskResult run_task(std::size_t task,
                                    const TaskEnv& env) override {
    return timed_unit(env, task,
                      [&](TaskResult& r) { run_unit(units_[task], env, r); });
  }

  void sim_metrics(const std::vector<TaskResult>& pass,
                   std::vector<Metric>& out) const override {
    double jmb = 0.0;
    double base = 0.0;
    for (const TaskResult& r : pass) {
      jmb += r.jmb_goodput_mbps;
      base += r.base_goodput_mbps;
    }
    mac_sim_metrics(pass, base > 0.0 ? jmb / base : 0.0, out);
  }

 private:
  static constexpr std::size_t kAps = 4;
  static constexpr std::size_t kStreams = 4;
  static constexpr std::size_t kUsers = 12;  // 3x as many users as streams
  static constexpr std::size_t kGroups = kUsers / kStreams;
  /// What a 4-stream joint transmission sustains in the high band after
  /// measurement overhead (the overload bench's reference); the offered
  /// load is twice this.
  static constexpr double kNominalCapacityMbps = 120.0;
  static constexpr double kLoad = 2.0;
  static constexpr std::size_t kSinrPool = 8;
  static constexpr net::AggLimits kAgg{4, 8000};

  struct Unit {
    std::vector<std::vector<double>> gains;
    std::uint64_t seed = 0;
  };

  void run_unit(const Unit& u, const TaskEnv& env, TaskResult& r) const {
    Tracer* tr = env.tracer;
    Rng rng(u.seed);
    // Users >> streams: one well-conditioned channel set per group of
    // kStreams users; each client's post-beamforming SINR comes from its
    // group's pool (the overload bench's model).
    std::vector<core::ChannelMatrixSet> h;
    h.reserve(kGroups);
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::vector<std::vector<double>> group(
          u.gains.begin() + static_cast<std::ptrdiff_t>(g * kStreams),
          u.gains.begin() + static_cast<std::ptrdiff_t>((g + 1) * kStreams));
      const Scope span(tr, Layer::kCoreChannelSet);
      h.push_back(core::well_conditioned_channel_set(group, rng));
    }
    std::vector<std::vector<std::vector<rvec>>> pools(kGroups);
    {
      Rng pool_rng(rng.next_u64());
      for (std::size_t g = 0; g < kGroups; ++g) {
        const auto precoder = build_zf(tr, h[g]);
        if (precoder) pools[g] = sinr_pool(tr, h[g], *precoder, kSinrPool,
                                           pool_rng);
      }
    }
    LinkProbe probe(env, r);
    std::size_t draw = 0;
    const net::LinkStateFn jmb_links = probe.wrap([&](std::size_t c) {
      const std::vector<std::vector<rvec>>& pool = pools[c / kStreams];
      if (pool.empty()) return net::LinkState{rvec(phy::kNumDataCarriers, 0.0)};
      return net::LinkState{
          pool[(draw++ / kStreams) % kSinrPool][c % kStreams]};
    });
    const net::LinkStateFn base_links = probe.wrap([&](std::size_t c) {
      return net::LinkState{best_ap_snrs(u.gains[c])};
    });

    // Both MACs see byte-identical arrivals: two sources, one seed.
    const traffic::Profile profile = traffic::make_profile(
        "mixed", kLoad * kNominalCapacityMbps / static_cast<double>(kUsers));
    const std::uint64_t traffic_seed = rng.next_u64();
    net::MacParams mac;
    mac.duration_s = duration_s_;
    mac.airtime.turnaround_s = kTurnaroundS;
    mac.saturated = false;
    mac.record_latency = true;
    mac.agg = kAgg;

    net::MacReport reports[2];
    for (const bool jmb : {true, false}) {
      traffic::PacketSource packets(traffic_seed, kUsers, profile,
                                    duration_s_);
      traffic::PfScheduler pf;
      TimedSource source(packets, tr, r);
      TimedScheduler sched(pf, tr, r, probe);
      mac.traffic = &source;
      mac.scheduler = &sched;
      mac.seed = rng.next_u64();
      net::MacReport& rep = reports[jmb ? 0 : 1];
      rep = run_mac(tr, jmb, kAps, kUsers, kStreams,
                    jmb ? jmb_links : base_links, mac);
      const std::string err = check_report(rep, mac);
      if (!err.empty()) fail(r, err);
      if (packets.offered_packets() != rep.offered_packets) {
        fail(r, "offered packets disagree with the traffic source");
      }
      account(r, rep, mac, jmb);
    }
    r.n = kAps;
    rvec shares;
    for (const net::FlowStats& f : reports[0].flows) {
      shares.push_back(static_cast<double>(f.delivered_bytes));
    }
    r.jain = jain_index(shares);
    digest_add(r.digest, r.jain);
    if (env.keep_sim) r.latency_s = std::move(reports[0].frame_latency_s);
  }

  std::size_t topologies_;
  double duration_s_;
  std::vector<Unit> units_;
};

}  // namespace

std::unique_ptr<Workload> make_mac_saturated(Size size) {
  return std::make_unique<MacSaturated>(size);
}

std::unique_ptr<Workload> make_mac_overload(Size size) {
  return std::make_unique<MacOverload>(size);
}

}  // namespace perfbench
