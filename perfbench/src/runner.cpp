#include "runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>

#include "dsp/stats.h"
#include "rate/effective_snr.h"
#include "rate/per.h"
#include "simd/backend.h"

namespace perfbench {

void digest_add(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

double jain_index(const rvec& shares) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : shares) {
    sum += v;
    sum_sq += v * v;
  }
  if (shares.empty() || sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(shares.size()) * sum_sq);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t idx) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (idx + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, std::size_t workers,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t id) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(id, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t id = 1; id < workers; ++id) threads.emplace_back(work, id);
  work(0);
  for (std::thread& t : threads) t.join();
}

namespace {

/// Flow ids of one pass stay below this, so ids are unique per run.
constexpr std::uint64_t kFlowsPerPass = 1'000'000;
/// Percentiles tried for unit_tail_ms, highest first.
/// The steps are coarse so that run-to-run changes in the unit count
/// rarely move a run to another step.
constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
constexpr double kChannelSampleRateHz = 10e6;

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Runs whole passes on `workers` threads (the calling thread is worker
/// 0) until `seconds` have elapsed and at least `min_passes` have run;
/// returns each pass's results in task order. Workers pull tasks in
/// (pass, task) order across pass boundaries, so none idles at the end of
/// a pass, and a pass that opens before the time is up runs to its end.
/// A task waits for the same task of the previous pass, since phy_samples
/// lanes carry state. With tracers, every odd pass is traced. A task that
/// throws counts as one failed unit.
std::vector<std::vector<TaskResult>> run_passes(Workload& w,
                                                std::size_t workers,
                                                double seconds,
                                                std::vector<Tracer>* tracers,
                                                double& wall_s) {
  const std::size_t n = w.tasks();
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::vector<TaskResult>> passes;  // guarded by m
  std::vector<std::size_t> done(n, 0);         // guarded by m
  bool closed = false;                         // guarded by m
  std::atomic<std::size_t> next{0};
  const std::uint64_t t0 = now_ns();
  const auto work = [&](std::size_t id) {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      const std::size_t p = k / n;
      const std::size_t i = k % n;
      std::vector<TaskResult>* slot = nullptr;
      {
        std::unique_lock<std::mutex> lock(m);
        while (!closed && passes.size() <= p) {
          if (passes.size() >= w.sim_passes() && seconds_since(t0) >= seconds) {
            closed = true;
          } else {
            passes.emplace_back(n);
          }
        }
        if (p >= passes.size()) return;
        slot = &passes[p];
        cv.wait(lock, [&] { return done[i] == p; });
      }
      const bool traced = tracers != nullptr && p % 2 == 1;
      TaskEnv env;
      env.tracer = traced ? &(*tracers)[id] : nullptr;
      env.keep_sim = p < w.sim_passes();
      env.sample_links = traced && p == 1;
      env.flow_base = p * kFlowsPerPass;
      const std::uint64_t ts = now_ns();
      TaskResult r;
      try {
        r = w.run_task(i, env);
      } catch (const std::exception& e) {
        r = TaskResult{};
        r.failed = 1;
        r.error = e.what();
      }
      r.task_ms = static_cast<double>(now_ns() - ts) / 1e6;
      {
        const std::lock_guard<std::mutex> lock(m);
        (*slot)[i] = std::move(r);
        ++done[i];
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t id = 1; id < workers; ++id) threads.emplace_back(work, id);
  work(0);
  for (std::thread& t : threads) t.join();
  wall_s = seconds_since(t0);
  return {std::make_move_iterator(passes.begin()),
          std::make_move_iterator(passes.end())};
}

std::uint64_t pass_digest(const std::vector<TaskResult>& results) {
  std::uint64_t h = kDigestSeed;
  for (const TaskResult& r : results) {
    digest_add(h, static_cast<double>(r.digest >> 32));
    digest_add(h, static_cast<double>(r.digest & 0xffffffffu));
  }
  return h;
}

/// Sums over the untraced or the traced passes of a run.
struct Phase {
  std::size_t passes = 0;
  double task_ms = 0.0;  ///< host time of every task, summed
  rvec unit_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  double frames = 0.0;
  double air_samples = 0.0;
  double failed_attempts = 0.0;
  double jmb_frames = 0.0;
  double joint_tx = 0.0;
  double link_state_calls = 0.0;
  double hint_calls = 0.0;
  double arrivals = 0.0;
  double select_calls = 0.0;
  double select_backlog_sum = 0.0;
  double queue_depth_max = 0.0;
  std::vector<rvec> link_samples;

  void add(std::vector<TaskResult>& pass) {
    ++passes;
    for (TaskResult& r : pass) {
      task_ms += r.task_ms;
      unit_ms.insert(unit_ms.end(), r.unit_ms.begin(), r.unit_ms.end());
      attempted += std::max(r.unit_ms.size(), r.failed);
      failed += r.failed;
      if (first_error.empty() && !r.error.empty()) first_error = r.error;
      frames += r.frames;
      air_samples += r.air_samples;
      failed_attempts += r.failed_attempts;
      jmb_frames += r.jmb_frames;
      joint_tx += r.joint_tx;
      link_state_calls += r.link_state_calls;
      hint_calls += r.hint_calls;
      arrivals += r.arrivals;
      select_calls += r.select_calls;
      select_backlog_sum += r.select_backlog_sum;
      queue_depth_max = std::max(queue_depth_max, r.queue_depth_max);
      for (rvec& s : r.link_samples) link_samples.push_back(std::move(s));
    }
  }
};

/// Checks a finished pass against the first one and folds it into
/// `phase`. The results of the first sim_passes() passes are kept in
/// `sim`, and `digest` covers them.
struct PassBook {
  std::vector<TaskResult> sim;
  std::uint64_t digest = kDigestSeed;
  std::uint64_t first_digest = 0;
  std::size_t mismatches = 0;
  std::size_t passes = 0;

  void book(const Workload& w, std::vector<TaskResult>& pass, Phase& phase) {
    const std::uint64_t d = pass_digest(pass);
    if (passes < w.sim_passes()) {
      digest_add(digest, static_cast<double>(d >> 32));
      digest_add(digest, static_cast<double>(d & 0xffffffffu));
      sim.insert(sim.end(), pass.begin(), pass.end());
    }
    if (passes == 0) {
      first_digest = d;
    } else if (w.passes_repeat() && d != first_digest) {
      // Identical inputs must give identical outputs: a mismatch fails
      // every unit of the pass.
      ++mismatches;
      for (TaskResult& r : pass) {
        r.failed = std::max<std::size_t>(r.unit_ms.size(), 1);
        if (r.error.empty()) r.error = "pass outputs differ from pass 0";
      }
    }
    phase.add(pass);
    ++passes;
  }
};

/// The value at the highest ladder percentile with >= 10 samples beyond
/// it (nearest rank on the sorted series).
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t beyond = 0;
};
Tail unit_tail(rvec sorted) {
  std::sort(sorted.begin(), sorted.end());
  Tail t;
  if (sorted.empty()) return t;
  const std::size_t n = sorted.size();
  for (const double q : kTailLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    t = {sorted[idx], q * 100.0, n - idx - 1};
    if (t.beyond >= 10) break;
  }
  return t;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Times rate::select_rate and rate::frame_error_prob on the captured
/// link-state sample: median ns per call over repeated sweeps, on every
/// worker at once so the cores are as busy as during the passes (the
/// median over workers is kept).
struct RateReplay {
  double select_ns = 0.0;
  double per_ns = 0.0;
};
RateReplay replay_one(const std::vector<rvec>& samples) {
  RateReplay out;
  std::vector<std::size_t> rates;
  rates.reserve(samples.size());
  for (const rvec& s : samples) {
    rates.push_back(jmb::rate::select_rate(s).value_or(0));
  }
  volatile double sink = 0.0;
  const auto time_sweeps = [&](auto&& call) {
    rvec per_call;
    const std::uint64_t t_start = now_ns();
    while (per_call.size() < 3 ||
           (per_call.size() < 200 && seconds_since(t_start) < 0.2)) {
      const std::uint64_t t0 = now_ns();
      double acc = 0.0;
      for (std::size_t i = 0; i < samples.size(); ++i) acc += call(i);
      per_call.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(samples.size()));
      sink = sink + acc;
    }
    return jmb::median(per_call);
  };
  out.select_ns = time_sweeps([&](std::size_t i) {
    return static_cast<double>(jmb::rate::select_rate(samples[i]).value_or(0));
  });
  out.per_ns = time_sweeps([&](std::size_t i) {
    return jmb::rate::frame_error_prob(samples[i], rates[i]);
  });
  return out;
}
RateReplay replay_rate(const std::vector<rvec>& samples, std::size_t workers) {
  if (samples.empty()) return {};
  std::vector<RateReplay> per_worker(workers);
  parallel_for(workers, workers, [&](std::size_t, std::size_t i) {
    per_worker[i] = replay_one(samples);
  });
  rvec select_ns;
  rvec per_ns;
  for (const RateReplay& r : per_worker) {
    select_ns.push_back(r.select_ns);
    per_ns.push_back(r.per_ns);
  }
  return {jmb::median(select_ns), jmb::median(per_ns)};
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %zu, \"failed\": %zu",
                attempted, failed);
  line += buf;
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v);
    line += buf;
    line += "\"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// The untraced run's end-to-end metrics, log and result line.
void print_end_to_end(const Workload& w, const PassBook& book,
                      const Phase& plain, const rvec& setup_s, double wall_s,
                      bool correct, std::size_t attempted,
                      std::size_t failed) {
  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", jmb::median(setup_s), "s"});
  const double wall = std::max(wall_s, 1e-9);
  e2e.push_back({"sim_frames_per_s", plain.frames / wall, "1/s"});
  const double msps = plain.air_samples / wall / 1e6;
  e2e.push_back({"msamples_per_s", msps, "Msamples/s"});
  const Tail tail = unit_tail(plain.unit_ms);
  e2e.push_back({"unit_p50_ms",
                 plain.unit_ms.empty() ? 0.0 : jmb::median(plain.unit_ms),
                 "ms"});
  e2e.push_back({"unit_tail_ms", tail.value, "ms"});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                 "MB"});
  w.sim_metrics(book.sim, e2e);

  std::printf("end-to-end (%.3f s measured):\n", wall_s);
  for (const Metric& m : e2e) print_metric(m);
  std::printf("  real-time factor %.6g (msamples_per_s / %.0f MS/s)\n",
              msps * 1e6 / kChannelSampleRateHz, kChannelSampleRateHz / 1e6);
  std::printf("  unit_tail_ms is p%.1f: %zu of %zu units beyond it\n",
              tail.pct, tail.beyond, plain.unit_ms.size());
  print_result(correct, attempted, failed, e2e);
}

std::unique_ptr<Workload> make_workload(const std::string& name, Size size) {
  if (name == "mac_saturated") return make_mac_saturated(size);
  if (name == "mac_overload") return make_mac_overload(size);
  if (name == "phy_samples") return make_phy_samples(size);
  return nullptr;
}

}  // namespace

int run_benchmark(const RunConfig& cfg) {
  const std::uint64_t t_program = now_ns();
  std::unique_ptr<Workload> w = make_workload(cfg.workload, cfg.size);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 3;
  }
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"size\": \"%s\", \"seconds\": %.6g, \"trace\": %d, \"workers\": %zu"
      ", \"nproc\": %zu, \"cpu\": \"%s\", \"simd\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\"}\n",
      cfg.workload.c_str(), cfg.seed,
      cfg.size == Size::kTiny ? "tiny" : "full", cfg.seconds,
      cfg.trace ? 1 : 0, cfg.workers, available_cpus(),
      json_escape(cpu_model()).c_str(),
      jmb::simd::backend_name(jmb::simd::active_backend()),
      json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE);

  std::vector<Tracer> tracers;
  for (std::size_t i = 0; i < cfg.workers; ++i) {
    tracers.emplace_back(static_cast<std::uint32_t>(i));
  }

  // Set-up, several times; the last one's inputs are kept (and traced).
  rvec setup_s;
  for (std::size_t k = 0; k < w->setup_reps(); ++k) {
    const bool last = k + 1 == w->setup_reps();
    const std::uint64_t t0 = now_ns();
    w->setup(cfg.seed, cfg.workers, cfg.trace && last ? &tracers : nullptr);
    setup_s.push_back(seconds_since(t0));
  }
  Totals setup_totals{};
  for (Tracer& t : tracers) {
    for (std::size_t i = 0; i < kNumLayers; ++i) {
      setup_totals[i].add(t.totals()[i]);
    }
    t.reset_totals();
  }

  // A traced run alternates untraced and traced passes, so their task
  // times compare like for like; the first pass, which warms caches and
  // lazy tables, is left out of that comparison.
  double wall_s = 0.0;
  std::vector<std::vector<TaskResult>> results = run_passes(
      *w, cfg.workers, cfg.seconds, cfg.trace ? &tracers : nullptr, wall_s);
  Phase plain;
  Phase traced;
  PassBook book;
  double first_pass_task_ms = 0.0;
  for (std::size_t p = 0; p < results.size(); ++p) {
    if (p == 0) {
      for (const TaskResult& r : results[p]) first_pass_task_ms += r.task_ms;
    }
    book.book(*w, results[p], cfg.trace && p % 2 == 1 ? traced : plain);
  }

  const std::size_t attempted = plain.attempted + traced.attempted;
  const std::size_t failed = plain.failed + traced.failed;
  const double fail_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);

  std::printf("passes: %zu untraced + %zu traced, %zu tasks each, %zu units"
              " attempted, %zu failed\n",
              plain.passes, traced.passes, w->tasks(), attempted, failed);
  std::printf("digest: %016" PRIx64 " (simulated outputs of the first %zu"
              " pass(es))%s\n",
              book.digest, w->sim_passes(),
              !w->passes_repeat() ? ""
              : book.mismatches == 0 ? "; every pass repeated it"
                                     : "; LATER PASSES DIFFER");
  if (!plain.first_error.empty() || !traced.first_error.empty()) {
    std::printf("first failure: %s\n", !plain.first_error.empty()
                                           ? plain.first_error.c_str()
                                           : traced.first_error.c_str());
  }

  std::printf("fail_frac %.6g (%zu of %zu units)\n", fail_frac, failed,
              attempted);
  const bool correct = failed == 0;

  if (!cfg.trace) {
    print_end_to_end(*w, book, plain, setup_s, wall_s, correct, attempted,
                     failed);
    return 0;
  }

  // Per-layer metrics from the traced passes, per pass.
  Totals tot{};
  for (const Tracer& t : tracers) {
    for (std::size_t i = 0; i < kNumLayers; ++i) tot[i].add(t.totals()[i]);
  }
  const double passes =
      static_cast<double>(std::max<std::size_t>(traced.passes, 1));
  const auto at = [&](Layer l) -> const LayerTotals& {
    return tot[static_cast<std::size_t>(l)];
  };
  const auto self_s = [&](Layer l) {
    return static_cast<double>(at(l).self_ns) / 1e9 / passes;
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(at(l).calls) / passes;
  };
  double propagate_allocs = 0.0;
  double decode_allocs = 0.0;
  w->probe_allocs(propagate_allocs, decode_allocs);
  const RateReplay rr = replay_rate(traced.link_samples, cfg.workers);
  // The MAC runs select_rate once per link-state callback it makes (the
  // scheduler's rate hints run theirs inside select()) and the PER model
  // once per MPDU attempt; price both at the replayed cost against the
  // MAC's own (self) time.
  const double mac_self_ns = static_cast<double>(at(Layer::kNetMac).self_ns);
  const double est_rate_ns =
      (traced.link_state_calls - traced.hint_calls) * rr.select_ns +
      traced.frames * rr.per_ns;
  const double roots_total =
      static_cast<double>(at(Layer::kUnit).total_ns +
                          at(Layer::kEpoch).total_ns);
  const double roots_self =
      static_cast<double>(at(Layer::kUnit).self_ns + at(Layer::kEpoch).self_ns);

  std::vector<Metric> layers;
  layers.push_back({"rate.select_ns", rr.select_ns, "ns"});
  layers.push_back({"rate.per_ns", rr.per_ns, "ns"});
  layers.push_back({"rate.est_share",
                    mac_self_ns > 0.0 ? est_rate_ns / mac_self_ns : 0.0,
                    "frac"});
  layers.push_back({"net.mac_s",
                    static_cast<double>(at(Layer::kNetMac).total_ns) / 1e9 /
                        passes,
                    "s"});
  layers.push_back({"net.mac_self_s", self_s(Layer::kNetMac), "s"});
  layers.push_back({"net.link_state_s", self_s(Layer::kNetLinkState), "s"});
  layers.push_back(
      {"net.link_state_calls", calls(Layer::kNetLinkState), "count"});
  layers.push_back({"net.retry_frac",
                    traced.frames > 0.0
                        ? traced.failed_attempts / traced.frames
                        : 0.0,
                    "frac"});
  layers.push_back({"net.queue_depth_max", traced.queue_depth_max, "count"});
  layers.push_back({"net.mpdus_per_tx",
                    traced.joint_tx > 0.0 ? traced.jmb_frames / traced.joint_tx
                                          : 0.0,
                    "count"});
  layers.push_back({"traffic.drain_s", self_s(Layer::kTrafficDrain), "s"});
  layers.push_back({"traffic.arrivals", traced.arrivals / passes, "count"});
  layers.push_back({"traffic.select_s", self_s(Layer::kTrafficSelect), "s"});
  layers.push_back(
      {"traffic.select_calls", calls(Layer::kTrafficSelect), "count"});
  layers.push_back({"traffic.backlog_mean",
                    traced.select_calls > 0.0
                        ? traced.select_backlog_sum / traced.select_calls
                        : 0.0,
                    "count"});
  layers.push_back({"core.channel_set_s", self_s(Layer::kCoreChannelSet), "s"});
  layers.push_back({"core.precode_s", self_s(Layer::kCorePrecode), "s"});
  layers.push_back({"core.precode_calls", calls(Layer::kCorePrecode), "count"});
  layers.push_back({"core.sinr_s", self_s(Layer::kCoreSinr), "s"});
  layers.push_back({"core.sinr_calls", calls(Layer::kCoreSinr), "count"});
  const LayerTotals& gains =
      setup_totals[static_cast<std::size_t>(Layer::kChanLinkGains)];
  layers.push_back(
      {"chan.link_gains_s", static_cast<double>(gains.self_ns) / 1e9, "s"});
  layers.push_back({"engine.measure_s", self_s(Layer::kEngineMeasure), "s"});
  layers.push_back({"engine.precode_s", self_s(Layer::kEnginePrecode), "s"});
  layers.push_back(
      {"engine.synthesis_s", self_s(Layer::kEngineSynthesis), "s"});
  layers.push_back(
      {"engine.propagate_s", self_s(Layer::kEnginePropagate), "s"});
  layers.push_back({"engine.decode_s", self_s(Layer::kEngineDecode), "s"});
  layers.push_back(
      {"phy.build_symbols_s", self_s(Layer::kPhyBuildSymbols), "s"});
  layers.push_back({"engine.propagate_allocs_per_frame", propagate_allocs,
                    "count"});
  layers.push_back({"engine.decode_allocs_per_frame", decode_allocs, "count"});
  layers.push_back({"untracked_frac",
                    roots_total > 0.0 ? roots_self / roots_total : 0.0,
                    "frac"});
  const double plain_pass_ms =
      plain.passes > 1 ? (plain.task_ms - first_pass_task_ms) /
                             static_cast<double>(plain.passes - 1)
                       : plain.task_ms;
  layers.push_back({"trace_overhead_frac",
                    plain_pass_ms > 0.0
                        ? traced.task_ms / passes / plain_pass_ms - 1.0
                        : 0.0,
                    "frac"});
  layers.push_back({"fail_frac", fail_frac, "frac"});

  std::printf("per-layer (%zu traced passes; times and counts per pass):\n",
              traced.passes);
  for (const Metric& m : layers) print_metric(m);
  std::printf("  rate replay over %zu captured link states\n",
              traced.link_samples.size());

  const std::string path =
      cfg.trace_out.empty() ? cfg.workload + ".trace.json" : cfg.trace_out;
  std::size_t kept = 0;
  std::uint64_t dropped = 0;
  for (const Tracer& t : tracers) {
    kept += t.spans_kept();
    dropped += t.spans_dropped();
  }
  if (!write_chrome_trace(path, tracers, t_program)) {
    std::fprintf(stderr, "perfbench: cannot write trace '%s'\n", path.c_str());
    return 5;
  }
  std::printf("trace: %s (%zu spans kept, %" PRIu64 " over the cap)\n",
              path.c_str(), kept, dropped);
  print_result(correct, attempted, failed, layers);
  return 0;
}

}  // namespace perfbench
