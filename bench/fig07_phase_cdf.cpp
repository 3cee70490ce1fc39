// Figure 7 — CDF of observed phase misalignment under JMB's distributed
// phase synchronization.
//
// Paper method (Section 11.1b): a lead and a slave AP alternate OFDM
// symbols after the slave applies its sync-header correction; a receiver
// estimates both channels and tracks the deviation of their relative phase
// from its first observation.
//
// Paper result: median 0.017 rad, 95th percentile 0.05 rad.
#include <cstdio>

#include "bench_util.h"
#include "engine/env.h"
#include "engine/system.h"
#include "engine/trial_runner.h"

int main(int argc, char** argv) {
  using namespace jmb;
  auto opts = bench::parse_options(argc, argv, "fig07_phase_cdf");
  opts.seed = bench::seed_from(argc, argv);
  const auto seed = opts.seed;
  bench::banner("Fig. 7: CDF of achieved phase misalignment (sample-level)",
                seed);

  constexpr std::size_t kTopologies = 6;
  constexpr std::size_t kRounds = 25;
  opts.add_param("topologies", kTopologies);
  opts.add_param("rounds", kRounds);

  // JMB_PRECODER swaps the weight rule inside the sample-level pipeline;
  // the default ZF config leaves every export byte-identical.
  bool precoder_warned = false;
  core::PrecoderConfig precoder_cfg;
  precoder_cfg.kind = engine::env_precoder_kind(precoder_warned);
  if (precoder_cfg.kind == phy::PrecoderKind::kRzf) {
    precoder_cfg.ridge = core::PrecoderConfig::mmse_ridge(1, 1.0);
  }
  if (precoder_cfg.kind != phy::PrecoderKind::kZf) {
    std::printf("precoder: %s (JMB_PRECODER)\n\n",
                phy::precoder_kind_name(precoder_cfg.kind));
  }

  // One trial per topology; the facade's pipeline records the real
  // per-stage metrics into the trial's set, and the attached ObsSink
  // collects the phase-sync / precoder / decode physics probes.
  engine::TrialRunner runner({.base_seed = seed});
  const auto per_topo =
      runner.run(kTopologies, [&](engine::TrialContext& ctx) -> rvec {
        core::SystemParams p;
        p.n_aps = 2;
        p.n_clients = 1;
        p.precoder = precoder_cfg;
        p.seed = ctx.rng.next_u64();
        // Static testbed (nodes on ledges/tripods): the probe isolates the
        // oscillator-sync error, not channel aging.
        p.coherence_time_s = 1e4;
        const double snr_db = ctx.rng.uniform(18.0, 28.0);
        core::JmbSystem sys(
            p, {{core::JmbSystem::gain_for_snr_db(snr_db, 1.0),
                 core::JmbSystem::gain_for_snr_db(snr_db, 1.0)}});
        sys.attach_metrics(ctx.metrics);
        sys.attach_obs(&ctx.sink);
        if (!sys.run_measurement()) return {};
        return sys.measure_alignment_series(kRounds, 5e-3);
      });

  rvec all;
  for (const rvec& dev : per_topo) {
    all.insert(all.end(), dev.begin(), dev.end());
  }
  if (all.empty()) {
    std::printf("no samples collected\n");
    return 1;
  }
  std::printf("samples: %zu\n\n", all.size());
  std::printf("%-12s %-18s\n", "percentile", "misalignment (rad)");
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    std::printf("%-12.2f %-18.4f\n", q, percentile(all, q));
  }
  std::printf("\nmedian = %.4f rad (paper: 0.017), 95th = %.4f rad"
              " (paper: 0.05)\n",
              median(all), percentile(all, 0.95));
  opts.add_result("claim/misalignment_median_rad", median(all));
  opts.add_result("claim/misalignment_p95_rad", percentile(all, 0.95));
  return bench::finish(opts, runner);
}
