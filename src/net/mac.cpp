#include "net/mac.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "fault/injector.h"
#include "fault/resilience.h"
#include "net/scheduler.h"
#include "rate/effective_snr.h"
#include "rate/per.h"

namespace jmb::net {

namespace {

/// Airtime of a slot that carries no data (sync preamble + turnaround):
/// what an idle or headerless slot costs.
double idle_slot_s(const MacParams& params) {
  return static_cast<double>(phy::kPreambleLen) /
             params.airtime.sample_rate_hz +
         params.airtime.turnaround_s;
}

/// Advance the fault timeline to virtual time t and forward new injection
/// edges to the controller's latency bookkeeping.
void pump_mac_faults(fault::FaultSession* fault,
                     fault::ResilienceController* ctrl, double t) {
  if (!fault) return;
  const std::size_t before = fault->events_applied();
  fault->advance_to(t);
  if (ctrl && fault->events_applied() != before) {
    ctrl->note_fault(fault->last_fault_t());
  }
}

/// Tracks the controller's quarantine / recovery counters across the run
/// and folds each new latency sample into running means.
struct LatencyAccumulator {
  std::size_t seen_quarantines = 0;
  std::size_t seen_recoveries = 0;
  double detect_sum = 0.0;
  double recover_sum = 0.0;

  void sample(const fault::ResilienceController& ctrl) {
    if (ctrl.quarantine_events() > seen_quarantines) {
      seen_quarantines = ctrl.quarantine_events();
      detect_sum += ctrl.last_detect_latency_s();
    }
    if (ctrl.recoveries() > seen_recoveries) {
      seen_recoveries = ctrl.recoveries();
      recover_sum += ctrl.last_recover_latency_s();
    }
  }
  void fold_into(MacReport& report) const {
    report.quarantines = seen_quarantines;
    if (seen_quarantines > 0) {
      report.mean_time_to_detect_s =
          detect_sum / static_cast<double>(seen_quarantines);
    }
    if (seen_recoveries > 0) {
      report.mean_time_to_recover_s =
          recover_sum / static_cast<double>(seen_recoveries);
    }
  }
};

/// A-MPDU delimiter overhead charged per aggregated subframe.
constexpr std::size_t kMpduDelimiterBytes = 4;

/// Consecutive joint transmissions without the lead's sync header before
/// the MAC declares the lead dead and re-elects (resilient variant).
constexpr std::size_t kLeadMissThreshold = 3;

/// Accumulates per-(client, flow) delivery statistics for traffic-mode
/// runs. std::map keys keep the export order deterministic.
class FlowTracker {
 public:
  void deliver(const Packet& p, double t) {
    Accum& a = acc_[{p.client, p.flow}];
    ++a.delivered;
    a.bytes += p.bytes;
    const double lat = t - p.enqueue_s;
    a.lat_sum += lat;
    a.lat_sumsq += lat * lat;
    a.lat_max = std::max(a.lat_max, lat);
    if (p.deadline_s > 0.0 && t > p.deadline_s) ++a.misses;
  }
  void drop(const Packet& p) { ++acc_[{p.client, p.flow}].dropped; }

  void fold_into(MacReport& report, double duration_s) const {
    report.flows.reserve(acc_.size());
    for (const auto& [key, a] : acc_) {
      FlowStats f;
      f.client = key.first;
      f.flow = key.second;
      f.delivered = a.delivered;
      f.dropped = a.dropped;
      f.deadline_misses = a.misses;
      f.delivered_bytes = a.bytes;
      f.goodput_mbps =
          static_cast<double>(a.bytes) * 8.0 / duration_s / 1e6;
      if (a.delivered > 0) {
        const double n = static_cast<double>(a.delivered);
        f.mean_latency_s = a.lat_sum / n;
        f.max_latency_s = a.lat_max;
        const double var =
            a.lat_sumsq / n - f.mean_latency_s * f.mean_latency_s;
        f.jitter_s = var > 0.0 ? std::sqrt(var) : 0.0;
      }
      report.flows.push_back(f);
    }
  }

 private:
  struct Accum {
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    std::size_t misses = 0;
    std::size_t bytes = 0;
    double lat_sum = 0.0;
    double lat_sumsq = 0.0;
    double lat_max = 0.0;
  };
  std::map<std::pair<std::size_t, std::uint32_t>, Accum> acc_;
};

/// Goodput from delivered bytes. Saturated-fill packets are all
/// params.psdu_bytes, so this is exactly delivered * psdu_bytes there.
void finalize(MacReport& report, const MacParams& params,
              const std::vector<double>& client_bytes) {
  report.duration_s = params.duration_s;
  report.total_goodput_mbps = 0.0;
  for (std::size_t c = 0; c < report.per_client.size(); ++c) {
    report.per_client[c].goodput_mbps =
        client_bytes[c] * 8.0 / params.duration_s / 1e6;
    report.total_goodput_mbps += report.per_client[c].goodput_mbps;
  }
}

/// Adapts a plain link-state callback to the masked signature the loop
/// speaks; the mask is ignored.
MaskedLinkStateFn ignore_mask(const LinkStateFn& link_state) {
  return [&link_state](std::size_t client, const std::vector<std::uint8_t>&) {
    return link_state(client);
  };
}

/// The one MAC event loop behind all four entry points.
///
/// Transmit mode: `joint` = JMB (up to n_streams clients per slot, joint
/// frame airtime, channel-measurement epochs, lead election); otherwise
/// single-AP 802.11 (one client per slot from its best up AP).
/// Packet supply: params.traffic when set, else the round-robin saturated
/// fill. `fault` and `resilience` may be null (no-ops). See DESIGN.md §9
/// for the per-mode behaviours this loop keeps.
MacReport run_mac(bool joint, std::size_t n_aps, std::size_t n_clients,
                  std::size_t n_streams, const MaskedLinkStateFn& link_state,
                  const MacParams& params, fault::FaultSession* fault,
                  fault::ResilienceController* resilience) {
  MacReport report;
  report.per_client.resize(n_clients);
  Rng rng(params.seed);
  DownlinkQueue queue;
  TrafficSource* const src = params.traffic;
  // Scheduling, aggregation and delimiters are traffic-mode features; the
  // saturated fill serves FIFO, one bare MPDU per client.
  Scheduler* const sched = src ? params.scheduler : nullptr;
  const AggLimits agg = src ? params.agg : AggLimits{};
  const std::size_t delimiter_bytes = src ? kMpduDelimiterBytes : 0;
  FlowTracker flows;
  std::vector<double> client_bytes(n_clients, 0.0);

  double t = 0.0;
  double next_measurement = 0.0;  // JMB only
  std::size_t next_forced = 0;    // cursor into params.remeasure_at
  std::uint64_t next_id = 0;
  std::size_t rr = 0;  // round-robin cursor of the saturated fill
  std::size_t lead = 0;
  std::size_t lead_misses = 0;
  LatencyAccumulator latency;

  // The AP set handed to link_state. 802.11 re-associates with the APs
  // the session has up; JMB transmits on the set it *believes* in — the
  // controller's survivors, or everyone when no controller is attached.
  std::vector<std::uint8_t> up(n_aps, 1);
  const auto aps = [&]() -> const std::vector<std::uint8_t>& {
    return joint && resilience ? resilience->active() : up;
  };

  // Achievable-rate hint for rate-aware policies: the PHY rate the client
  // would get right now, in Mb/s.
  const RateHintFn rate_hint = [&](std::size_t client) {
    const auto r = rate::select_rate(link_state(client, aps()).subcarrier_snr);
    if (!r) return 0.0;
    return static_cast<double>(phy::rate_set()[*r].n_dbps()) *
           params.airtime.sample_rate_hz /
           static_cast<double>(phy::kSymbolLen) / 1e6;
  };

  std::vector<std::size_t> picked;
  std::vector<std::uint8_t> taken(n_clients, 0);
  std::vector<AggFrame> frames;
  std::vector<rate::LinkQuality> quality;
  std::vector<Packet> requeue;

  while (t < params.duration_s) {
    pump_mac_faults(fault, resilience, t);
    if (fault && !joint) {
      for (std::size_t a = 0; a < n_aps; ++a) up[a] = fault->ap_down(a) ? 0 : 1;
    }
    if (src) {
      report.offered_packets += src->drain_until(t, queue);
      report.max_queue_depth =
          std::max(report.max_queue_depth, static_cast<double>(queue.size()));
    }

    // --- channel-measurement epoch: coherence cadence, forced hand-off
    // remeasures, or a controller request after a quarantine ---
    if (joint) {
      const bool forced = next_forced < params.remeasure_at.size() &&
                          params.remeasure_at[next_forced] <= t;
      if (t >= next_measurement || forced ||
          (resilience && resilience->needs_remeasure())) {
        while (next_forced < params.remeasure_at.size() &&
               params.remeasure_at[next_forced] <= t) {
          ++next_forced;
        }
        const double meas =
            rate::measurement_airtime_s(n_aps, n_clients, params.airtime);
        t += meas;
        report.measurement_airtime_s += meas;
        ++report.measurement_epochs;
        next_measurement = t + params.coherence_time_s;
        if (params.on_measure) params.on_measure(report.measurement_epochs, t);
        if (resilience) resilience->on_remeasure(t);
        continue;
      }
    }

    if (src && queue.empty()) {
      // Idle: jump the clock to the next event. drain_until guarantees
      // next_arrival_s() > t, so this always makes progress.
      double next_t = src->next_arrival_s();
      if (joint) next_t = std::min(next_t, next_measurement);
      if (!(next_t > t)) next_t = t + idle_slot_s(params);
      if (next_t >= params.duration_s) break;
      t = next_t;
      continue;
    }

    // --- lead liveness: a dead lead sends no sync header, so the slot is
    // lost. After kLeadMissThreshold such slots the MAC declares it down
    // and elects the lowest-indexed surviving AP ---
    if (joint && fault && fault->ap_down(lead)) {
      t += idle_slot_s(params);
      if (++lead_misses >= kLeadMissThreshold) {
        if (resilience) {
          resilience->mark_down(lead, t);
          latency.sample(*resilience);
          const std::size_t next_lead = resilience->elect_lead(lead);
          if (next_lead < n_aps && next_lead != lead) {
            lead = next_lead;
            ++report.lead_elections;
          }
        } else {
          // No controller: naive failover to the next AP index.
          lead = (lead + 1) % n_aps;
          ++report.lead_elections;
        }
        lead_misses = 0;
      }
      continue;
    }
    lead_misses = 0;

    // Per-slave sync-header evidence for this slot.
    if (joint && resilience) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        if (a == lead) continue;
        const bool down = fault && fault->ap_down(a);
        const bool lost = !down && fault && fault->sync_header_lost(a);
        const double residual =
            (!down && !lost && fault)
                ? std::abs(fault->sync_header_phase_error(a))
                : 0.0;
        resilience->on_sync_result(a, !down && !lost, residual, 0.0, t);
      }
      latency.sample(*resilience);
      if (resilience->needs_remeasure()) continue;  // epoch first
    }

    // --- saturated fill: 802.11 queues one packet per slot, JMB tops the
    // queue up to a full joint transmission. Detached clients are skipped
    // and packets the backhaul loses are counted, within a scan budget ---
    if (!src && params.saturated) {
      const std::size_t fill_to = joint ? n_streams : queue.size() + 1;
      const std::size_t max_scans =
          joint ? 4 * n_streams + (params.activity ? n_clients : 0) : n_clients;
      for (std::size_t scans = 0; queue.size() < fill_to && scans < max_scans;
           ++scans) {
        const std::size_t client = rr++ % n_clients;
        if (params.activity && !params.activity(client, t)) continue;
        if (joint && fault && fault->backhaul_packet_lost()) {
          // Lost on the wire between gateway and APs; counted, not queued.
          ++report.backhaul_drops;
          ++report.per_client[client].dropped;
          continue;
        }
        queue.push({client, params.psdu_bytes, 0, t, 0, next_id++});
      }
    }
    if (joint && fault) t += fault->backhaul_delay_s();  // distribution stall

    // --- user selection (Scheduler policy; null = FIFO order) ---
    const std::vector<std::size_t> selected =
        sched ? sched->select(queue, n_streams, t, &rate_hint)
              : queue.clients_fifo();
    picked.clear();
    std::fill(taken.begin(), taken.end(), 0);
    for (std::size_t c : selected) {
      if (picked.size() >= n_streams) break;
      if (c >= n_clients || taken[c] || queue.front_of(c) == nullptr) continue;
      taken[c] = 1;
      picked.push_back(c);
    }
    if (picked.empty()) {
      // A misbehaving policy must not stall a backlogged queue.
      for (std::size_t c : queue.clients_fifo()) {
        if (picked.size() >= n_streams) break;
        picked.push_back(c);
      }
    }

    frames.clear();
    std::size_t frame_bytes = 0;  // largest stream incl. delimiters
    for (std::size_t c : picked) {
      AggFrame f = queue.pop_aggregate(c, agg);
      if (f.mpdus.empty()) continue;
      report.aggregated_mpdus += f.mpdus.size() - 1;
      frame_bytes = std::max(frame_bytes,
                             f.total_bytes + delimiter_bytes * f.mpdus.size());
      frames.push_back(std::move(f));
    }
    if (frames.empty()) {
      if (!src && !params.saturated) break;  // nothing left to send
      // Cell momentarily empty, or the backhaul ate every candidate: idle
      // the slot so time always advances.
      t += idle_slot_s(params);
      continue;
    }
    if (joint) ++report.joint_transmissions;

    // --- rate selection per Section 9: the effective channel is k*I, so
    // every stream runs one rate, the worst client's. Detection lag is
    // where joint transmission pays: an AP that crashed but is still
    // believed active leaves a dead row in the precoder and ruins the
    // whole joint frame ---
    bool reachable = true;
    if (joint && fault) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        if (aps()[a] && fault->ap_down(a)) reachable = false;
      }
    }
    quality.clear();
    std::size_t rate_idx = 0;
    for (std::size_t i = 0; reachable && i < frames.size(); ++i) {
      quality.emplace_back(link_state(frames[i].client, aps()).subcarrier_snr);
      const auto r = quality.back().best_rate();
      if (!r) {
        reachable = false;
      } else if (i == 0 || *r < rate_idx) {
        rate_idx = *r;
      }
    }

    // An unreachable member burns a base-rate attempt and every stream
    // fails. Only traffic mode books that attempt as data airtime.
    const phy::Mcs& mcs = phy::rate_set()[reachable ? rate_idx : 0];
    const double airtime =
        joint ? rate::joint_frame_airtime_s(frame_bytes, mcs, params.airtime)
              : rate::frame_airtime_s(frame_bytes, mcs,
                                      params.airtime.sample_rate_hz);
    t += airtime;
    if (reachable || src) report.data_airtime_s += airtime;

    // --- deliver / retry / drop. Losses are decoupled per stream; within
    // a stream each MPDU gets its own delivery draw (block-ACK semantics).
    // Saturated 802.11 drops an unreachable client's packet at once ---
    const bool may_retry = reachable || joint || src;
    bool all_delivered = true;
    requeue.clear();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      double served_bytes = 0.0;
      // The member's 1500-byte PER, scaled to each MPDU's length below.
      const double per_1500 =
          reachable ? quality[i].reference_per(rate_idx) : 0.0;
      for (const Packet& p : frames[i].mpdus) {
        const bool ok =
            reachable && rng.uniform() >= rate::scale_frame_error_prob(
                                              per_1500, p.bytes);
        ClientStats& cs = report.per_client[p.client];
        if (ok) {
          ++cs.delivered;
          client_bytes[p.client] += static_cast<double>(p.bytes);
          served_bytes += static_cast<double>(p.bytes);
          if (src) flows.deliver(p, t);
          if (params.record_latency) {
            report.frame_latency_s.push_back(t - p.enqueue_s);
          }
          continue;
        }
        all_delivered = false;
        ++cs.failed_attempts;
        if (may_retry && p.retries < params.max_retries) {
          requeue.push_back(p);
        } else {
          ++cs.dropped;
          if (src) flows.drop(p);
        }
      }
      if (sched) sched->on_served(frames[i].client, served_bytes, airtime);
    }
    if (sched) sched->on_slot(airtime);
    // Traffic mode re-queues in reverse batch order, which keeps each
    // client's failed MPDUs in arrival order at the front of its subqueue;
    // the saturated fill re-queues in batch order.
    if (src) {
      for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
        queue.push_front(*it);
      }
    } else {
      for (const Packet& p : requeue) queue.push_front(p);
    }
    if (joint && resilience && all_delivered) {
      resilience->on_recovered(t);
      latency.sample(*resilience);
    }
  }
  if (fault) report.faults_injected = fault->events_applied();
  if (resilience) latency.sample(*resilience);
  latency.fold_into(report);
  flows.fold_into(report, params.duration_s);
  finalize(report, params, client_bytes);
  return report;
}

}  // namespace

MacReport run_baseline_mac(std::size_t n_clients, const LinkStateFn& link_state,
                           const MacParams& params) {
  return run_mac(/*joint=*/false, 1, n_clients, 1, ignore_mask(link_state),
                 params, nullptr, nullptr);
}

MacReport run_jmb_mac(std::size_t n_aps, std::size_t n_clients,
                      std::size_t n_streams, const LinkStateFn& link_state,
                      const MacParams& params) {
  return run_mac(/*joint=*/true, n_aps, n_clients, n_streams,
                 ignore_mask(link_state), params, nullptr, nullptr);
}

MacReport run_baseline_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                     const MaskedLinkStateFn& link_state,
                                     const MacParams& params,
                                     fault::FaultSession* fault) {
  return run_mac(/*joint=*/false, n_aps, n_clients, 1, link_state, params,
                 fault, nullptr);
}

MacReport run_jmb_mac_resilient(std::size_t n_aps, std::size_t n_clients,
                                std::size_t n_streams,
                                const MaskedLinkStateFn& link_state,
                                const MacParams& params,
                                fault::FaultSession* fault,
                                fault::ResilienceController* resilience) {
  return run_mac(/*joint=*/true, n_aps, n_clients, n_streams, link_state,
                 params, fault, resilience);
}

}  // namespace jmb::net
