#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace {

bool is_root(Layer layer) {
  return layer == Layer::kSetup || layer == Layer::kUnit ||
         layer == Layer::kEpoch;
}

bool is_high_rate_leaf(Layer layer) {
  return layer == Layer::kNetLinkState || layer == Layer::kTrafficDrain ||
         layer == Layer::kTrafficSelect;
}

/// Span ids unique across tracers: thread id in the high bits, kept well
/// under 2^53 so JSON readers hold them exactly.
std::uint64_t span_id(std::uint32_t tid, std::int64_t idx) {
  return idx < 0 ? 0
                 : (static_cast<std::uint64_t>(tid) << 32) +
                       static_cast<std::uint64_t>(idx) + 1;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSetup: return "setup";
    case Layer::kUnit: return "unit";
    case Layer::kEpoch: return "epoch";
    case Layer::kChanLinkGains: return "chan.link_gains";
    case Layer::kCoreChannelSet: return "core.channel_set";
    case Layer::kCorePrecode: return "core.precode";
    case Layer::kCoreSinr: return "core.sinr";
    case Layer::kNetMac: return "net.mac";
    case Layer::kNetLinkState: return "net.link_state";
    case Layer::kTrafficDrain: return "traffic.drain";
    case Layer::kTrafficSelect: return "traffic.select";
    case Layer::kPhyBuildSymbols: return "phy.build_symbols";
    case Layer::kEngineMeasure: return "engine.measure";
    case Layer::kEnginePrecode: return "engine.precode";
    case Layer::kEngineSynthesis: return "engine.synthesis";
    case Layer::kEnginePropagate: return "engine.propagate";
    case Layer::kEngineDecode: return "engine.decode";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::begin(Layer layer, std::uint64_t flow) {
  Open o;
  o.layer = layer;
  if (is_root(layer)) leaf_kept_.fill(0);
  const auto li = static_cast<std::size_t>(layer);
  const bool keep = spans_.size() < kMaxSpans &&
                    (!is_high_rate_leaf(layer) ||
                     leaf_kept_[li]++ < kLeafSpansPerRoot);
  if (keep) {
    o.span = static_cast<std::int64_t>(spans_.size());
    Span s;
    s.layer = layer;
    s.flow = stack_.empty() ? flow : 0;
    s.parent = stack_.empty() ? -1 : stack_.back().span;
    spans_.push_back(s);
  } else if (spans_.size() >= kMaxSpans) {
    ++dropped_;
  }
  stack_.push_back(o);
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  stack_.back().start_ns = now_ns();
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - o.start_ns;
  LayerTotals& tot = totals_[static_cast<std::size_t>(o.layer)];
  tot.total_ns += dur;
  tot.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  ++tot.calls;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.span >= 0) {
    Span& s = spans_[static_cast<std::size_t>(o.span)];
    s.start_ns = o.start_ns;
    s.end_ns = t;
  }
}

void Tracer::append_events(std::string& out, std::uint64_t t0_ns,
                           bool& first) const {
  char buf[384];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = static_cast<double>(s.start_ns - t0_ns) / 1e3;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    // Only a work item's root span carries its flow id, so trace_stats'
    // per-item latency is the root span and nested time is not counted
    // twice.
    char flow[48] = "";
    if (s.parent < 0 && s.flow != 0) {
      std::snprintf(flow, sizeof flow, "\"flow\":%" PRIu64 ",", s.flow);
    }
    const int n = std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
        ",\"args\":{%s\"span\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
        first ? "" : ",", layer_name(s.layer), ts_us, dur_us, tid_, flow,
        span_id(tid_, static_cast<std::int64_t>(i)), span_id(tid_, s.parent));
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    first = false;
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Tracer>& tracers,
                        std::uint64_t t0_ns) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer& t : tracers) t.append_events(out, t0_ns, first);
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
