// jmb_perfbench — the repository benchmark. See perfbench/README.md.
//
//   jmb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--workers K] [--size full|tiny] [--trace-out PATH]
//
// Exit codes: 0 ran (the result line says whether outputs were correct);
// 1 internal error; 2 usage error (unknown flag, missing or malformed
// value, bad seed); 3 unknown workload; 5 the trace file could not be
// written.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner.h"

namespace {

constexpr int kExitUsage = 2;
constexpr std::size_t kMaxWorkers = 4;

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload mac_saturated|mac_overload|phy_samples "
               "--seed N --seconds S --trace 0|1 [--workers K] "
               "[--size full|tiny] [--trace-out PATH]\n",
               prog);
}

/// Digits only, no sign, no trailing text, no overflow.
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_seconds(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(v) || v <= 0.0 ||
      v > 3600.0) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "jmb_perfbench";
  perfbench::RunConfig cfg;
  cfg.workers = std::min(kMaxWorkers, perfbench::available_cpus());
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s: '%s' needs a value\n", prog, arg.c_str());
      usage(prog);
      return kExitUsage;
    }
    bool ok = true;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      ok = parse_u64(value, cfg.seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = parse_seconds(value, cfg.seconds);
      have_seconds = ok;
    } else if (arg == "--trace") {
      ok = value == "0" || value == "1";
      cfg.trace = value == "1";
      have_trace = ok;
    } else if (arg == "--workers") {
      std::uint64_t w = 0;
      ok = parse_u64(value, w) && w >= 1 && w <= 64;
      cfg.workers = static_cast<std::size_t>(w);
    } else if (arg == "--size") {
      ok = value == "full" || value == "tiny";
      cfg.size = value == "tiny" ? perfbench::Size::kTiny
                                 : perfbench::Size::kFull;
    } else if (arg == "--trace-out") {
      ok = !value.empty();
      cfg.trace_out = value;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, arg.c_str());
      usage(prog);
      return kExitUsage;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", prog, value.c_str(),
                   arg.c_str());
      usage(prog);
      return kExitUsage;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr, "%s: --workload, --seed, --seconds and --trace are "
                         "required\n", prog);
    usage(prog);
    return kExitUsage;
  }
  try {
    return perfbench::run_benchmark(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: internal error: %s\n", prog, e.what());
    return 1;
  }
}
