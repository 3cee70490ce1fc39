// Claim gate over a seed sweep of jmb.bench_result.v1 artifacts.
//
//   claim_check --band=NAME:LO:HI [--band=...] RUN.json [RUN.json ...]
//
// Each artifact is one seed of the same bench. For every band the tool
// reads the physics gauge NAME from each artifact, pools the seeds by
// their median, and requires LO <= pooled <= HI. It prints one line per
// band with the per-seed values, so a failing gate shows how far off the
// physics moved.
//
// Exit codes:
//   0  every band holds;
//   1  a band is violated, or an artifact lacks one of the gauges;
//   2  usage, IO or parse errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"

namespace {

using jmb::obs::JsonValue;

struct Band {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
};

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return *end == '\0';
}

/// NAME:LO:HI, split at the last two colons (names may contain '/').
bool parse_band(std::string_view spec, Band& band) {
  const std::size_t c2 = spec.rfind(':');
  if (c2 == std::string_view::npos || c2 == 0) return false;
  const std::size_t c1 = spec.rfind(':', c2 - 1);
  if (c1 == std::string_view::npos || c1 == 0) return false;
  band.name = std::string(spec.substr(0, c1));
  return parse_double(std::string(spec.substr(c1 + 1, c2 - c1 - 1)),
                      band.lo) &&
         parse_double(std::string(spec.substr(c2 + 1)), band.hi) &&
         band.lo <= band.hi;
}

/// The value of gauge `name` in an artifact, or nullptr.
const JsonValue* gauge_value(const JsonValue& doc, const std::string& name) {
  const JsonValue* metrics = doc.get("metrics");
  if (metrics == nullptr || !metrics->is_array()) return nullptr;
  for (const JsonValue& m : metrics->as_array()) {
    const JsonValue* n = m.get("name");
    const JsonValue* kind = m.get("kind");
    if (n == nullptr || !n->is_string() || n->as_string() != name) continue;
    if (kind == nullptr || !kind->is_string() || kind->as_string() != "gauge") {
      return nullptr;
    }
    const JsonValue* v = m.get("value");
    return v != nullptr && v->is_number() ? v : nullptr;
  }
  return nullptr;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Band> bands;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--band=", 0) == 0) {
      Band band;
      if (!parse_band(arg.substr(7), band)) {
        std::fprintf(stderr, "error: malformed band '%s'\n", argv[i]);
        return 2;
      }
      bands.push_back(std::move(band));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (bands.empty() || files.empty()) {
    std::fprintf(stderr,
                 "usage: claim_check --band=NAME:LO:HI [--band=...] "
                 "RUN.json [RUN.json ...]\n");
    return 2;
  }

  std::vector<JsonValue> docs;
  for (const char* path : files) {
    std::string text;
    if (!jmb::obs::read_text_file(path, text)) return 2;
    std::string err;
    JsonValue doc = jmb::obs::parse_json(text, &err);
    if (doc.is_null()) {
      std::fprintf(stderr, "error: %s: %s\n", path, err.c_str());
      return 2;
    }
    docs.push_back(std::move(doc));
  }

  int violations = 0;
  for (const Band& band : bands) {
    std::vector<double> values;
    std::string per_seed;
    for (std::size_t f = 0; f < docs.size(); ++f) {
      const JsonValue* v = gauge_value(docs[f], band.name);
      if (v == nullptr) {
        std::fprintf(stderr, "FAIL: %s: no gauge '%s'\n", files[f],
                     band.name.c_str());
        ++violations;
        continue;
      }
      values.push_back(v->as_number());
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.4g", per_seed.empty() ? "" : " ",
                    v->as_number());
      per_seed += buf;
    }
    if (values.size() != docs.size()) continue;
    const double pooled = median_of(values);
    const bool ok = pooled >= band.lo && pooled <= band.hi;
    if (!ok) ++violations;
    std::printf("%s %s: median %.4g over %zu seeds [%s], band [%g, %g]\n",
                ok ? "PASS" : "FAIL", band.name.c_str(), pooled,
                values.size(), per_seed.c_str(), band.lo, band.hi);
  }
  return violations == 0 ? 0 : 1;
}
