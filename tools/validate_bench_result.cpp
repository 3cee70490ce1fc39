// Validates a bench_result.json artifact against the checked-in schema.
//
//   validate_bench_result schemas/bench_result.schema.json out.json
//
// Exit 0 when the document conforms, 1 on validation/parse failure,
// 2 on usage/IO errors. Uses the plain-C++ validator in src/obs — no
// external JSON-Schema dependency.
#include <cstdio>
#include <string>

#include "obs/export.h"
#include "obs/json.h"

namespace {

jmb::obs::JsonValue parse_or_die(const char* path, bool& ok) {
  std::string text;
  if (!jmb::obs::read_text_file(path, text)) {
    ok = false;
    return {};
  }
  std::string err;
  jmb::obs::JsonValue v = jmb::obs::parse_json(text, &err);
  if (v.is_null() && !err.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", path, err.c_str());
    ok = false;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s SCHEMA.json DOC.json\n", argv[0]);
    return 2;
  }
  bool ok = true;
  const jmb::obs::JsonValue schema = parse_or_die(argv[1], ok);
  const jmb::obs::JsonValue doc = parse_or_die(argv[2], ok);
  if (!ok) return 2;

  const auto errors = jmb::obs::validate_schema(schema, doc);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "schema violation: %s\n", e.c_str());
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "%s: %zu schema violation(s)\n", argv[2],
                 errors.size());
    return 1;
  }
  std::printf("%s: conforms to %s\n", argv[2], argv[1]);
  return 0;
}
