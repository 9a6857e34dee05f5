#include "report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string to_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                report.attempted, report.failed);
  out += buf;
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // JSON has no NaN or infinity; a metric without data reads 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
