// perfbench: the repository benchmark binary. perfbench/run.py builds it and
// forwards its own arguments plus the repository root:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --repo-root <dir>
//
// Human-readable progress goes to stderr; the last line of stdout is the
// JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "report.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --repo-root <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments must come in --name value pairs");
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace", "--repo-root"}) {
    if (!args.contains(key)) return usage((std::string("missing ") + key).c_str());
  }
  try {
    const std::uint64_t seed = std::stoull(args["--seed"]);
    const double seconds = std::stod(args["--seconds"]);
    const std::string trace = args["--trace"];
    if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");
    const std::string& root = args["--repo-root"];
    const perfbench::Workload workload = perfbench::make_workload(args["--workload"], seed, root);
    const perfbench::Report report =
        trace == "1" ? perfbench::run_traced(workload, root, seconds)
                     : perfbench::run_end_to_end(workload, root, seed, seconds);
    for (const perfbench::Metric& m : report.metrics) {
      std::fprintf(stderr, "  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", perfbench::to_json(report).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
