// perfbench: the repository benchmark binary.
//
//   perfbench --workload <pcg|pcg-block|serve|paper> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Each workload sets itself up several times (the median is setup_s),
// warms up, then runs its operation back to back for --seconds and checks
// every answer. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// Workloads and metrics are described in perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pcg|pcg-block|serve|paper> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void print_json(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Outcome o;
  try {
    if (args.workload == "pcg") {
      o = run_pcg(args);
    } else if (args.workload == "pcg-block") {
      o = run_pcg_block(args);
    } else if (args.workload == "serve") {
      o = run_serve(args);
    } else if (args.workload == "paper") {
      o = run_paper(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (o.attempted == 0 || o.setup_s.empty()) {
    std::fprintf(stderr, "perfbench: %s completed no operation\n",
                 args.workload.c_str());
    return 1;
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = o.layers;
  } else {
    metrics = {
        {"op_p10_ms", quantile(o.op_ms, 0.1), "ms"},
        {"setup_s", median(o.setup_s), "s"},
    };
  }
  std::printf("%s: %llu ops in %.2f s, %llu failed, op p10/p50/p90 "
              "%.3f/%.3f/%.3f ms, setup %.4f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(o.attempted), o.window_s,
              static_cast<unsigned long long>(o.failed), quantile(o.op_ms, 0.1),
              median(o.op_ms), quantile(o.op_ms, 0.9), median(o.setup_s));
  print_json(o, metrics);
  return 0;
}
