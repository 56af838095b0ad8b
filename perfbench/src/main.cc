// Lifecycle benchmark entry point:
//
//   lipstick_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A table of
// the same numbers goes to stderr. A run with a failed operation or check
// is not correct: it reports only what it measured and exits 1. Scratch files live under
// .bench_build/work/ in the working directory; a traced run writes its
// Chrome trace to .bench_build/traces/.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/str_util.h"
#include "harness.h"

namespace {

using perfbench::Options;

struct WorkloadEntry {
  const char* name;
  perfbench::WorkloadFn run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"track_dealership", perfbench::RunTrackDealership},
    {"query_arctic", perfbench::RunQueryArctic},
    {"serve_dealership", perfbench::RunServeDealership},
};

int Usage() {
  std::fprintf(stderr,
               "usage: lipstick_perfbench --workload <track_dealership|"
               "query_arctic|serve_dealership> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return Usage();
    }
  }
  perfbench::WorkloadFn run = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload == w.name) run = w.run;
  }
  if (run == nullptr || !have_seed || !have_seconds || !have_trace ||
      argc % 2 != 1) {
    return Usage();
  }
  options.work_dir = lipstick::StrCat(".bench_build/work/", options.workload,
                                      "-", getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (!ec && options.trace) {
    options.trace_path = lipstick::StrCat(
        ".bench_build/traces/", options.workload, "-seed", options.seed,
        ".json");
    std::filesystem::create_directories(".bench_build/traces", ec);
  }
  if (ec) {
    std::fprintf(stderr, "lipstick_perfbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  perfbench::Report report;
  perfbench::MetricValues values;
  run(options, &report, &values);
  std::filesystem::remove_all(options.work_dir, ec);

  // Every workload measures every end-to-end metric unless it stopped early.
  for (const perfbench::MetricDef& def : perfbench::EndToEndMetrics()) {
    if (report.correct() && !options.trace && values.count(def.name) == 0) {
      report.Check(false, lipstick::StrCat(def.name, " is measured"));
    }
  }
  const bool complete = report.correct();
  const auto& defs = options.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  for (const perfbench::MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it != values.end()) {
      report.Metric(def.name, it->second, def.unit);
    } else if (complete) {
      report.Metric(def.name, 0, def.unit);  // a layer this workload skips
    }
  }
  std::fprintf(stderr, "%s (seed %llu, %s):\n%s", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "untraced", report.Table().c_str());
  if (options.trace) {
    std::fprintf(stderr, "  trace written to %s\n", options.trace_path.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
