// The repository benchmark's driver binary.
//
//   perfbench --workload query_mix|sync_mix --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload on the paper-scale dataspace generated at seed N,
// checks its answers, and prints its result rows (one schema for every
// metric), then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to --trace-out (when given) as Chrome
// trace JSON.
// The exit code is non-zero when any operation or correctness gate failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload query_mix|sync_mix --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               argv0);
  return 2;
}

void Print(const Report& report) {
  std::printf("{\"rows\": %s}\n", perfbench::RowsJson(report.rows).c_str());
  if (!report.counters.empty()) {
    std::string counters;
    for (const auto& [name, value] : report.counters) {
      counters += (counters.empty() ? "\"" : ", \"") +
                  perfbench::JsonEscape(name) +
                  "\": " + perfbench::JsonNumber(value);
    }
    std::printf("{\"counters\": {%s}}\n", counters.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    metrics += (metrics.empty() ? "\"" : ", \"") + perfbench::JsonEscape(name) +
               "\": {\"value\": " + perfbench::JsonNumber(metric.first) +
               ", \"unit\": \"" + perfbench::JsonEscape(metric.second) + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || options.seconds < 1) return Usage(argv[0]);

  Report report;
  report.workload = options.workload;
  int status = 0;
  if (options.workload == "query_mix") {
    status = perfbench::RunQueryMix(options, &report);
  } else if (options.workload == "sync_mix") {
    status = perfbench::RunSyncMix(options, &report);
  } else {
    return Usage(argv[0]);
  }
  const double error_rate =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) / report.attempted;
  report.rows.push_back({"error_rate", "bench", report.workload, "frac",
                         report.attempted, error_rate, error_rate, error_rate,
                         error_rate, error_rate, 0});
  Print(report);
  return status != 0 || report.failed != 0 || report.attempted == 0 ? 1 : 0;
}
