// tasti_perfbench: runs one workload of the end-to-end TASTI benchmark and
// prints its metrics. Normally started through run.py, which builds it:
//
//   tasti_perfbench --workload session --seed 1 --seconds 36 --trace 0
//
// Output: a table of every metric with its unit and notes (tail percentile
// and sample count, guarantee hit rate, replay identity), a "host:" line
// recording the host and thread counts, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit code 2 means a usage error.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>

#include "workload.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: tasti_perfbench --workload session|serve_write|"
               "serve_remote --seed N --seconds S --trace 0|1\n"
               "         [--out-dir DIR] [--commit SHA] [--source-digest HEX]\n");
  return 2;
}

// Shortest text that reads back as the same double.
std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return args->workload == "session" || args->workload == "serve_write" ||
         args->workload == "serve_remote";
}

void PrintTable(const Args& args, const RunResult& result) {
  std::printf("# workload %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced run (per-layer metrics)"
                         : "untraced run (end-to-end metrics)");
  std::vector<Metric> rows = result.end_to_end;
  rows.push_back({"failed_frac",
                  static_cast<double>(result.failed) /
                      static_cast<double>(std::max<size_t>(result.attempted, 1)),
                  "ratio"});
  for (const Metric& metric : rows) {
    std::printf("%-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const Metric& metric : result.per_layer) {
    std::printf("%-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("FAILED CHECK: %s\n", problem.c_str());
    std::fprintf(stderr, "FAILED CHECK: %s\n", problem.c_str());
  }
}

void PrintResultLine(const Args& args, const RunResult& result) {
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::PerLayerCatalog()) {
      add(name, perfbench::MetricValue(result.per_layer, name), unit);
    }
  } else {
    for (const std::string& name : perfbench::EndToEndCatalog()) {
      for (const Metric& metric : result.end_to_end) {
        if (metric.name == name) add(name, metric.value, metric.unit);
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out_dir.c_str(),
                 error.message().c_str());
    return 1;
  }
  const RunResult result =
      args.workload == "session"
          ? perfbench::RunSessionWorkload(args)
          : perfbench::RunServeWorkload(args, args.workload == "serve_remote");
  PrintTable(args, result);
  std::printf("host: %s\n", perfbench::HostJson(args, result.threads).c_str());
  PrintResultLine(args, result);
  return 0;
}
