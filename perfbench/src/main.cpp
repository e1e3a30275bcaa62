// sorel_perfbench: run one benchmark workload and print its result.
//
//   sorel_perfbench --workload <cold_query|long_flow|serve_mixed|rank>
//                   --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// stdout gets two lines: an environment stamp ({"stamp": {...}}) and, last,
// the result {"correct", "attempted", "failed", "metrics": {name: value}}.
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones the workload reaches, and
// the spans of the run are written to <dir>/trace-<workload>-seed<n>.json
// (Chrome trace-event JSON). BENCHMARK.json names every metric and its
// unit; perfbench/run.py checks the names and adds the units. A run whose
// outputs fail a correctness gate prints correct=false with no metrics and
// exits 1.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "sorel/json/json.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sorel_perfbench --workload "
               "<cold_query|long_flow|serve_mixed|rank> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "error: refusing to time an unoptimised build (build type '%s'); "
               "configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  RunConfig config;
  config.out_dir = ".bench_build/perfbench-out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0.0;
    } else if (flag == "--trace") {
      config.trace = std::string_view(value) == "1";
      have_trace = config.trace || std::string_view(value) == "0";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  using Runner = Outcome (*)(const RunConfig&);
  const std::map<std::string, Runner> runners = {
      {"cold_query", perfbench::run_cold_query},
      {"long_flow", perfbench::run_long_flow},
      {"serve_mixed", perfbench::run_serve_mixed},
      {"rank", perfbench::run_rank},
  };
  const auto runner = runners.find(config.workload);
  if (runner == runners.end()) return usage("unknown workload");

  // The load generator uses at most nproc threads: the process-wide
  // scheduler gets nproc - 1 workers (the calling thread is the nth) and
  // serve_mixed, whose two client threads are the load, leaves two more
  // CPUs to them. Set before anything starts the scheduler.
  config.nproc = available_cpus();
  const unsigned reserved = config.workload == "serve_mixed" ? 2 : 1;
  const unsigned workers = config.nproc > reserved ? config.nproc - reserved : 1;
  setenv("SOREL_THREADS", std::to_string(workers).c_str(), 1);

  std::error_code ignored;
  std::filesystem::create_directories(config.out_dir, ignored);

  sorel::json::Object stamp;
  stamp["workload"] = config.workload;
  stamp["seed"] = static_cast<double>(config.seed);
  stamp["seconds"] = config.seconds;
  stamp["trace"] = config.trace;
  stamp["nproc"] = config.nproc;
  stamp["scheduler_workers"] = workers;
  stamp["compiler"] = PERFBENCH_COMPILER;
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  stamp["ndebug"] = true;
#else
  stamp["ndebug"] = false;
#endif
  sorel::json::Object stamp_line;
  stamp_line["stamp"] = sorel::json::Value(std::move(stamp));
  std::printf("%s\n", sorel::json::Value(std::move(stamp_line)).dump().c_str());
  std::fflush(stdout);

  Outcome outcome;
  try {
    outcome = runner->second(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", config.workload.c_str(), e.what());
    return 1;
  }
  if (outcome.attempted == 0) outcome.gate(false, "no op completed");
  if (!config.trace) {
    outcome.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
    outcome.metrics["ok_share"] =
        static_cast<double>(outcome.attempted - outcome.failed) /
        static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  } else {
    perfbench::Tracer& tracer = perfbench::Tracer::instance();
    outcome.metrics["trace.spans"] = static_cast<double>(tracer.span_count());
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (!tracer.write_chrome_json(
            path, {{"workload", config.workload},
                   {"seed", std::to_string(config.seed)}})) {
      outcome.gate(false, "cannot write " + path);
    } else {
      std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(),
                   tracer.span_count());
    }
  }

  std::string metrics;
  if (outcome.correct) {
    for (const auto& [name, value] : outcome.metrics) {
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
                 "\": " + perfbench::full_digits(value);
    }
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "correctness: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return outcome.correct ? 0 : 1;
}
