// Shared plumbing of the benchmark's workloads: run configuration, the
// outcome every workload returns, clocks, quantiles and the small timing
// helpers the per-layer probes use.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

inline double ms_since(Clock::time_point begin) {
  return ms_between(begin, Clock::now());
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string out_dir;  // trace files and the serve socket live here
  unsigned nproc = 1;   // CPUs this process may run on
};

/// What one workload run reports. `metrics` holds values by metric name;
/// units live in main.cpp's metric table so a workload cannot report a
/// metric under the wrong unit.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // the first few failure descriptions

  /// Count one failed op: the run is then reported as incorrect.
  void fail(const std::string& why);
  /// Mark the run incorrect without counting an op (a gate outside the
  /// timed ops, such as a reference ranking mismatch).
  void gate(bool ok, const std::string& why);
};

Outcome run_cold_query(const RunConfig& config);
Outcome run_long_flow(const RunConfig& config);
Outcome run_serve_mixed(const RunConfig& config);
Outcome run_rank(const RunConfig& config);

/// Quantile by linear interpolation between closest ranks (Python's
/// statistics.quantiles(method="inclusive") convention). 0 for no values.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB (getrusage).
double peak_rss_mb();

/// `value` with all the digits a double round-trips through (%.17g).
std::string full_digits(double value);

/// Relative difference |a - b| / |b| (absolute when b is 0).
double relative_error(double a, double b);

/// Median over runs of `setup` of its duration in seconds — the setup_s
/// metric. Runs `setup` at least `reps` times and until the runs add up to
/// half a second, so that a set-up of a few milliseconds is not timed inside
/// one short fast or slow phase of a shared host. Each call must leave the
/// workload ready for its first op; the state of the last call is the one
/// the timed ops use.
double median_setup_s(int reps, const std::function<void()>& setup);

/// Keeps a probe's result alive so the timed work cannot be optimised away.
void consume(double value);

/// Time `fn` in batches until at least `min_ms` have elapsed, five times, and
/// return the median nanoseconds per call. For the micro-probes of single
/// layers; `fn` must return a value that depends on its work.
template <typename Fn>
double ns_per_call(Fn&& fn, double min_ms = 10.0) {
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    double sink = 0.0;
    std::uint64_t calls = 0;
    const Clock::time_point begin = Clock::now();
    double elapsed = 0.0;
    do {
      for (int i = 0; i < 16; ++i) sink += fn();
      calls += 16;
      elapsed = ms_since(begin);
    } while (elapsed < min_ms);
    consume(sink);
    samples.push_back(elapsed * 1e6 / static_cast<double>(calls));
  }
  return median(std::move(samples));
}

/// The central op latency every workload reports: the mean of the ops left
/// when the fastest and the slowest tenth (n / 10 each) are cut off; 0 for
/// no ops. On a shared host op latencies fall into fast and slow modes
/// whose mix changes from run to run; a median jumps between the modes as
/// the mix passes one half, this mean moves in proportion to the mix, and
/// the trim keeps stalls and the rare heavy request out of it.
double central_ms(std::vector<double> op_ms);

/// Record the latency summary every workload reports end to end:
/// op_trimmed_mean_ms (central_ms), op_tail_ms (at quantile `tail_q`) and
/// throughput_per_s (`work_items` completed in `elapsed_s`).
void report_latency(Outcome& outcome, const std::vector<double>& op_ms,
                    double tail_q, double work_items, double elapsed_s);

}  // namespace perfbench
