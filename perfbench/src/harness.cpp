#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

void Outcome::fail(const std::string& why) {
  ++failed;
  gate(false, why);
}

void Outcome::gate(bool ok, const std::string& why) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + weight * (values[upper] - values[lower]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double central_ms(std::vector<double> op_ms) {
  std::sort(op_ms.begin(), op_ms.end());
  const std::size_t cut = op_ms.size() / 10;
  return mean(std::vector<double>(op_ms.begin() + cut, op_ms.end() - cut));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string full_digits(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double relative_error(double a, double b) {
  const double difference = std::fabs(a - b);
  return b == 0.0 ? difference : difference / std::fabs(b);
}

double median_setup_s(int reps, const std::function<void()>& setup) {
  constexpr double kMinTotalSeconds = 0.5;
  std::vector<double> seconds;
  double total = 0.0;
  while (static_cast<int>(seconds.size()) < reps || total < kMinTotalSeconds) {
    const Clock::time_point begin = Clock::now();
    setup();
    seconds.push_back(ms_since(begin) / 1e3);
    total += seconds.back();
  }
  return median(std::move(seconds));
}

void consume(double value) {
  static volatile double sink = 0.0;
  sink = sink + value;
}

void report_latency(Outcome& outcome, const std::vector<double>& op_ms,
                    double tail_q, double work_items, double elapsed_s) {
  outcome.metrics["op_trimmed_mean_ms"] = central_ms(op_ms);
  outcome.metrics["op_tail_ms"] = quantile(op_ms, tail_q);
  outcome.metrics["throughput_per_s"] =
      elapsed_s > 0.0 ? work_items / elapsed_s : 0.0;
}

}  // namespace perfbench
