// Shared types of the remus benchmark: options, per-pass reports, sample
// statistics and process measurements. See README.md in this directory for
// the workloads and the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock_type::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal length of the measured phase (loopback_read sizes its fixed
  /// work to it) or of the round loop (sim workloads).
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for this run's WAL directories; removed at exit.
  std::filesystem::path work_dir;
};

/// What one pass of a workload measured. `e2e` and `layer` are keyed by the
/// metric names of BENCHMARK.json; `counts` are the deterministic counts
/// that must repeat exactly between an untraced and a traced pass.
struct report {
  bool correct = true;
  std::string failure;  // first violation, empty when correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> counts;

  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample. Sorts `v`.
double percentile(std::vector<double>& v, double q);
/// Median of a copy of `v`.
double median(std::vector<double> v);

/// Peak resident set size of this process since it started or since the
/// last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Restarts the peak that peak_rss_mb() reports at the current RSS.
void reset_peak_rss();
/// CPU time consumed by this process so far (all threads), in seconds.
double cpu_seconds();
/// CPU time consumed by the calling thread so far, in seconds.
double thread_cpu_seconds();

report run_loopback_read(const options& opt, bool traced);
report run_sim_kv(const options& opt, bool traced);
report run_sim_fuzz(const options& opt, bool traced);

}  // namespace perfbench
