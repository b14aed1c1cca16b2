// remus_perfbench: runs one workload of the remus benchmark and prints its
// metrics. See README.md in this directory; run.py builds and invokes it.
//
//   remus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--commit ID]
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced pass, then a traced pass with the decorators
// installed, and reports the per-layer metrics of the traced pass plus the
// tracing overhead on every end-to-end metric; the two passes' deterministic
// counts must be identical. The last line of stdout is the JSON result; the
// exit status is 0 only when every check passed.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  // VmHWM, unlike getrusage's ru_maxrss, restarts at reset_peak_rss().
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // both are in KiB
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench

namespace {

using namespace perfbench;

struct metric_def {
  const char* name;
  const char* unit;
};

// The names, units and order of BENCHMARK.json.
constexpr metric_def kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"ops_per_cpu_s", "1/s"},
    {"latency_us", "us"},
};

constexpr metric_def kPerLayer[] = {
    {"media.fsyncs_per_op", "1/op"},
    {"media.fsync_us_p50", "us"},
    {"media.fsync_us_p99", "us"},
    {"media.bytes_per_op", "B/op"},
    {"media.snapshots", "count"},
    {"media.snapshot_ms_total", "ms"},
    {"wal.appends_per_op", "1/op"},
    {"wal.append_us_p50", "us"},
    {"wal.self_us_p50", "us"},
    {"recovery.total_ms", "ms"},
    {"recovery.reopen_ms", "ms"},
    {"recovery.protocol_ms", "ms"},
    {"recovery.replay_bytes", "B"},
    {"recovery.frames_replayed", "count"},
    {"node.op_us_p50", "us"},
    {"node.dispatch_per_op", "1/op"},
    {"node.dispatch_us_p50", "us"},
    {"node.dispatch_self_us_p50", "us"},
    {"node.busy_frac_max", "ratio"},
    {"transport.frames_per_op", "1/op"},
    {"transport.bytes_per_op", "B/op"},
    {"transport.send_us_p50", "us"},
    {"transport.drop_frac", "ratio"},
    {"round.query_us_p50", "us"},
    {"round.update_us_p50", "us"},
    {"client.read_samples", "count"},
    {"client.read_p50_us", "us"},
    {"client.read_p90_us", "us"},
    {"client.read_p99_us", "us"},
    {"client.read_p999_us", "us"},
    {"client.write_samples", "count"},
    {"client.write_p50_us", "us"},
    {"client.write_p90_us", "us"},
    {"client.write_p99_us", "us"},
    {"client.write_p999_us", "us"},
    {"client.failed_frac", "ratio"},
    {"wall.ops_per_s", "1/s"},
    {"sim.run_s", "s"},
    {"sim.events_per_op", "1/op"},
    {"sim.events_per_s", "1/s"},
    {"sim.cpu_per_wall", "ratio"},
    {"sim.vops_per_vsec", "1/s"},
    {"proto.msgs_per_op", "1/op"},
    {"proto.net_bytes_per_op", "B/op"},
    {"proto.round_trips_per_op", "1/op"},
    {"proto.causal_logs_per_write", "1/op"},
    {"proto.logs_per_op", "1/op"},
    {"history.check_s", "s"},
    {"history.atomicity_s", "s"},
    {"history.tag_order_s", "s"},
    {"history.keys_checked", "count"},
    {"history.us_per_key", "us"},
    {"scenario.plan_us_p50", "us"},
    {"scenario.run_ms_p50", "ms"},
    {"scenario.run_ms_p99", "ms"},
    {"scenario.ops_per_scenario", "count"},
    {"scenario.digest", "id"},
    {"cov.adoptions", "count"},
    {"cov.retransmits", "count"},
    {"cov.recovery_finish_writes", "count"},
    {"cov.handoffs", "count"},
    {"cov.lease_grants", "count"},
    {"accounting.write_residual_frac", "ratio"},
    {"accounting.read_residual_frac", "ratio"},
    {"trace.overhead_setup_s", "ratio"},
    {"trace.overhead_peak_rss_mb", "ratio"},
    {"trace.overhead_ops_per_cpu_s", "ratio"},
    {"trace.overhead_latency_us", "ratio"},
};

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::string filesystem_of(const std::filesystem::path& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  const char* workload = arg_value(argc, argv, "--workload");
  const char* seed = arg_value(argc, argv, "--seed");
  const char* seconds = arg_value(argc, argv, "--seconds");
  const char* trace = arg_value(argc, argv, "--trace");
  const char* work_dir = arg_value(argc, argv, "--work-dir");
  const char* commit = arg_value(argc, argv, "--commit");
  if (workload == nullptr || seed == nullptr || seconds == nullptr || trace == nullptr ||
      work_dir == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR\n"
                 "          [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  opt.workload = workload;
  opt.seed = std::strtoull(seed, nullptr, 10);
  opt.seconds = std::strtod(seconds, nullptr);
  opt.trace = std::strcmp(trace, "1") == 0;
  opt.work_dir = work_dir;

  report (*run)(const options&, bool) = nullptr;
  if (opt.workload == "loopback_read") run = run_loopback_read;
  if (opt.workload == "sim_kv") run = run_sim_kv;
  if (opt.workload == "sim_fuzz") run = run_sim_fuzz;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  utsname un{};
  ::uname(&un);
  std::printf("host: nproc=%u kernel=%s wal_fs=%s fsync=on build=%s commit=%s\n",
              std::thread::hardware_concurrency(), un.release,
              filesystem_of(opt.work_dir).c_str(), PERFBENCH_BUILD_TYPE,
              commit != nullptr ? commit : "unknown");
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);

  report out;
  try {
    out = run(opt, false);
    if (opt.trace) {
      reset_peak_rss();
      const report traced = run(opt, true);
      if (traced.counts != out.counts) {
        for (const auto& [name, v] : traced.counts) {
          const auto it = out.counts.find(name);
          if (it == out.counts.end() || it->second != v) {
            std::fprintf(stderr, "deterministic count %s: untraced %s, traced %s\n",
                         name.c_str(),
                         it == out.counts.end() ? "-" : json_number(it->second).c_str(),
                         json_number(v).c_str());
          }
        }
        out.fail("deterministic counts differ between the untraced and the traced pass");
      }
      for (const auto& [name, v] : traced.e2e) {
        const double base = out.e2e[name];
        out.layer["trace.overhead_" + name] = base != 0 ? v / base - 1.0 : 0;
        std::printf("  traced %-12s %.6g (untraced %.6g)\n", name.c_str(), v, base);
      }
      for (const auto& [name, v] : traced.layer) out.layer[name] = v;
      out.attempted += traced.attempted;
      out.failed += traced.failed;
      if (!traced.correct) out.fail(traced.failure);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  const auto emit = [&](const metric_def& m, const std::map<std::string, double>& from) {
    const auto it = from.find(m.name);
    const double v = it == from.end() ? 0.0 : it->second;
    std::printf("  %-32s %16.6g %s\n", m.name, v, m.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const metric_def& m : kPerLayer) emit(m, out.layer);
  } else {
    for (const metric_def& m : kEndToEnd) emit(m, out.e2e);
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  if (!out.correct) std::fprintf(stderr, "CHECK FAILED: %s\n", out.failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return out.correct ? 0 : 1;
}
