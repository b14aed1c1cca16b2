// sim_fuzz: a fixed seeded campaign of adversarial scenarios, generated with
// the recipe of tools/fuzz_scenarios (every fault family, WAL over
// memory_media, leases and migrations), each run through
// core::run_scenario(spec, 1), which checks per-key atomicity and tag order.
//
// The tool biases each plan by the coverage of the runs before it, but that
// bias reads only the plan-derived family counts, so the whole campaign can
// be generated before it runs (setup) and is identical to the tool's: the
// same --seed gives the same digest as `fuzz_scenarios --seed S --runs N`.
// A run repeats rounds of setup + campaign until --seconds have passed;
// every round must reproduce the first round's campaign, digest and coverage.
//
// Scenarios run on min(4, nproc) threads of a sim::threaded_driver, one
// scenario per index; the digest and coverage are folded in campaign order
// afterwards. On one thread the campaign rate followed the speed of the
// core it ran on, which on a shared host changes by a third for seconds at
// a time; over four cores those swings average out.
#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/scenario_runner.h"
#include "sim/driver.h"
#include "sim/scenario.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace remus;
using core::scenario_outcome;
using core::scenario_spec;

constexpr std::uint32_t kScenarios = 1000;  // the fuzzer's default campaign

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) { return fnv1a(h, &v, sizeof(v)); }

/// The campaign digest of tools/fuzz_scenarios: spec, merged history and
/// migration schedule of every run.
std::uint64_t digest_run(std::uint64_t h, const scenario_spec& spec,
                         const scenario_outcome& out) {
  const std::string enc = spec.encode();
  h = fnv1a(h, enc.data(), enc.size());
  for (const history::event& e : out.history) {
    h = fold_u64(h, static_cast<std::uint64_t>(e.kind));
    h = fold_u64(h, e.p.index);
    h = fold_u64(h, static_cast<std::uint64_t>(e.at));
    h = fold_u64(h, e.reg);
    h = fnv1a(h, e.v.data.data(), e.v.data.size());
  }
  for (const auto& me : out.migration_log) {
    h = fold_u64(h, me.reg);
    h = fold_u64(h, me.from_shard);
    h = fold_u64(h, me.to_shard);
    h = fold_u64(h, static_cast<std::uint64_t>(me.at));
    h = fold_u64(h, static_cast<std::uint64_t>(me.why));
  }
  return h;
}

/// tools/fuzz_scenarios' make_spec, without bug injection. Copied with the
/// digest above, so that a change to the tool cannot change this workload.
scenario_spec make_spec(std::uint32_t run, rng& r, const sim::scenario_coverage& campaign,
                        std::vector<double>& plan_us) {
  sim::adversarial_config acfg;
  acfg.shards = 1 + static_cast<std::uint32_t>(r.next_below(2));
  acfg.n = (run % 7 == 6) ? 5 : 3;
  acfg.units = 3 + static_cast<std::uint32_t>(r.next_below(4));
  acfg.horizon = 6'000'000;
  acfg.min_down = 200'000;
  acfg.max_down = 2'000'000;
  acfg.recovery_skew = 400'000;
  acfg.gray_max_delay = 1'000'000;
  if (acfg.shards == 1) {
    acfg.weights[static_cast<std::size_t>(sim::fault_family::migration)] = 1.5;
  }
  scenario_spec spec;
  const std::int64_t t0 = now_ns();
  {
    scoped_span sp(span_kind::plan);
    spec.plan = sim::make_adversarial_plan(acfg, r, &campaign);
  }
  plan_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
  spec.key_count = 4 + static_cast<std::uint32_t>(r.next_below(8));
  spec.ops = 40 + static_cast<std::uint32_t>(r.next_below(40));
  spec.read_fraction = 0.5;
  spec.zipf_theta = r.chance(0.3) ? 0.99 : 0.0;
  spec.batch_size = r.chance(0.25) ? 3 : 1;
  spec.mean_gap = 200'000;
  spec.workload_seed = r.next_u64();
  spec.cluster_seed = r.next_u64();
  spec.policy = r.chance(0.5) ? 'p' : 't';
  return spec;
}

std::vector<scenario_spec> make_campaign(std::uint64_t seed, std::vector<double>& plan_us) {
  rng campaign_rng(seed);
  sim::scenario_coverage explored;
  std::vector<scenario_spec> specs;
  specs.reserve(kScenarios);
  for (std::uint32_t i = 0; i < kScenarios; ++i) {
    rng r = campaign_rng.fork();
    specs.push_back(make_spec(i, r, explored, plan_us));
    sim::accumulate_plan_coverage(specs.back().plan, explored);
  }
  return specs;
}

}  // namespace

report run_sim_fuzz(const options& opt, bool traced) {
  report rep;
  if (traced) tracer::start();

  const std::unique_ptr<sim::shard_driver> pool =
      sim::make_shard_driver(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::vector<scenario_spec> specs;
  std::vector<scenario_outcome> outs;
  std::vector<double> round_us, fastest_us;
  std::vector<double> setup, plan_us, rate, wall_rate, round_p50_us, run_us;
  const std::int64_t t0 = now_ns();
  do {
    // Setup: every round generates the campaign again, and every copy must
    // match the first. A setup takes about 2 ms, so the fastest of setups
    // spread over the run is steadier than the fastest of a burst.
    const std::int64_t g0 = now_ns();
    std::vector<scenario_spec> again = make_campaign(opt.seed, plan_us);
    setup.push_back(seconds_since(g0));
    if (specs.empty()) {
      specs = std::move(again);
      outs.resize(specs.size());
      round_us.resize(specs.size());
      fastest_us.assign(specs.size(), std::numeric_limits<double>::infinity());
    } else if (again != specs) {
      rep.fail("sim_fuzz: campaign generation is not deterministic");
    }

    const double cpu0 = cpu_seconds();
    const std::int64_t r0 = now_ns();
    pool->run_indexed(static_cast<std::uint32_t>(specs.size()), [&](std::uint32_t i) {
      const double s0 = thread_cpu_seconds();
      scoped_span sp(span_kind::scenario_run);
      outs[i] = core::run_scenario(specs[i], 1);
      round_us[i] = (thread_cpu_seconds() - s0) * 1e6;
    });
    rate.push_back(static_cast<double>(specs.size()) / (cpu_seconds() - cpu0));
    wall_rate.push_back(static_cast<double>(specs.size()) / seconds_since(r0));
    round_p50_us.push_back(median(round_us));
    run_us.insert(run_us.end(), round_us.begin(), round_us.end());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      fastest_us[i] = std::min(fastest_us[i], round_us[i]);
    }

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    sim::scenario_coverage cov;
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const scenario_outcome& out = outs[i];
      ++rep.attempted;
      if (!out.ok()) {
        ++rep.failed;
        rep.fail("sim_fuzz: scenario violated: " + out.failure + "\nREPRO " + specs[i].encode());
      }
      cov.merge(out.coverage);
      completed += out.completed_ops;
      digest = digest_run(digest, specs[i], out);
    }

    std::map<std::string, double> counts;
    counts["scenario.ops_per_scenario"] =
        static_cast<double>(completed) / static_cast<double>(specs.size());
    counts["scenario.digest"] = static_cast<double>(digest & ((1ULL << 48) - 1));
    counts["cov.adoptions"] = static_cast<double>(cov.adoptions);
    counts["cov.retransmits"] = static_cast<double>(cov.retransmits);
    counts["cov.recovery_finish_writes"] = static_cast<double>(cov.recovery_finish_writes);
    counts["cov.handoffs"] =
        static_cast<double>(cov.handoff_writes + cov.handoff_drains + cov.handoff_writebacks);
    counts["cov.lease_grants"] = static_cast<double>(cov.lease_grants);
    if (rate.size() == 1) {
      rep.counts = counts;
      std::printf("sim_fuzz: %zu scenarios, digest %016llx\n", specs.size(),
                  static_cast<unsigned long long>(digest));
    } else if (counts != rep.counts) {
      rep.fail("sim_fuzz: a round's digest or coverage differs from the first round's");
    }
  } while (rep.correct && seconds_since(t0) < opt.seconds);
  if (traced) (void)tracer::stop();

  std::printf("per round: scenarios per cpu s, median cpu us, scenarios per wall s");
  for (std::size_t i = 0; i < rate.size(); ++i) {
    std::printf(" %.1f,%.0f,%.1f", rate[i], round_p50_us[i], wall_rate[i]);
  }
  std::printf("\n");
  // The fastest setup and the favourable quartile of the rounds, in CPU
  // time, as in sim_kv. A scenario's time follows the speed of the core it
  // ran on, so latency_us is the median over the campaign of each
  // scenario's fastest run.
  rep.e2e["setup_s"] = std::ranges::min(setup);
  rep.e2e["ops_per_cpu_s"] = percentile(rate, 0.75);
  rep.e2e["latency_us"] = median(fastest_us);
  rep.e2e["peak_rss_mb"] = peak_rss_mb();

  auto& L = rep.layer;
  L = rep.counts;
  L["wall.ops_per_s"] = percentile(wall_rate, 0.75);
  L["scenario.plan_us_p50"] = percentile(plan_us, 0.5);
  L["scenario.run_ms_p50"] = percentile(run_us, 0.5) / 1000.0;
  L["scenario.run_ms_p99"] = percentile(run_us, 0.99) / 1000.0;
  return rep;
}

}  // namespace perfbench
