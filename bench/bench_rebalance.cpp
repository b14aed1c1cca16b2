// Live shard rebalancing: keyed throughput before / during / after growing
// the ring S -> S+1 under continuous load, plus the migration window's
// shape (moved-key fraction, window length, handoff mix).
//
// The scenario is the one ROADMAP's rebalancing item asks for: a 2-shard
// router saturated by an open-loop keyed workload grows to 3 shards *while
// serving*. Consistent hashing moves ~1/(S+1) of the keys (here ~1/3), each
// migrated online through the dual-ring window (reads-from-old with
// cross-shard write-back, writes hand off at quiet points, a background
// drain moves the rest). The bench measures:
//
//   * keyed ops per *virtual* second in each phase — pre at S=2, during the
//     window, post at S=3 (deterministic capacity numbers, like
//     bench_shard_scaling's);
//   * the moved-key fraction (ring diff over the key universe) and how many
//     keys each handoff cause migrated (first-touched write vs drain);
//   * the window length in virtual time (begin_add_shard .. drained);
//   * failed operations during the window — the acceptance criterion is
//     exactly zero: growing the fleet must be invisible to clients.
//
// Every run verifies per-key atomicity and per-key tag order on the merged
// two-epoch history — scale numbers from a reconfiguration that broke
// linearizability are worthless. Hard gates (exit 1): any atomicity
// violation, any failed op during the window, or post-rebalance capacity at
// S=3 below pre-rebalance capacity at S=2 (virtual-time numbers are
// deterministic, so this cannot flake). --smoke shrinks the phases for CI;
// --json[=PATH] emits BENCH_rebalance.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "sim/kv_workload.h"

namespace {

using namespace remus;
using namespace remus::bench;

using clock_type = std::chrono::steady_clock;

struct phase_result {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // not completed or dropped
  double ops_per_vsec = 0;
  double makespan_ms = 0;
};

phase_result measure_phase(const core::shard_router& r,
                           const std::vector<core::shard_router::op_handle>& handles) {
  phase_result p;
  time_ns first_invoke = std::numeric_limits<time_ns>::max();
  time_ns last_reply = 0;
  for (const auto h : handles) {
    const auto& res = r.result(h);
    if (!res.completed || res.dropped) {
      p.failed += 1;
      continue;
    }
    p.completed += 1;
    first_invoke = std::min(first_invoke, res.invoked_at);
    last_reply = std::max(last_reply, res.completed_at);
  }
  if (p.completed > 0 && last_reply > first_invoke) {
    p.makespan_ms = to_ms(last_reply - first_invoke);
    p.ops_per_vsec = 1e9 * static_cast<double>(p.completed) /
                     static_cast<double>(last_reply - first_invoke);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const std::uint32_t phase_ops = smoke ? 600 : 3000;
  const std::uint32_t key_count = 256;

  core::shard_router_config cfg;
  cfg.shards = 2;
  cfg.base = paper_testbed(proto::persistent_policy(), 3, /*seed=*/1);
  core::shard_router router(cfg);

  // Moved fraction from the ring delta alone (the router will compute the
  // same delta when the window opens).
  const core::hash_ring after = router.ring().grow(2);
  const auto delta = core::hash_ring::diff(router.ring(), after);
  std::uint32_t moved_in_universe = 0;
  for (register_id reg = 0; reg < key_count; ++reg) {
    if (delta.moved(reg)) ++moved_in_universe;
  }
  const double moved_fraction = static_cast<double>(moved_in_universe) / key_count;

  sim::kv_workload_config wc;
  wc.n = cfg.base.n;
  wc.key_count = key_count;
  wc.read_fraction = 0.5;
  wc.ops = phase_ops;
  wc.mean_gap = 100_us;  // open loop, faster than 2 shards absorb
  wc.seed = 1;

  auto submit = [&router](const std::vector<sim::kv_op>& ops,
                          std::vector<core::shard_router::op_handle>& hs) {
    for (const sim::kv_op& op : ops) {
      if (op.is_read) {
        hs.push_back(router.submit_read(op.p, op.entries[0].reg, op.at));
      } else {
        hs.push_back(
            router.submit_write(op.p, op.entries[0].reg, op.entries[0].val, op.at));
      }
    }
  };

  const auto t0 = clock_type::now();

  // ---- Phase A: steady state at S=2 ----
  std::vector<core::shard_router::op_handle> pre_handles;
  submit(sim::make_kv_workload(wc), pre_handles);
  router.run_until_idle(2'000'000'000);

  // ---- Phase B: grow 2 -> 3 under load ----
  const time_ns window_begin = router.now();
  router.begin_add_shard();
  wc.start_at = router.now();
  wc.value_base = 10'000'000;
  wc.seed = 2;
  std::vector<core::shard_router::op_handle> during_handles;
  submit(sim::make_kv_workload(wc), during_handles);
  router.run_until_idle(2'000'000'000);
  const bool drained = router.migration_drained();
  const std::size_t moved_keys = router.moved_key_count();
  const std::size_t migrated_keys = router.migrated_key_count();
  std::size_t by_write = 0;
  std::size_t by_drain = 0;
  std::size_t writebacks = 0;
  // The window closes at the last migration action (the drain's final
  // handoff or write-back) — phase B's workload keeps running well past it,
  // so router.now() after the run would overstate the window.
  time_ns window_end = window_begin;
  for (const auto& ev : router.migration_log()) {
    window_end = std::max(window_end, ev.at);
    switch (ev.why) {
      case core::shard_router::migration_event::cause::write_handoff: ++by_write; break;
      case core::shard_router::migration_event::cause::drain: ++by_drain; break;
      case core::shard_router::migration_event::cause::read_writeback: ++writebacks; break;
      case core::shard_router::migration_event::cause::lease_drop: break;  // bookkeeping, not a key move
    }
  }
  if (drained) router.finish_add_shard();

  // ---- Phase C: steady state at S=3 ----
  wc.start_at = router.now();
  wc.value_base = 20'000'000;
  wc.seed = 3;
  std::vector<core::shard_router::op_handle> post_handles;
  submit(sim::make_kv_workload(wc), post_handles);
  router.run_until_idle(2'000'000'000);

  const double wall_ms =
      std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();

  const phase_result pre = measure_phase(router, pre_handles);
  const phase_result during = measure_phase(router, during_handles);
  const phase_result post = measure_phase(router, post_handles);

  // ---- Verification (the acceptance oracle) ----
  const auto verdict = history::check_persistent_atomicity_per_key(router.events());
  const auto tags = history::check_tag_order_per_key(router.tagged_operations());
  if (!verdict.ok) {
    std::fprintf(stderr, "ATOMICITY VIOLATION: %s\n", verdict.explanation.c_str());
  }
  if (!tags.ok) {
    std::fprintf(stderr, "TAG ORDER VIOLATION: %s\n", tags.explanation.c_str());
  }

  std::printf("== Live rebalancing S=2 -> 3 (%s, %u ops/phase, %u keys, n=3 "
              "persistent/shard) ==\n",
              smoke ? "smoke" : "full", phase_ops, key_count);
  metrics::table t({"phase", "keyed ops/vsec", "makespan ms", "completed", "failed"});
  t.add_row({"pre  (S=2)", metrics::table::num(pre.ops_per_vsec, 0),
             metrics::table::num(pre.makespan_ms, 1),
             metrics::table::num(static_cast<double>(pre.completed), 0),
             metrics::table::num(static_cast<double>(pre.failed), 0)});
  t.add_row({"during window", metrics::table::num(during.ops_per_vsec, 0),
             metrics::table::num(during.makespan_ms, 1),
             metrics::table::num(static_cast<double>(during.completed), 0),
             metrics::table::num(static_cast<double>(during.failed), 0)});
  t.add_row({"post (S=3)", metrics::table::num(post.ops_per_vsec, 0),
             metrics::table::num(post.makespan_ms, 1),
             metrics::table::num(static_cast<double>(post.completed), 0),
             metrics::table::num(static_cast<double>(post.failed), 0)});
  std::printf("%s", t.render().c_str());
  std::printf(
      "moved keys: %zu enumerated (%.1f%% of the %u-key universe; consistent "
      "hashing predicts ~%.1f%%), %zu handed off by first-touched write, %zu "
      "by the background drain, %zu read write-backs\n"
      "window: %.2f ms virtual (begin_add_shard .. drained), wall %.0f ms total\n"
      "merged two-epoch history: atomic per key: %s, tag order per key: %s\n\n",
      moved_keys, 100.0 * moved_fraction, key_count,
      100.0 / (router.shard_count()), by_write, by_drain, writebacks,
      to_ms(window_end - window_begin), wall_ms, verdict.ok ? "yes" : "NO",
      tags.ok ? "yes" : "NO");

  json_report rep("rebalance");
  rep.set("mode", smoke ? "smoke" : "full");
  rep.set("ops_per_phase", static_cast<double>(phase_ops));
  rep.set("hardware_concurrency",
          static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  rep.set("key_count", static_cast<double>(key_count));
  rep.set("pre_ops_per_vsec", pre.ops_per_vsec);
  rep.set("during_ops_per_vsec", during.ops_per_vsec);
  rep.set("post_ops_per_vsec", post.ops_per_vsec);
  rep.set("failed_during_window", static_cast<double>(during.failed));
  rep.set("failed_total",
          static_cast<double>(pre.failed + during.failed + post.failed));
  rep.set("moved_key_fraction", moved_fraction);
  rep.set("moved_keys_enumerated", static_cast<double>(moved_keys));
  rep.set("migrated_keys", static_cast<double>(migrated_keys));
  rep.set("migrated_by_write_handoff", static_cast<double>(by_write));
  rep.set("migrated_by_drain", static_cast<double>(by_drain));
  rep.set("read_writebacks", static_cast<double>(writebacks));
  rep.set("window_ms_virtual", to_ms(window_end - window_begin));
  rep.set("drained", drained ? 1.0 : 0.0);
  rep.set("atomic_per_key", verdict.ok ? 1.0 : 0.0);
  rep.set("tag_order_per_key", tags.ok ? 1.0 : 0.0);
  rep.set("keys_checked", static_cast<double>(verdict.keys_checked));
  rep.set("post_over_pre", pre.ops_per_vsec > 0 ? post.ops_per_vsec / pre.ops_per_vsec : 0);
  rep.write_if_requested(argc, argv);

  // ---- Hard gates ----
  if (!verdict.ok || !tags.ok) {
    std::fprintf(stderr, "FAIL: merged history not atomic per key\n");
    return 1;
  }
  if (!drained) {
    std::fprintf(stderr, "FAIL: migration window did not drain\n");
    return 1;
  }
  if (during.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu operations failed during the window\n",
                 static_cast<unsigned long long>(during.failed));
    return 1;
  }
  if (post.ops_per_vsec < pre.ops_per_vsec) {
    std::fprintf(stderr,
                 "FAIL: post-rebalance capacity (%.0f/vsec at S=3) below "
                 "pre-rebalance (%.0f/vsec at S=2)\n",
                 post.ops_per_vsec, pre.ops_per_vsec);
    return 1;
  }
  return 0;
}
