// Property-based tests.
//
// 1. Randomized end-to-end runs: random workloads + random crash/recovery
//    plans + lossy networks, over every algorithm; every recorded history
//    must satisfy the algorithm's consistency criterion, and per-operation
//    causal-log counts must respect the paper's tight bounds.
// 2. Checker cross-validation: random small histories (valid and invalid
//    alike) where the polynomial constraint-graph checker must agree with
//    the exhaustive brute-force checker.
#include <gtest/gtest.h>

#include <set>

#include "core/cluster.h"
#include "history/atomicity.h"
#include "history/brute_force.h"
#include "history/keyed.h"
#include "history/wellformed.h"
#include "proto/policy.h"
#include "sim/kv_workload.h"

namespace remus::core {
namespace {

struct run_params {
  const char* policy_name;
  std::uint64_t seed;
};

void PrintTo(const run_params& p, std::ostream* os) {
  *os << p.policy_name << "/seed" << p.seed;
}

proto::protocol_policy policy_by_name(const std::string& name) {
  if (name == "crash-stop") return proto::crash_stop_policy();
  if (name == "persistent") return proto::persistent_policy();
  if (name == "transient") return proto::transient_policy();
  throw std::runtime_error("unknown policy " + name);
}

class RandomRuns : public ::testing::TestWithParam<run_params> {};

TEST_P(RandomRuns, HistorySatisfiesCriterionUnderFaultsAndLoss) {
  const auto [policy_name, seed] = GetParam();
  rng r(seed);

  cluster_config cfg;
  cfg.n = 3 + 2 * static_cast<std::uint32_t>(r.next_below(2));  // 3 or 5
  cfg.policy = policy_by_name(policy_name);
  cfg.policy.retransmit_delay = 5_ms;
  cfg.net.drop_probability = r.chance(0.5) ? 0.15 : 0.0;
  cfg.net.duplicate_probability = 0.05;
  cfg.seed = seed;
  cluster c(cfg);

  const bool crash_recovery = !cfg.policy.crash_stop;
  const time_ns horizon = 150_ms;

  // Random workload: ~30 ops at random times from random processes.
  std::uint32_t next_value = 1;
  std::vector<cluster::op_handle> handles;
  for (int i = 0; i < 30; ++i) {
    const process_id p{static_cast<std::uint32_t>(r.next_below(cfg.n))};
    const time_ns at = r.next_in(0, horizon);
    if (r.chance(0.5)) {
      handles.push_back(c.submit_write(p, value_of_u32(next_value++), at));
    } else {
      handles.push_back(c.submit_read(p, at));
    }
  }

  // Random fault plan.
  sim::random_plan_config fp;
  fp.n = cfg.n;
  fp.crashes = crash_recovery ? 5 : 1;
  fp.horizon = horizon;
  fp.min_down = 1_ms;
  fp.max_down = 30_ms;
  fp.allow_majority_crash = crash_recovery;
  if (!crash_recovery) {
    // Crash-stop: only crashes (no recovery), at most a minority.
    const process_id victim{cfg.n - 1};
    c.submit_crash(victim, r.next_in(0, horizon));
  } else {
    const auto plan = sim::make_random_plan(fp, r);
    ASSERT_TRUE(plan.well_formed());
    c.apply(plan);
  }

  ASSERT_TRUE(c.run_until_idle(20'000'000)) << "run did not quiesce";

  const auto h = c.events();
  ASSERT_TRUE(history::check_well_formed(h).ok);

  const auto verdict = cfg.policy.recovery_counter
                           ? history::check_transient_atomicity(h)
                           : history::check_persistent_atomicity(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation << "\n" << history::to_string(h);

  // The paper's Lemma 1/2/3 conditions, checked on the applied tags.
  const auto order = history::check_tag_order(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;

  // Per-op invariants: the paper's log bounds are never exceeded, and both
  // emulations keep the baseline's 2 round-trips.
  for (const auto hnd : handles) {
    const auto& res = c.result(hnd);
    if (!res.completed) continue;
    if (cfg.policy.crash_stop) {
      EXPECT_EQ(res.sample.causal_logs, 0u);
    } else if (res.is_read) {
      EXPECT_LE(res.sample.causal_logs, 1u);
    } else if (cfg.policy.writer_prelog) {
      EXPECT_LE(res.sample.causal_logs, 2u);
    } else {
      EXPECT_LE(res.sample.causal_logs, 1u);
    }
    EXPECT_EQ(res.sample.round_trips, 2u);
  }
}

std::vector<run_params> make_grid() {
  std::vector<run_params> grid;
  for (const char* pol : {"crash-stop", "persistent", "transient"}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) grid.push_back({pol, seed});
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, RandomRuns, ::testing::ValuesIn(make_grid()),
                         [](const auto& info) {
                           std::string name = info.param.policy_name;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name + "_seed" + std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Blackout sweeps: everyone crashes at once, at a random moment.
// ---------------------------------------------------------------------------

class BlackoutRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlackoutRuns, ValueAndAtomicitySurviveTotalFailure) {
  const std::uint64_t seed = GetParam();
  rng r(seed);
  for (auto pol : {proto::persistent_policy(), proto::transient_policy()}) {
    cluster_config cfg;
    cfg.n = 5;
    cfg.policy = pol;
    cfg.policy.retransmit_delay = 5_ms;
    cfg.seed = seed;
    cluster c(cfg);

    std::uint32_t v = 1;
    for (int i = 0; i < 6; ++i) {
      c.submit_write(process_id{static_cast<std::uint32_t>(r.next_below(5))},
                     value_of_u32(v++), r.next_in(0, 40_ms));
    }
    c.apply(sim::make_blackout_plan(5, r.next_in(5_ms, 60_ms), 10_ms));
    ASSERT_TRUE(c.run_until_idle(20'000'000));

    // The system must still be usable and consistent afterwards.
    c.write(process_id{0}, value_of_u32(9999));
    EXPECT_EQ(c.read(process_id{3}), value_of_u32(9999));

    const auto h = c.events();
    const auto verdict = pol.recovery_counter ? history::check_transient_atomicity(h)
                                              : history::check_persistent_atomicity(h);
    EXPECT_TRUE(verdict.ok) << pol.name << " seed " << seed << "\n"
                            << verdict.explanation << "\n" << history::to_string(h);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlackoutRuns, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Checker cross-validation on abstract random histories.
// ---------------------------------------------------------------------------

history::history_log random_history(rng& r, std::uint32_t procs, int steps) {
  using history::event;
  using history::event_kind;
  history::history_log h;
  struct pstate {
    bool up = true;
    bool busy = false;
    bool busy_read = false;
  };
  std::vector<pstate> st(procs);
  std::uint32_t next_write = 1;
  std::vector<std::uint32_t> written;  // values reads may return
  time_ns t = 0;

  for (int i = 0; i < steps; ++i) {
    const std::uint32_t p = static_cast<std::uint32_t>(r.next_below(procs));
    auto& s = st[p];
    t += 1000;
    const auto roll = r.next_below(10);
    if (!s.up) {
      if (roll < 6) {
        h.push_back(event{event_kind::recover, process_id{p}, {}, t});
        s.up = true;
        s.busy = false;
      }
      continue;
    }
    if (s.busy) {
      if (roll < 2) {
        h.push_back(event{event_kind::crash, process_id{p}, {}, t});
        s.up = false;
      } else if (s.busy_read) {
        // Reads return a random written value (often wrong: that's the point).
        value v = initial_value();
        if (!written.empty() && r.chance(0.8)) {
          v = value_of_u32(written[r.next_below(written.size())]);
        }
        h.push_back(event{event_kind::reply_read, process_id{p}, v, t});
        s.busy = false;
      } else {
        h.push_back(event{event_kind::reply_write, process_id{p}, {}, t});
        s.busy = false;
      }
      continue;
    }
    if (roll < 2) {
      h.push_back(event{event_kind::crash, process_id{p}, {}, t});
      s.up = false;
    } else if (roll < 6) {
      const std::uint32_t v = next_write++;
      written.push_back(v);
      h.push_back(event{event_kind::invoke_write, process_id{p}, value_of_u32(v), t});
      s.busy = true;
      s.busy_read = false;
    } else {
      h.push_back(event{event_kind::invoke_read, process_id{p}, {}, t});
      s.busy = true;
      s.busy_read = true;
    }
  }
  return h;
}

TEST(CheckerCrossValidation, FastCheckerAgreesWithBruteForce) {
  rng r(2024);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto h = random_history(r, 1 + static_cast<std::uint32_t>(r.next_below(3)),
                                  8 + static_cast<int>(r.next_below(8)));
    if (!history::check_well_formed(h).ok) continue;
    for (const auto c : {history::criterion::persistent, history::criterion::transient}) {
      const auto fast = history::check_atomicity(h, c);
      const auto slow = history::check_atomicity_brute_force(h, c);
      if (fast.usage_error || slow.usage_error) continue;
      EXPECT_EQ(fast.ok, slow.ok)
          << "criterion=" << (c == history::criterion::persistent ? "persistent" : "transient")
          << "\nfast: " << fast.explanation << "\nslow: " << slow.explanation << "\n"
          << history::to_string(h);
      (fast.ok ? accepted : rejected) += 1;
    }
  }
  // The generator must exercise both outcomes heavily.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
}

// Keyed variant of the generator: every operation targets a random register
// of a small set, and reads return a random value *written on that
// register* (usually — sometimes any written value, so cross-register
// confusion and plain non-atomicity both appear).
history::history_log random_keyed_history(rng& r, std::uint32_t procs,
                                          std::uint32_t keys, int steps) {
  using history::event;
  using history::event_kind;
  history::history_log h;
  struct pstate {
    bool up = true;
    bool busy = false;
    bool busy_read = false;
    register_id reg = default_register;
  };
  std::vector<pstate> st(procs);
  std::uint32_t next_write = 1;
  struct written_value {
    register_id reg;
    std::uint32_t v;
  };
  std::vector<written_value> written;
  time_ns t = 0;

  for (int i = 0; i < steps; ++i) {
    const std::uint32_t p = static_cast<std::uint32_t>(r.next_below(procs));
    auto& s = st[p];
    t += 1000;
    const auto roll = r.next_below(10);
    if (!s.up) {
      if (roll < 6) {
        h.push_back(event{event_kind::recover, process_id{p}, {}, t});
        s.up = true;
        s.busy = false;
      }
      continue;
    }
    if (s.busy) {
      if (roll < 2) {
        h.push_back(event{event_kind::crash, process_id{p}, {}, t});
        s.up = false;
      } else if (s.busy_read) {
        value v = initial_value();
        if (!written.empty() && r.chance(0.85)) {
          // Mostly same-register values; occasionally any register's value
          // (a guaranteed violation the per-key checker must catch).
          std::vector<std::uint32_t> candidates;
          if (r.chance(0.9)) {
            for (const auto& w : written) {
              if (w.reg == s.reg) candidates.push_back(w.v);
            }
          }
          if (candidates.empty()) {
            candidates.push_back(written[r.next_below(written.size())].v);
          }
          v = value_of_u32(candidates[r.next_below(candidates.size())]);
        }
        h.push_back(event{event_kind::reply_read, process_id{p}, v, t, s.reg});
        s.busy = false;
      } else {
        h.push_back(event{event_kind::reply_write, process_id{p}, {}, t, s.reg});
        s.busy = false;
      }
      continue;
    }
    const auto reg = static_cast<register_id>(r.next_below(keys));
    if (roll < 2) {
      h.push_back(event{event_kind::crash, process_id{p}, {}, t});
      s.up = false;
    } else if (roll < 6) {
      const std::uint32_t v = next_write++;
      written.push_back({reg, v});
      h.push_back(event{event_kind::invoke_write, process_id{p}, value_of_u32(v), t, reg});
      s.busy = true;
      s.busy_read = false;
      s.reg = reg;
    } else {
      h.push_back(event{event_kind::invoke_read, process_id{p}, {}, t, reg});
      s.busy = true;
      s.busy_read = true;
      s.reg = reg;
    }
  }
  return h;
}

TEST(KeyedCheckerCrossValidation, PerKeyCheckerAgreesWithPerKeyBruteForce) {
  rng r(31337);
  int accepted = 0;
  int rejected = 0;
  int multi_key = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto h = random_keyed_history(
        r, 1 + static_cast<std::uint32_t>(r.next_below(3)),
        1 + static_cast<std::uint32_t>(r.next_below(3)),
        10 + static_cast<int>(r.next_below(10)));
    if (!history::check_well_formed(h).ok) continue;
    if (history::keys_of(h).size() > 1) ++multi_key;
    for (const auto c : {history::criterion::persistent, history::criterion::transient}) {
      const auto fast = history::check_atomicity_per_key(h, c);
      const auto slow = history::check_atomicity_per_key_brute_force(h, c);
      if (fast.usage_error || slow.usage_error) continue;
      EXPECT_EQ(fast.ok, slow.ok)
          << "criterion=" << (c == history::criterion::persistent ? "persistent" : "transient")
          << "\nfast: " << fast.explanation << "\nslow: " << slow.explanation << "\n"
          << history::to_string(h);
      if (!fast.ok && !slow.ok) {
        // Both reject: they must blame the same register (the first failing
        // one in ascending order, since both scan keys identically).
        EXPECT_EQ(fast.failing_key, slow.failing_key) << history::to_string(h);
      }
      (fast.ok ? accepted : rejected) += 1;
    }
  }
  // The generator must exercise both outcomes and real multi-key histories.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
  EXPECT_GT(multi_key, 100);
}

TEST(KeyedCheckerCrossValidation, ProjectionEqualsWholeOnSingleKeyHistories) {
  // On histories that only ever touch one register, the per-key composite
  // verdict must coincide with the plain checker's.
  rng r(555);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto h = random_keyed_history(
        r, 1 + static_cast<std::uint32_t>(r.next_below(3)), 1,
        8 + static_cast<int>(r.next_below(8)));
    if (!history::check_well_formed(h).ok) continue;
    for (const auto c : {history::criterion::persistent, history::criterion::transient}) {
      const auto whole = history::check_atomicity(h, c);
      const auto keyed = history::check_atomicity_per_key(h, c);
      if (whole.usage_error) continue;
      EXPECT_EQ(whole.ok, keyed.ok) << history::to_string(h);
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

// Keyed histories whose reads mostly return the latest value written to
// their register, so most projections are atomic and a violation planted by
// mutate_keyed_history() often lands on a register other than the smallest.
history::history_log mostly_atomic_keyed_history(rng& r, std::uint32_t procs,
                                                 std::uint32_t keys, int steps) {
  using history::event;
  using history::event_kind;
  history::history_log h;
  struct pstate {
    bool up = true;
    bool busy = false;
    bool busy_read = false;
    register_id reg = default_register;
  };
  std::vector<pstate> st(procs);
  std::vector<value> latest(keys);  // per register: last invoked write's value
  std::uint32_t next_write = 1;
  time_ns t = 0;
  for (int i = 0; i < steps; ++i) {
    const auto p = static_cast<std::uint32_t>(r.next_below(procs));
    auto& s = st[p];
    t += 1000;
    const auto roll = r.next_below(20);
    if (!s.up) {
      if (roll < 12) {
        h.push_back(event{event_kind::recover, process_id{p}, {}, t});
        s.up = true;
        s.busy = false;
      }
    } else if (roll == 0) {
      h.push_back(event{event_kind::crash, process_id{p}, {}, t});
      s.up = false;
    } else if (s.busy) {
      const event_kind k = s.busy_read ? event_kind::reply_read : event_kind::reply_write;
      h.push_back(event{k, process_id{p}, s.busy_read ? latest[s.reg] : value{}, t, s.reg});
      s.busy = false;
    } else {
      s.busy = true;
      s.busy_read = roll >= 10;
      s.reg = static_cast<register_id>(r.next_below(keys));
      if (s.busy_read) {
        h.push_back(event{event_kind::invoke_read, process_id{p}, {}, t, s.reg});
      } else {
        latest[s.reg] = value_of_u32(next_write++);
        h.push_back(event{event_kind::invoke_write, process_id{p}, latest[s.reg], t, s.reg});
      }
    }
  }
  return h;
}

/// Plants one defect: a read returning some other write's value (stale, from
/// another register, or ⊥), a duplicate write value, or an initial write.
void mutate_keyed_history(rng& r, history::history_log& h) {
  using history::event_kind;
  std::vector<std::size_t> reads;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i].kind == event_kind::reply_read) reads.push_back(i);
    if (h[i].kind == event_kind::invoke_write) writes.push_back(i);
  }
  if (writes.empty()) return;
  const value& some_write = h[writes[r.next_below(writes.size())]].v;
  const auto roll = r.next_below(10);
  if (roll < 7 && !reads.empty()) {
    h[reads[r.next_below(reads.size())]].v = roll == 0 ? initial_value() : some_write;
  } else if (roll < 9) {
    h[writes[r.next_below(writes.size())]].v = some_write;
  } else {
    h[writes[r.next_below(writes.size())]].v = initial_value();
  }
}

/// The definition check_atomicity_per_key must match: one projection and
/// one check_atomicity call per register, in ascending register order.
history::keyed_check_result reference_per_key(const history::history_log& h,
                                              history::criterion c) {
  history::keyed_check_result out;
  for (const register_id reg : history::keys_of(h)) {
    out.keys_checked += 1;
    const auto sub = history::check_atomicity(history::project_key(h, reg), c);
    if (sub.ok) continue;
    out.ok = false;
    out.usage_error = sub.usage_error;
    out.failing_key = reg;
    out.explanation = "register " + std::to_string(reg) + ": " + sub.explanation;
    break;
  }
  return out;
}

TEST(KeyedCheckerCrossValidation, GroupedCheckerMatchesProjectionLoop) {
  rng r(4242);
  int accepted = 0;
  int later_key = 0;  // failures on a register other than the smallest
  int usage = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto h = mostly_atomic_keyed_history(r, 2 + static_cast<std::uint32_t>(r.next_below(3)),
                                         1 + static_cast<std::uint32_t>(r.next_below(6)),
                                         20 + static_cast<int>(r.next_below(80)));
    if (trial % 3 != 0) mutate_keyed_history(r, h);
    ASSERT_TRUE(history::check_well_formed(h).ok) << history::to_string(h);
    for (const auto c : {history::criterion::persistent, history::criterion::transient}) {
      const auto want = reference_per_key(h, c);
      const auto got = history::check_atomicity_per_key(h, c);
      EXPECT_EQ(got.ok, want.ok) << history::to_string(h);
      EXPECT_EQ(got.usage_error, want.usage_error) << history::to_string(h);
      EXPECT_EQ(got.failing_key, want.failing_key) << history::to_string(h);
      EXPECT_EQ(got.keys_checked, want.keys_checked) << history::to_string(h);
      EXPECT_EQ(got.explanation, want.explanation) << history::to_string(h);
      if (want.ok) {
        ++accepted;
      } else if (want.usage_error) {
        ++usage;
      } else if (want.failing_key != history::keys_of(h).front()) {
        ++later_key;
      }
    }
  }
  // Every outcome must be well represented.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(later_key, 100);
  EXPECT_GT(usage, 50);
}

// End-to-end keyed property runs: random keyed workloads (with batches)
// under faults and loss; every register's projection must satisfy the
// policy's criterion.
class KeyedRandomRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyedRandomRuns, KeyedWorkloadUnderFaultsStaysAtomicPerKey) {
  const std::uint64_t seed = GetParam();
  rng r(seed * 31 + 7);

  cluster_config cfg;
  cfg.n = 3 + 2 * static_cast<std::uint32_t>(r.next_below(2));  // 3 or 5
  cfg.policy = r.chance(0.5) ? proto::persistent_policy() : proto::transient_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cfg.net.drop_probability = r.chance(0.5) ? 0.1 : 0.0;
  cfg.seed = seed;
  cluster c(cfg);

  sim::kv_workload_config wc;
  wc.n = cfg.n;
  wc.key_count = 1 + static_cast<std::uint32_t>(r.next_below(8));
  wc.zipf_theta = r.chance(0.5) ? 0.9 : 0.0;
  wc.read_fraction = 0.5;
  wc.batch_size = 1 + static_cast<std::uint32_t>(r.next_below(std::min(wc.key_count, 3u)));
  wc.ops = 40;
  wc.mean_gap = 1'500'000;
  wc.seed = seed;
  std::vector<proto::write_op> batch_ops;
  std::vector<register_id> batch_regs;
  for (const auto& op : sim::make_kv_workload(wc)) {
    if (op.entries.size() == 1) {
      if (op.is_read) {
        c.submit_read(op.p, op.entries[0].reg, op.at);
      } else {
        c.submit_write(op.p, op.entries[0].reg, op.entries[0].val, op.at);
      }
    } else if (op.is_read) {
      batch_regs.clear();
      for (const auto& e : op.entries) batch_regs.push_back(e.reg);
      c.submit_read_batch(op.p, batch_regs, op.at);
    } else {
      batch_ops.clear();
      for (const auto& e : op.entries) batch_ops.push_back({e.reg, e.val});
      c.submit_write_batch(op.p, batch_ops, op.at);
    }
  }

  sim::random_plan_config fp;
  fp.n = cfg.n;
  fp.crashes = 5;
  fp.horizon = 120_ms;
  fp.min_down = 1_ms;
  fp.max_down = 25_ms;
  fp.allow_majority_crash = true;
  const auto plan = sim::make_random_plan(fp, r);
  ASSERT_TRUE(plan.well_formed());
  c.apply(plan);

  ASSERT_TRUE(c.run_until_idle(20'000'000)) << "run did not quiesce";
  // Well-formedness is a per-register property here: a batched operation is
  // one overlapping operation per register at its process, so only the
  // projections alternate invoke/reply.
  const auto h = c.events();
  for (const register_id reg : history::keys_of(h)) {
    const auto wf = history::check_well_formed(history::project_key(h, reg));
    ASSERT_TRUE(wf.ok) << "register " << reg << ": " << wf.explanation;
  }
  const auto verdict = cfg.policy.recovery_counter
                           ? history::check_transient_atomicity_per_key(c.events())
                           : history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation << "\n"
                          << history::to_string(c.events());
  const auto order = history::check_tag_order_per_key(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedRandomRuns, ::testing::Range<std::uint64_t>(1, 13));

TEST(CheckerCrossValidation, PersistentImpliesTransient) {
  rng r(777);
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto h = random_history(r, 1 + static_cast<std::uint32_t>(r.next_below(3)),
                                  8 + static_cast<int>(r.next_below(10)));
    if (!history::check_well_formed(h).ok) continue;
    const auto pers = history::check_persistent_atomicity(h);
    if (pers.usage_error) continue;
    if (pers.ok) {
      const auto trans = history::check_transient_atomicity(h);
      EXPECT_TRUE(trans.ok) << "persistent atomicity must imply transient\n"
                            << history::to_string(h);
      ++checked;
    }
  }
  EXPECT_GT(checked, 30);
}

}  // namespace
}  // namespace remus::core
