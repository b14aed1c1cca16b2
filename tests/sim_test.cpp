// Unit tests for the simulation substrate: network model, disk model, and
// the single-shard fault-plan generators (the event queue has its own
// suite, event_queue_test).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/disk_model.h"
#include "sim/network_model.h"
#include "sim/scenario.h"

namespace remus::sim {
namespace {

TEST(NetworkModel, ChargesBaseDelayAndSerialization) {
  network_config cfg;
  cfg.base_delay = 100'000;
  cfg.jitter = 0;
  cfg.bandwidth_bps = 1'000'000;  // 1 MB/s => 1000 bytes take 1 ms
  network_model net(cfg, rng(1));
  const auto ds = net.route(0, process_id{0}, {process_id{1}}, 1000, 0, 1, 1);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].deliver_at, 100'000 + 1'000'000);
}

TEST(NetworkModel, MulticastSerializedOnce) {
  network_config cfg;
  cfg.base_delay = 100'000;
  cfg.jitter = 0;
  cfg.bandwidth_bps = 1'000'000;
  network_model net(cfg, rng(1));
  const auto ds = net.route(0, process_id{0},
                            {process_id{1}, process_id{2}, process_id{3}}, 1000, 0, 1, 1);
  ASSERT_EQ(ds.size(), 3u);
  for (const auto& d : ds) EXPECT_EQ(d.deliver_at, 1'100'000);  // not 3x
}

TEST(NetworkModel, LoopbackIsFast) {
  network_config cfg;
  cfg.base_delay = 100'000;
  cfg.jitter = 0;
  cfg.loopback_delay = 10'000;
  network_model net(cfg, rng(1));
  const auto ds = net.route(0, process_id{2}, {process_id{2}}, 8, 0, 1, 1);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].deliver_at, 10'000);
}

TEST(NetworkModel, DropsAreFairLossy) {
  network_config cfg;
  cfg.drop_probability = 0.5;
  cfg.jitter = 0;
  network_model net(cfg, rng(7));
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    delivered += static_cast<int>(
        net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).size());
  }
  EXPECT_GT(delivered, 800);  // not all dropped
  EXPECT_LT(delivered, 1200);  // roughly half
}

TEST(NetworkModel, DuplicatesHappen) {
  network_config cfg;
  cfg.duplicate_probability = 0.5;
  cfg.jitter = 0;
  network_model net(cfg, rng(7));
  std::size_t copies = 0;
  for (int i = 0; i < 1000; ++i) {
    copies += net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).size();
  }
  EXPECT_GT(copies, 1300u);
  EXPECT_LT(copies, 1700u);
}

TEST(NetworkModel, CutLinkDropsEverything) {
  network_config cfg;
  cfg.jitter = 0;
  network_model net(cfg, rng(1));
  net.cut_link(process_id{0}, process_id{1});
  EXPECT_TRUE(net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).empty());
  // Reverse direction unaffected.
  EXPECT_EQ(net.route(0, process_id{1}, {process_id{0}}, 8, 0, 1, 1).size(), 1u);
  net.restore_link(process_id{0}, process_id{1});
  EXPECT_EQ(net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).size(), 1u);
}

TEST(NetworkModel, CutPairSeversBothDirections) {
  network_config cfg;
  cfg.jitter = 0;
  network_model net(cfg, rng(1));
  net.cut_pair(process_id{0}, process_id{1});
  EXPECT_TRUE(net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).empty());
  EXPECT_TRUE(net.route(0, process_id{1}, {process_id{0}}, 8, 0, 1, 1).empty());
  // Uninvolved links unaffected.
  EXPECT_EQ(net.route(0, process_id{0}, {process_id{2}}, 8, 0, 1, 1).size(), 1u);
  net.restore_pair(process_id{0}, process_id{1});
  EXPECT_EQ(net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).size(), 1u);
  EXPECT_EQ(net.route(0, process_id{1}, {process_id{0}}, 8, 0, 1, 1).size(), 1u);
}

TEST(NetworkModel, PartitionSeversExactlyCrossGroupPairs) {
  network_config cfg;
  cfg.jitter = 0;
  network_model net(cfg, rng(1));
  // {0, 1} | {2, 3, 4}: every cross-group pair dead both ways, every
  // intra-group pair alive.
  net.partition({{process_id{0}, process_id{1}},
                 {process_id{2}, process_id{3}, process_id{4}}});
  const auto delivered = [&](std::uint32_t a, std::uint32_t b) {
    return !net.route(0, process_id{a}, {process_id{b}}, 8, 0, 1, 1).empty();
  };
  for (std::uint32_t a = 0; a < 5; ++a) {
    for (std::uint32_t b = 0; b < 5; ++b) {
      if (a == b) continue;
      const bool same_side = (a < 2) == (b < 2);
      EXPECT_EQ(delivered(a, b), same_side) << a << " -> " << b;
    }
  }
  net.restore_all_links();
  for (std::uint32_t a = 0; a < 5; ++a) {
    for (std::uint32_t b = 0; b < 5; ++b) {
      if (a != b) EXPECT_TRUE(delivered(a, b)) << a << " -> " << b;
    }
  }
}

TEST(NetworkModel, FilterControlsDeliveries) {
  network_config cfg;
  cfg.jitter = 0;
  cfg.base_delay = 100;
  network_model net(cfg, rng(1));
  net.set_filter([](const packet_info& p) {
    filter_verdict v;
    if (p.to == process_id{1}) v.drop = true;
    if (p.to == process_id{2}) v.deliver_at = 999;
    return v;
  });
  const auto ds = net.route(0, process_id{0},
                            {process_id{1}, process_id{2}, process_id{3}}, 8, 0, 1, 1);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].to, process_id{2});
  EXPECT_EQ(ds[0].deliver_at, 999);
  EXPECT_EQ(ds[1].to, process_id{3});
  EXPECT_EQ(ds[1].deliver_at, 100 + 8 * 80);  // model-chosen
  net.clear_filter();
  EXPECT_EQ(net.route(0, process_id{0}, {process_id{1}}, 8, 0, 1, 1).size(), 1u);
}

TEST(DiskModel, ChargesLatencyPlusBandwidth) {
  disk_config cfg;
  cfg.base_latency = 200'000;
  cfg.bandwidth_bps = 1'000'000;  // 1 MB/s
  disk_model d(cfg);
  EXPECT_EQ(d.issue(0, 0), 200'000);
  EXPECT_EQ(d.issue(1'000'000, 1000), 1'000'000 + 200'000 + 1'000'000);
}

TEST(DiskModel, OverlappingRequestsQueueFifo) {
  disk_config cfg;
  cfg.base_latency = 100;
  cfg.bandwidth_bps = 0;
  disk_model d(cfg);
  EXPECT_EQ(d.issue(0, 8), 100);
  EXPECT_EQ(d.issue(0, 8), 200);  // second waits for the first
  EXPECT_EQ(d.issue(50, 8), 300);
  EXPECT_EQ(d.issue(1000, 8), 1100);  // idle gap resets
}

scenario_event fault(time_ns at, scenario_kind kind, std::uint32_t p) {
  scenario_event e;
  e.at = at;
  e.kind = kind;
  e.target = process_id{p};
  return e;
}

TEST(FaultPlan, WellFormedAlternation) {
  scenario_plan p;
  p.events = {fault(10, scenario_kind::crash, 0), fault(20, scenario_kind::recover, 0),
              fault(30, scenario_kind::crash, 0), fault(40, scenario_kind::recover, 0)};
  EXPECT_TRUE(p.well_formed());
}

TEST(FaultPlan, DetectsDoubleCrash) {
  scenario_plan p;
  p.events = {fault(10, scenario_kind::crash, 0), fault(20, scenario_kind::crash, 0),
              fault(30, scenario_kind::recover, 0)};
  EXPECT_FALSE(p.well_formed());
}

TEST(FaultPlan, DetectsEndStateDown) {
  // Alternation holds, but process 1 stays down after the last event: the
  // eventually-correct-majority tail is missing.
  scenario_plan p;
  p.events = {fault(10, scenario_kind::crash, 1)};
  EXPECT_FALSE(p.well_formed());
  p.events.push_back(fault(20, scenario_kind::recover, 1));
  EXPECT_TRUE(p.well_formed());
}

TEST(FaultPlan, RandomPlansAreWellFormed) {
  rng r(3);
  for (int i = 0; i < 50; ++i) {
    random_plan_config cfg;
    cfg.n = 5;
    cfg.crashes = 6;
    cfg.horizon = 1'000'000;
    cfg.min_down = 1000;
    cfg.max_down = 100'000;
    const scenario_plan p = make_random_plan(cfg, r);
    EXPECT_TRUE(p.well_formed());
    EXPECT_EQ(p.shards, 1u);
    EXPECT_EQ(p.n, cfg.n);
    // One crash_recover unit per crash/recover pair.
    EXPECT_EQ(p.unit_count() * 2, p.events.size());
    for (const scenario_event& e : p.events) {
      EXPECT_EQ(e.family, fault_family::crash_recover);
    }
  }
}

TEST(FaultPlan, MinorityOnlyPlansKeepMajorityUp) {
  rng r(3);
  random_plan_config cfg;
  cfg.n = 5;
  cfg.crashes = 30;
  cfg.horizon = 1'000'000;
  cfg.min_down = 50'000;
  cfg.max_down = 200'000;
  cfg.allow_majority_crash = false;
  for (int trial = 0; trial < 20; ++trial) {
    const scenario_plan p = make_random_plan(cfg, r);
    // Replay: at no instant may 3+ of 5 be down.
    std::vector<bool> down(cfg.n, false);
    for (const auto& e : p.events) {
      down[e.target.index] = (e.kind == scenario_kind::crash);
      EXPECT_LE(std::count(down.begin(), down.end(), true), 2);
    }
  }
}

TEST(FaultPlan, MinimizeShrinksRandomPlanToOneUnit) {
  rng r(5);
  random_plan_config cfg;
  cfg.n = 5;
  cfg.crashes = 12;
  cfg.horizon = 1'000'000;
  cfg.min_down = 1000;
  cfg.max_down = 50'000;
  const scenario_plan p = make_random_plan(cfg, r);
  const auto crashes_p2 = [](const scenario_plan& c) {
    return std::any_of(c.events.begin(), c.events.end(), [](const scenario_event& e) {
      return e.kind == scenario_kind::crash && e.target == process_id{2};
    });
  };
  ASSERT_TRUE(crashes_p2(p));
  ASSERT_GT(p.unit_count(), 1u);
  const scenario_plan m = minimize_plan(p, crashes_p2);
  EXPECT_TRUE(m.well_formed());
  EXPECT_EQ(m.unit_count(), 1u);
  ASSERT_EQ(m.events.size(), 2u);
  EXPECT_EQ(m.events[0].target, process_id{2});
}

TEST(FaultPlan, BlackoutCrashesEveryone) {
  const scenario_plan p = make_blackout_plan(4, 100, 50);
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.events.size(), 8u);
  EXPECT_EQ(p.unit_count(), 1u);  // one storm, one minimization unit
  for (const scenario_event& e : p.events) EXPECT_EQ(e.family, fault_family::blackout);
}

TEST(FaultPlan, SkewedBlackoutStaggersRecoveries) {
  // All crash at the same instant; process i recovers at down + i * skew —
  // the paper's "all crash at once" corner with clock-skewed restarts.
  const scenario_plan p = make_blackout_plan(4, 100, 50, 7);
  EXPECT_TRUE(p.well_formed());
  ASSERT_EQ(p.events.size(), 8u);
  for (const scenario_event& e : p.events) {
    if (e.kind == scenario_kind::crash) {
      EXPECT_EQ(e.at, 100);
    } else {
      EXPECT_EQ(e.at, 150 + 7 * static_cast<time_ns>(e.target.index));
    }
  }
}

}  // namespace
}  // namespace remus::sim
