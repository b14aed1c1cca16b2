#include "sim/scenario.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace remus::sim {

const char* to_string(fault_family f) {
  switch (f) {
    case fault_family::crash_recover: return "crash_recover";
    case fault_family::blackout: return "blackout";
    case fault_family::partition: return "partition";
    case fault_family::gray_link: return "gray_link";
    case fault_family::migration: return "migration";
    case fault_family::corrupt_tail: return "corrupt_tail";
    case fault_family::lease: return "lease";
  }
  return "?";
}

void scenario_plan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const scenario_event& a, const scenario_event& b) {
                     return a.at < b.at;
                   });
}

bool scenario_plan::well_formed() const {
  if (shards == 0 || n == 0 || n > 31) return false;
  // down[s*n + p]: crash/recover alternation state.
  std::vector<bool> down(static_cast<std::size_t>(shards) * n, false);
  // Outstanding cut/gray windows per shard (healed by the shard's next heal).
  std::vector<std::uint32_t> unhealed(shards, 0);
  std::uint32_t migrations = 0;
  time_ns prev = 0;
  for (const scenario_event& e : events) {
    if (e.at < prev) return false;
    prev = e.at;
    if (e.shard >= shards) return false;
    switch (e.kind) {
      case scenario_kind::crash:
      case scenario_kind::corrupt_crash:
      case scenario_kind::recover: {
        if (!e.target.valid() || e.target.index >= n) return false;
        const std::size_t i = static_cast<std::size_t>(e.shard) * n + e.target.index;
        const bool crashing = e.kind != scenario_kind::recover;
        if (down[i] == crashing) return false;  // double crash / spurious recover
        down[i] = crashing;
        break;
      }
      case scenario_kind::cut: {
        const std::uint32_t all = (1u << n) - 1;
        if (e.group_mask == 0 || (e.group_mask & ~all) != 0 || e.group_mask == all) {
          return false;  // must isolate a non-empty proper subset
        }
        unhealed[e.shard] += 1;
        break;
      }
      case scenario_kind::gray: {
        if (!e.target.valid() || e.target.index >= n) return false;
        if (!e.peer.valid() || e.peer.index >= n) return false;
        if (e.target == e.peer) return false;
        if (e.loss < 0.0 || e.loss >= 1.0) return false;  // stay fair-lossy
        if (e.extra_delay < 0) return false;
        unhealed[e.shard] += 1;
        break;
      }
      case scenario_kind::heal:
        unhealed[e.shard] = 0;  // heals every open cut and gray of the shard
        break;
      case scenario_kind::begin_migration:
        if (++migrations > 1) return false;
        break;
    }
  }
  // The eventually-correct-majority tail: everyone up, every link clean.
  if (std::any_of(down.begin(), down.end(), [](bool d) { return d; })) return false;
  return std::all_of(unhealed.begin(), unhealed.end(),
                     [](std::uint32_t u) { return u == 0; });
}

std::size_t scenario_plan::unit_count() const {
  std::vector<std::uint32_t> units;
  units.reserve(events.size());
  for (const scenario_event& e : events) units.push_back(e.unit);
  std::sort(units.begin(), units.end());
  units.erase(std::unique(units.begin(), units.end()), units.end());
  return units.size();
}

// ---- Repro codec -------------------------------------------------------------

namespace {

std::uint64_t loss_bits(double loss) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(loss));
  std::memcpy(&bits, &loss, sizeof(bits));
  return bits;
}

double loss_from_bits(std::uint64_t bits) {
  double loss = 0.0;
  std::memcpy(&loss, &bits, sizeof(bits));
  return loss;
}

std::uint64_t parse_u64(const std::string& tok) {
  std::size_t used = 0;
  const std::uint64_t v = std::stoull(tok, &used);
  if (used != tok.size()) throw std::invalid_argument("scenario: bad number " + tok);
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

std::string encode(const scenario_plan& plan) {
  std::ostringstream os;
  os << "v1;" << plan.shards << ',' << plan.n;
  for (const scenario_event& e : plan.events) {
    os << ';' << static_cast<int>(e.kind) << ',' << e.at << ','
       << static_cast<int>(e.family) << ',' << e.unit << ',' << e.shard << ','
       << e.target.index << ',' << e.peer.index << ',' << e.group_mask << ','
       << e.extra_delay << ',' << loss_bits(e.loss);
  }
  return os.str();
}

scenario_plan decode_plan(const std::string& line) {
  const std::vector<std::string> parts = split(line, ';');
  if (parts.size() < 2 || parts[0] != "v1") {
    throw std::invalid_argument("scenario: bad repro header");
  }
  const std::vector<std::string> topo = split(parts[1], ',');
  if (topo.size() != 2) throw std::invalid_argument("scenario: bad topology");
  scenario_plan plan;
  plan.shards = static_cast<std::uint32_t>(parse_u64(topo[0]));
  plan.n = static_cast<std::uint32_t>(parse_u64(topo[1]));
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::vector<std::string> f = split(parts[i], ',');
    if (f.size() != 10) throw std::invalid_argument("scenario: bad event " + parts[i]);
    scenario_event e;
    const std::uint64_t kind = parse_u64(f[0]);
    if (kind > static_cast<std::uint64_t>(scenario_kind::corrupt_crash)) {
      throw std::invalid_argument("scenario: bad event kind");
    }
    e.kind = static_cast<scenario_kind>(kind);
    e.at = static_cast<time_ns>(parse_u64(f[1]));
    const std::uint64_t fam = parse_u64(f[2]);
    if (fam >= fault_family_count) throw std::invalid_argument("scenario: bad family");
    e.family = static_cast<fault_family>(fam);
    e.unit = static_cast<std::uint32_t>(parse_u64(f[3]));
    e.shard = static_cast<std::uint32_t>(parse_u64(f[4]));
    e.target = process_id{static_cast<std::uint32_t>(parse_u64(f[5]))};
    e.peer = process_id{static_cast<std::uint32_t>(parse_u64(f[6]))};
    e.group_mask = static_cast<std::uint32_t>(parse_u64(f[7]));
    e.extra_delay = static_cast<time_ns>(parse_u64(f[8]));
    e.loss = loss_from_bits(parse_u64(f[9]));
    plan.events.push_back(e);
  }
  return plan;
}

// ---- Coverage ----------------------------------------------------------------

void scenario_coverage::merge(const scenario_coverage& o) {
  for (std::size_t f = 0; f < fault_family_count; ++f) {
    family_events[f] += o.family_events[f];
    family_runs[f] += o.family_runs[f];
    for (std::size_t g = 0; g < fault_family_count; ++g) {
      overlap_pairs[f][g] += o.overlap_pairs[f][g];
    }
  }
  adoptions += o.adoptions;
  stale_updates += o.stale_updates;
  adopt_splits += o.adopt_splits;
  retransmits += o.retransmits;
  retransmit_trims += o.retransmit_trims;
  recovery_finish_writes += o.recovery_finish_writes;
  handoff_writes += o.handoff_writes;
  handoff_drains += o.handoff_drains;
  handoff_writebacks += o.handoff_writebacks;
  handoff_lease_drops += o.handoff_lease_drops;
  leased_read_hits += o.leased_read_hits;
  lease_grants += o.lease_grants;
  lease_invalidations += o.lease_invalidations;
  lease_expiries += o.lease_expiries;
}

std::string scenario_coverage::to_string() const {
  std::ostringstream os;
  os << "families:";
  for (std::size_t f = 0; f < fault_family_count; ++f) {
    os << ' ' << sim::to_string(static_cast<fault_family>(f)) << '='
       << family_runs[f] << '(' << family_events[f] << "ev)";
  }
  os << "\noverlaps:";
  for (std::size_t a = 0; a < fault_family_count; ++a) {
    for (std::size_t b = a; b < fault_family_count; ++b) {
      if (overlap_pairs[a][b] == 0) continue;
      os << ' ' << sim::to_string(static_cast<fault_family>(a)) << 'x'
         << sim::to_string(static_cast<fault_family>(b)) << '='
         << overlap_pairs[a][b];
    }
  }
  os << "\nbranches: adoptions=" << adoptions << " stale=" << stale_updates
     << " adopt_splits=" << adopt_splits << " retransmits=" << retransmits
     << " trims=" << retransmit_trims
     << " recovery_finish_writes=" << recovery_finish_writes
     << " handoffs(write/drain/writeback)=" << handoff_writes << '/'
     << handoff_drains << '/' << handoff_writebacks
     << " lease(grants/hits/invalidations/expiries/handoff_drops)="
     << lease_grants << '/' << leased_read_hits << '/' << lease_invalidations
     << '/' << lease_expiries << '/' << handoff_lease_drops;
  return os.str();
}

void accumulate_plan_coverage(const scenario_plan& plan, scenario_coverage& cov) {
  struct window {
    fault_family family;
    time_ns lo = 0;
    time_ns hi = 0;
  };
  std::vector<window> windows;  // one per unit: [first event, last event]
  bool seen_family[fault_family_count] = {};
  for (const scenario_event& e : plan.events) {
    cov.family_events[static_cast<std::size_t>(e.family)] += 1;
    seen_family[static_cast<std::size_t>(e.family)] = true;
  }
  // Unit windows: min/max event time per unit id.
  std::vector<std::uint32_t> unit_ids;
  for (const scenario_event& e : plan.events) unit_ids.push_back(e.unit);
  std::sort(unit_ids.begin(), unit_ids.end());
  unit_ids.erase(std::unique(unit_ids.begin(), unit_ids.end()), unit_ids.end());
  for (const std::uint32_t u : unit_ids) {
    window w{fault_family::crash_recover, 0, 0};
    bool first = true;
    for (const scenario_event& e : plan.events) {
      if (e.unit != u) continue;
      if (first) {
        w = {e.family, e.at, e.at};
        first = false;
      } else {
        w.lo = std::min(w.lo, e.at);
        w.hi = std::max(w.hi, e.at);
      }
    }
    if (!first) windows.push_back(w);
  }
  for (std::size_t f = 0; f < fault_family_count; ++f) {
    if (seen_family[f]) cov.family_runs[f] += 1;
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      if (windows[i].hi < windows[j].lo || windows[j].hi < windows[i].lo) continue;
      std::size_t a = static_cast<std::size_t>(windows[i].family);
      std::size_t b = static_cast<std::size_t>(windows[j].family);
      if (a > b) std::swap(a, b);
      cov.overlap_pairs[a][b] += 1;
    }
  }
}

// ---- Generation --------------------------------------------------------------

namespace {

scenario_event timed_event(time_ns at, scenario_kind kind, fault_family family,
                           std::uint32_t unit, std::uint32_t shard,
                           process_id target = no_process) {
  scenario_event e;
  e.at = at;
  e.kind = kind;
  e.family = family;
  e.unit = unit;
  e.shard = shard;
  e.target = target;
  return e;
}

}  // namespace

scenario_plan make_adversarial_plan(const adversarial_config& cfg, rng& r,
                                    const scenario_coverage* explored) {
  scenario_plan plan;
  plan.shards = cfg.shards;
  plan.n = cfg.n;

  // Coverage bias: deflate families the campaign already exercised a lot.
  double weights[fault_family_count];
  std::uint64_t total_runs = 0;
  if (explored != nullptr) {
    for (std::size_t f = 0; f < fault_family_count; ++f) {
      total_runs += explored->family_runs[f];
    }
  }
  for (std::size_t f = 0; f < fault_family_count; ++f) {
    weights[f] = cfg.weights[f];
    if (explored != nullptr && total_runs > 0) {
      const double share = static_cast<double>(explored->family_runs[f]) *
                           static_cast<double>(fault_family_count) /
                           static_cast<double>(total_runs);
      weights[f] /= 1.0 + share;
    }
  }
  if (cfg.n < 2) weights[static_cast<std::size_t>(fault_family::partition)] = 0;
  if (cfg.n < 2) weights[static_cast<std::size_t>(fault_family::gray_link)] = 0;

  // Per-process downtime and per-shard link-window bookkeeping keep the
  // generated plan well-formed by construction (alternation, matched heals).
  std::vector<time_ns> down_until(static_cast<std::size_t>(cfg.shards) * cfg.n, -1);
  std::vector<time_ns> link_until(cfg.shards, -1);
  bool migration_used = false;
  std::uint32_t unit = 0;

  const auto duration = [&]() -> time_ns {
    return cfg.max_down > cfg.min_down ? r.next_in(cfg.min_down, cfg.max_down)
                                       : cfg.min_down;
  };
  const auto pick_family = [&]() -> int {
    double total = 0;
    for (std::size_t f = 0; f < fault_family_count; ++f) {
      if (f == static_cast<std::size_t>(fault_family::migration) && migration_used) {
        continue;
      }
      total += weights[f];
    }
    if (total <= 0) return -1;
    double x = r.next_unit() * total;
    for (std::size_t f = 0; f < fault_family_count; ++f) {
      if (f == static_cast<std::size_t>(fault_family::migration) && migration_used) {
        continue;
      }
      x -= weights[f];
      if (x < 0) return static_cast<int>(f);
    }
    return static_cast<int>(fault_family_count) - 1;
  };

  for (std::uint32_t u = 0; u < cfg.units; ++u) {
    const int fam = pick_family();
    if (fam < 0) break;
    const fault_family family = static_cast<fault_family>(fam);
    bool placed = false;
    for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
      const time_ns at = r.next_in(0, cfg.horizon);
      const std::uint32_t shard = static_cast<std::uint32_t>(r.next_below(cfg.shards));
      switch (family) {
        case fault_family::crash_recover:
        case fault_family::corrupt_tail:
        case fault_family::lease: {
          // Same unit shape (crash then recover); corrupt_tail's crash
          // additionally mangles the WAL tail at the driver, and a lease
          // unit makes the driver run the plan with read leases enabled so
          // the pair lands on leaseholders/grantors mid-lease.
          const process_id p{static_cast<std::uint32_t>(r.next_below(cfg.n))};
          const std::size_t slot = static_cast<std::size_t>(shard) * cfg.n + p.index;
          if (down_until[slot] >= at) break;  // already down around this time
          const time_ns up_at = at + duration() + 1;
          const scenario_kind down_kind = family == fault_family::corrupt_tail
                                              ? scenario_kind::corrupt_crash
                                              : scenario_kind::crash;
          plan.events.push_back(timed_event(at, down_kind, family, unit, shard, p));
          plan.events.push_back(
              timed_event(up_at, scenario_kind::recover, family, unit, shard, p));
          down_until[slot] = up_at;
          placed = true;
          break;
        }
        case fault_family::blackout: {
          const bool fleet = cfg.shards > 1 && r.chance(cfg.blackout_fleet_wide);
          const std::uint32_t lo = fleet ? 0 : shard;
          const std::uint32_t hi = fleet ? cfg.shards - 1 : shard;
          bool clear = true;
          for (std::uint32_t s = lo; s <= hi && clear; ++s) {
            for (std::uint32_t p = 0; p < cfg.n; ++p) {
              if (down_until[static_cast<std::size_t>(s) * cfg.n + p] >= at) {
                clear = false;
                break;
              }
            }
          }
          if (!clear) break;
          const time_ns down = duration();
          for (std::uint32_t s = lo; s <= hi; ++s) {
            for (std::uint32_t p = 0; p < cfg.n; ++p) {
              // Skewed recovery storm: everyone down together, back one by
              // one — stable storage alone carries the state across.
              const time_ns skew =
                  cfg.recovery_skew > 0 ? r.next_in(0, cfg.recovery_skew) : 0;
              const time_ns up_at = at + down + skew + 1;
              plan.events.push_back(timed_event(at, scenario_kind::crash, family,
                                                unit, s, process_id{p}));
              plan.events.push_back(timed_event(up_at, scenario_kind::recover,
                                                family, unit, s, process_id{p}));
              down_until[static_cast<std::size_t>(s) * cfg.n + p] = up_at;
            }
          }
          placed = true;
          break;
        }
        case fault_family::partition: {
          if (at <= link_until[shard]) break;  // one link window at a time per shard
          const std::uint32_t all = (1u << cfg.n) - 1;
          const std::uint32_t mask =
              1 + static_cast<std::uint32_t>(r.next_below(all - 1));
          const time_ns heal_at = at + duration() + 1;
          scenario_event cut = timed_event(at, scenario_kind::cut, family, unit, shard);
          cut.group_mask = mask;
          plan.events.push_back(cut);
          plan.events.push_back(
              timed_event(heal_at, scenario_kind::heal, family, unit, shard));
          link_until[shard] = heal_at;
          placed = true;
          break;
        }
        case fault_family::gray_link: {
          if (at <= link_until[shard]) break;
          const process_id from{static_cast<std::uint32_t>(r.next_below(cfg.n))};
          process_id to{static_cast<std::uint32_t>(r.next_below(cfg.n))};
          if (to == from) to = process_id{(from.index + 1) % cfg.n};
          scenario_event gray = timed_event(at, scenario_kind::gray, family, unit,
                                            shard, from);
          gray.peer = to;
          gray.extra_delay =
              cfg.gray_max_delay > 0 ? r.next_in(0, cfg.gray_max_delay) : 0;
          gray.loss = std::min(r.next_unit() * cfg.gray_max_loss, 0.95);
          if (gray.extra_delay == 0 && gray.loss == 0.0) gray.loss = 0.25;
          const time_ns heal_at = at + duration() + 1;
          plan.events.push_back(gray);
          plan.events.push_back(timed_event(heal_at, scenario_kind::heal, family, unit, shard));
          link_until[shard] = heal_at;
          placed = true;
          break;
        }
        case fault_family::migration: {
          scenario_event mig;
          // Open the window early: a late trigger drains after the workload
          // ends and never contends with live traffic.
          mig.at = at / 3;
          mig.kind = scenario_kind::begin_migration;
          mig.family = family;
          mig.unit = unit;
          plan.events.push_back(mig);
          migration_used = true;
          placed = true;
          break;
        }
      }
    }
    if (placed) ++unit;
  }
  plan.sort();
  return plan;
}

scenario_plan make_random_plan(const random_plan_config& cfg, rng& r) {
  scenario_plan plan;
  plan.n = cfg.n;
  std::vector<time_ns> down_until(cfg.n, -1);
  const std::uint32_t majority = cfg.n / 2 + 1;
  std::uint32_t unit = 0;

  for (std::uint32_t i = 0; i < cfg.crashes; ++i) {
    const time_ns at = r.next_in(0, cfg.horizon);
    const process_id p{static_cast<std::uint32_t>(r.next_below(cfg.n))};
    if (down_until[p.index] >= at) continue;  // already down around this time

    if (!cfg.allow_majority_crash) {
      // Keep a majority alive at every instant: count overlapping downtimes.
      std::uint32_t down_now = 0;
      for (std::uint32_t q = 0; q < cfg.n; ++q) {
        if (q != p.index && down_until[q] >= at) ++down_now;
      }
      if (down_now + 1 > cfg.n - majority) continue;
    }

    const time_ns down =
        cfg.max_down > cfg.min_down ? r.next_in(cfg.min_down, cfg.max_down) : cfg.min_down;
    const time_ns up_at = at + down + 1;
    plan.events.push_back(
        timed_event(at, scenario_kind::crash, fault_family::crash_recover, unit, 0, p));
    plan.events.push_back(
        timed_event(up_at, scenario_kind::recover, fault_family::crash_recover, unit, 0, p));
    down_until[p.index] = up_at;
    ++unit;
  }
  plan.sort();
  return plan;
}

scenario_plan make_blackout_plan(std::uint32_t n, time_ns at, time_ns down,
                                 time_ns skew_step) {
  scenario_plan plan;
  plan.n = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    plan.events.push_back(timed_event(at, scenario_kind::crash, fault_family::blackout, 0,
                                      0, process_id{i}));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    plan.events.push_back(timed_event(at + down + static_cast<time_ns>(i) * skew_step,
                                      scenario_kind::recover, fault_family::blackout, 0,
                                      0, process_id{i}));
  }
  plan.sort();
  return plan;
}

// ---- Minimization ------------------------------------------------------------

namespace {

/// Candidate keeps only events whose predicate holds; re-sorted (already
/// sorted, order preserved).
scenario_plan filter_events(const scenario_plan& plan,
                            const std::function<bool(const scenario_event&)>& keep) {
  scenario_plan out;
  out.shards = plan.shards;
  out.n = plan.n;
  for (const scenario_event& e : plan.events) {
    if (keep(e)) out.events.push_back(e);
  }
  return out;
}

}  // namespace

scenario_plan minimize_plan(const scenario_plan& failing, const plan_predicate& fails) {
  scenario_plan cur = failing;

  // Phase 1: drop whole fault units to fixpoint (greedy ddmin at unit
  // granularity; units are self-contained, so candidates stay well-formed).
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::uint32_t> units;
    for (const scenario_event& e : cur.events) units.push_back(e.unit);
    std::sort(units.begin(), units.end());
    units.erase(std::unique(units.begin(), units.end()), units.end());
    for (const std::uint32_t u : units) {
      scenario_plan cand =
          filter_events(cur, [&](const scenario_event& e) { return e.unit != u; });
      if (cand.events.size() == cur.events.size()) continue;
      if (!cand.well_formed() || !fails(cand)) continue;
      cur = std::move(cand);
      changed = true;
    }
  }

  // Phase 2: drop crash/recover pairs inside multi-process units (a blackout
  // shrinks to the few processes whose loss matters).
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < cur.events.size(); ++i) {
      const scenario_event& c = cur.events[i];
      if (c.kind != scenario_kind::crash && c.kind != scenario_kind::corrupt_crash) {
        continue;
      }
      // Matching recover: the next recover of the same (shard, process).
      std::size_t match = cur.events.size();
      for (std::size_t j = i + 1; j < cur.events.size(); ++j) {
        const scenario_event& e = cur.events[j];
        if (e.kind == scenario_kind::recover && e.shard == c.shard &&
            e.target == c.target) {
          match = j;
          break;
        }
      }
      if (match == cur.events.size()) continue;
      scenario_plan cand = cur;
      cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(match));
      cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(i));
      if (!cand.well_formed() || !fails(cand)) continue;
      cur = std::move(cand);
      changed = true;
      break;  // indices shifted: restart the scan
    }
  }

  // Phase 3: shrink fault windows — move each recover/heal halfway toward
  // its opening event while the failure reproduces.
  for (int round = 0; round < 6; ++round) {
    bool shrunk = false;
    for (std::size_t i = 0; i < cur.events.size(); ++i) {
      const scenario_event& e = cur.events[i];
      if (e.kind != scenario_kind::recover && e.kind != scenario_kind::heal) continue;
      // Opening event: the latest earlier event of the same unit.
      time_ns open_at = -1;
      for (std::size_t j = 0; j < i; ++j) {
        if (cur.events[j].unit == e.unit && cur.events[j].at <= e.at) {
          open_at = std::max(open_at, cur.events[j].at);
        }
      }
      if (open_at < 0 || e.at - open_at <= 2) continue;
      scenario_plan cand = cur;
      cand.events[i].at = open_at + (e.at - open_at) / 2;
      cand.sort();
      if (!cand.well_formed() || !fails(cand)) continue;
      cur = std::move(cand);
      shrunk = true;
      break;  // sorted order may have changed: restart
    }
    if (!shrunk) break;
  }
  return cur;
}

}  // namespace remus::sim
