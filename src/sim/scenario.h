// Timed fault plans: the simulator's one fault language.
//
// The paper's model (section II) allows every process to crash, even all at
// once, as long as eventually a majority stays up long enough for pending
// operations to finish. A scenario_plan is a sorted list of timed events
// spanning every fault family the model admits:
//
//   * crash/recover    — per-(shard, process) crash-recovery;
//   * blackout         — a system-wide storm: every process of a shard (or
//                        of the whole fleet) down at one instant, recovering
//                        at skewed per-process times — the paper's "all
//                        crash, possibly at the same time" corner, where
//                        recovery proceeds from stable storage alone;
//   * cut/heal         — network partitions: a node set isolated from the
//                        rest of its shard in both directions
//                        (network_model::partition), healed later;
//   * gray/heal        — gray links: one *directed* link degraded with extra
//                        delay and/or loss (via the network filter hook) —
//                        asymmetric, the failure detectors' worst case;
//   * begin_migration  — opens a live-rebalancing window (S -> S+1) at a
//                        planned instant, so every other family can land
//                        inside the dual-ring migration window.
//   * corrupt_crash    — a crash that damages the WAL tail: torn in-flight
//                        frame, bit flips, stray garbage past the durable
//                        bytes (storage corruption meets protocol recovery).
//
// Validity (`well_formed`): crash/recover alternate per process, every
// crash has a later recover, every cut/gray a later heal, at most one
// migration trigger — so after the last event all processes are up and all
// links clean. That is the strongest form of the paper's
// eventually-correct-majority assumption, and it is what guarantees every
// generated run terminates (pending operations finish once a majority stays
// up and connected).
//
// Events carry the id of the generating fault *unit* (one crash+recover
// pair, one partition window, one blackout storm...). Units are the granule
// of delta-debugging minimization: dropping a unit keeps the plan
// well-formed by construction, so minimize_plan can shrink a failing
// scenario to the few units that actually matter and print a self-contained
// repro line (encode/decode_plan).
//
// Generators: make_adversarial_plan mixes every family by weight (the
// fuzzer's), make_random_plan draws independent crash/recover pairs on one
// shard, and make_blackout_plan is one all-crash storm on one shard.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace remus::sim {

/// The generator's fault families (coverage accounting is per family).
enum class fault_family : std::uint8_t {
  crash_recover = 0,
  blackout = 1,
  partition = 2,
  gray_link = 3,
  migration = 4,
  corrupt_tail = 5,  // crash that damages the WAL tail (corrupt_crash)
  /// Crash+recover pair aimed at the read-lease protocol: the driver runs
  /// the plan with read leases enabled (short duration, hot-key threshold
  /// low), so the pair lands on leaseholders and grantors — exercising
  /// incarnation revocation, grantor-registry restore, and writer waits.
  lease = 6,
};
inline constexpr std::size_t fault_family_count = 7;
[[nodiscard]] const char* to_string(fault_family f);

enum class scenario_kind : std::uint8_t {
  crash = 0,    // target process of `shard` loses volatile state
  recover = 1,  // target process of `shard` runs Recover()
  cut = 2,      // isolate `group_mask` from the rest of `shard`, both ways
  heal = 3,     // restore every link of `shard` (cuts and gray links)
  gray = 4,     // degrade directed link target -> peer of `shard`
  begin_migration = 5,  // open the S -> S+1 migration window
  /// Crash that additionally corrupts the durable medium's non-durable
  /// tail (torn in-flight frame, bit flips, stray garbage — see
  /// core::crash_style::corrupt_tail). Alternates with `recover` exactly
  /// like `crash`; meaningful only when the run uses the WAL engine.
  corrupt_crash = 6,
};

struct scenario_event {
  time_ns at = 0;
  scenario_kind kind = scenario_kind::crash;
  fault_family family = fault_family::crash_recover;
  /// Generation unit this event belongs to (minimization granule).
  std::uint32_t unit = 0;
  std::uint32_t shard = 0;
  process_id target;            // crash/recover target; gray's source
  process_id peer;              // gray's destination
  std::uint32_t group_mask = 0; // cut: bit i isolates process i
  time_ns extra_delay = 0;      // gray: added one-way delay
  double loss = 0.0;            // gray: per-copy drop probability

  [[nodiscard]] bool operator==(const scenario_event&) const = default;
};

struct scenario_plan {
  /// Topology the plan targets: `shards` quorum groups of `n` processes at
  /// plan start (begin_migration grows the fleet to shards+1).
  std::uint32_t shards = 1;
  std::uint32_t n = 3;
  std::vector<scenario_event> events;  // sorted by time (sort())

  void sort();

  /// Generalized validity: events in range and time-sorted, crash/recover
  /// alternation per (shard, process), every crash eventually recovered,
  /// every cut/gray eventually healed on its shard, cut masks a proper
  /// non-empty subset, at most one begin_migration. Guarantees the
  /// eventually-correct-majority tail that makes runs terminate.
  [[nodiscard]] bool well_formed() const;

  /// Distinct generation units present (minimization works unit-wise).
  [[nodiscard]] std::size_t unit_count() const;

  [[nodiscard]] bool operator==(const scenario_plan&) const = default;
};

/// Compact one-line codec for repro lines: "v1;shards,n;ev;ev;..." where
/// each ev is "kind,at,family,unit,shard,target,peer,mask,delay,loss_ppm".
/// decode_plan throws std::invalid_argument on malformed input.
[[nodiscard]] std::string encode(const scenario_plan& plan);
[[nodiscard]] scenario_plan decode_plan(const std::string& line);

// ---- Coverage accounting -----------------------------------------------------

/// What a run (or a whole fuzzing campaign) actually touched: fault families
/// and their pairwise window overlaps from the plan, protocol branches from
/// the run. The generator biases toward under-explored families.
struct scenario_coverage {
  // Plan-derived.
  std::uint64_t family_events[fault_family_count] = {};
  std::uint64_t family_runs[fault_family_count] = {};
  /// Unit windows of family a overlapping (in time) windows of family b,
  /// counted once per unordered pair per plan; diagonal = same-family
  /// overlaps.
  std::uint64_t overlap_pairs[fault_family_count][fault_family_count] = {};

  // Run-derived (protocol branches; drivers fill these in).
  std::uint64_t adoptions = 0;
  std::uint64_t stale_updates = 0;
  std::uint64_t adopt_splits = 0;        // batched acks splitting adopted/stale
  std::uint64_t retransmits = 0;
  std::uint64_t retransmit_trims = 0;    // trimmed repeat broadcasts
  std::uint64_t recovery_finish_writes = 0;
  std::uint64_t handoff_writes = 0;      // migration: write-path handoffs
  std::uint64_t handoff_drains = 0;      // migration: background-drain handoffs
  std::uint64_t handoff_writebacks = 0;  // migration: window-read write-backs
  std::uint64_t handoff_lease_drops = 0; // migration: lease state dropped at handoff
  std::uint64_t leased_read_hits = 0;    // reads served locally under a lease
  std::uint64_t lease_grants = 0;        // grant rounds that activated a holding
  std::uint64_t lease_invalidations = 0; // holdings dropped/canceled by updates
  std::uint64_t lease_expiries = 0;      // holdings/records dropped by the clock

  void merge(const scenario_coverage& o);
  [[nodiscard]] std::string to_string() const;
};

/// Folds `plan`'s families and unit-window overlaps into `cov`.
void accumulate_plan_coverage(const scenario_plan& plan, scenario_coverage& cov);

// ---- Generation --------------------------------------------------------------

struct adversarial_config {
  std::uint32_t shards = 1;
  std::uint32_t n = 3;
  /// Fault units to generate (a blackout storm or partition window is one).
  std::uint32_t units = 6;
  /// Window in which fault units begin.
  time_ns horizon = 200 * 1000 * 1000;
  /// Downtime / window length: U[min_down, max_down].
  time_ns min_down = 1 * 1000 * 1000;
  time_ns max_down = 30 * 1000 * 1000;
  /// Relative weight of each fault family (index = fault_family). A zero
  /// weight disables the family; migration is additionally capped at one
  /// unit per plan.
  double weights[fault_family_count] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  /// Blackout storms: per-process recovery skew U[0, recovery_skew] on top
  /// of the common downtime (clock-skewed recovery storms).
  time_ns recovery_skew = 2 * 1000 * 1000;
  /// Probability a blackout takes down every shard at once (correlated
  /// system-wide storm) instead of one shard.
  double blackout_fleet_wide = 0.5;
  /// Gray links: extra delay U[0, gray_max_delay], loss U[0, gray_max_loss].
  time_ns gray_max_delay = 5 * 1000 * 1000;
  double gray_max_loss = 0.8;
};

/// Generates a well-formed plan mixing fault families by weight. When
/// `explored` is given, family weights are divided by 1 + its family_runs
/// share, biasing generation toward under-explored families.
[[nodiscard]] scenario_plan make_adversarial_plan(const adversarial_config& cfg, rng& r,
                                                  const scenario_coverage* explored = nullptr);

/// Single-shard crash/recover plans (make_random_plan).
struct random_plan_config {
  std::uint32_t n = 5;
  /// Number of crash events to generate in total.
  std::uint32_t crashes = 4;
  /// Window in which crashes may happen.
  time_ns horizon = 0;
  /// How long a crashed process stays down: U[min_down, max_down].
  time_ns min_down = 0;
  time_ns max_down = 0;
  /// If true, may crash a majority (or everyone) simultaneously; recovery
  /// still brings everyone back by the end.
  bool allow_majority_crash = true;
};

/// Generates a well-formed single-shard plan where every crash has a
/// matching recovery (one crash_recover unit per pair) and all processes
/// are up after `horizon + max_down`.
[[nodiscard]] scenario_plan make_random_plan(const random_plan_config& cfg, rng& r);

/// Crashes every process of a single-shard plan at `at` and recovers all of
/// them at `at + down` (the paper's "all crash, possibly at the same time"
/// scenario), as one blackout unit. A nonzero `skew_step` staggers
/// recovery: process i comes back at `at + down + i * skew_step`, so
/// recovery reassembles the majority one process at a time from stable
/// storage alone.
[[nodiscard]] scenario_plan make_blackout_plan(std::uint32_t n, time_ns at, time_ns down,
                                               time_ns skew_step = 0);

// ---- Minimization ------------------------------------------------------------

/// Returns true when the candidate plan still reproduces the failure.
using plan_predicate = std::function<bool(const scenario_plan&)>;

/// Delta-debugging minimization of a failing plan: greedily drop whole fault
/// units, then drop crash/recover pairs inside multi-process units, then
/// shrink fault windows (move recovers/heals earlier) — every kept candidate
/// is well-formed and still satisfies `fails`. The input plan must fail.
[[nodiscard]] scenario_plan minimize_plan(const scenario_plan& failing,
                                          const plan_predicate& fails);

}  // namespace remus::sim
