// fuzz_scenarios: the adversarial scenario fuzzer's command-line driver.
//
// Generates N scenario specs (plan x workload x policy x shard count) with
// coverage-biased fault-family mixing, runs each through
// core::run_scenario, and checks every history with the atomicity and
// tag-order checkers. On the first violation it delta-debugs the spec down
// to a minimal reproducer and prints a self-contained repro line:
//
//   REPRO s1|...|v1;...
//
// which core::scenario_spec::decode() turns back into the identical failing
// run (paste it into a regression test; see docs/ARCHITECTURE.md).
//
// Options:
//   --runs N        scenarios to generate (default 1000)
//   --seed S        campaign seed (default 1); all randomness derives from it
//   --repro-out P   also write the repro line to file P on failure
//   --inject K      plant bug K in every run. 1 = drop_handoff_state is
//                   the self-test: the fuzzer catches and minimizes it.
//                   2 = skip_read_writeback is NOT caught: window reads go
//                   to the old shard until the key's handoff, and the
//                   handoff imports the old shard's freshest state (every
//                   replica's stable and volatile copy), so the skipped
//                   write-back leaves no trace in any history
//   --progress N    progress line every N runs (default 100; 0 = quiet)
//   --corpus DIR    before the random campaign, replay every repro line in
//                   DIR/*.repro (sorted by file name; '#' comments and blank
//                   lines skipped) and fold each run into the coverage and
//                   the digest — the regression corpus runs under the same
//                   checkers as generated scenarios
//
// Exit status: 0 = all runs clean, 1 = violation found (repro printed),
// 2 = bad usage. Output is deterministic for a fixed seed (the CI
// determinism pin runs the same seed twice and diffs stdout, digest line
// included).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/scenario_runner.h"
#include "sim/scenario.h"

namespace {

using remus::core::run_scenario;
using remus::core::scenario_outcome;
using remus::core::scenario_spec;
using remus::core::shard_router_config;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Folds the run's observable schedule into the campaign digest: the spec,
/// the merged history, and the migration schedule. Identical seeds must
/// yield identical digests (the determinism pin).
std::uint64_t digest_run(std::uint64_t h, const scenario_spec& spec,
                         const scenario_outcome& out) {
  const std::string enc = spec.encode();
  h = fnv1a(h, enc.data(), enc.size());
  for (const remus::history::event& e : out.history) {
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

/// One campaign-generated spec: topology, workload, and plan all derive from
/// the per-run rng; the plan's family mix is biased by campaign coverage.
scenario_spec make_spec(std::uint32_t run, remus::rng& r,
                        const remus::sim::scenario_coverage& campaign,
                        shard_router_config::injected_fault inject) {
  remus::sim::adversarial_config acfg;
  acfg.shards = 1 + static_cast<std::uint32_t>(r.next_below(2));  // 1 or 2
  acfg.n = (run % 7 == 6) ? 5 : 3;
  acfg.units = 3 + static_cast<std::uint32_t>(r.next_below(4));
  // Match the fault horizon to the workload span so faults land under load.
  acfg.horizon = 6'000'000;
  acfg.min_down = 200'000;
  acfg.max_down = 2'000'000;
  acfg.recovery_skew = 400'000;
  acfg.gray_max_delay = 1'000'000;
  if (acfg.shards == 1) {
    // Migration grows 1 -> 2; keep it in the mix for single-shard runs too.
    acfg.weights[static_cast<std::size_t>(remus::sim::fault_family::migration)] = 1.5;
  }

  scenario_spec spec;
  spec.plan = remus::sim::make_adversarial_plan(acfg, r, &campaign);
  spec.key_count = 4 + static_cast<std::uint32_t>(r.next_below(8));
  spec.ops = 40 + static_cast<std::uint32_t>(r.next_below(40));
  spec.read_fraction = 0.5;
  spec.zipf_theta = r.chance(0.3) ? 0.99 : 0.0;
  spec.batch_size = r.chance(0.25) ? 3 : 1;
  spec.mean_gap = 200'000;
  spec.workload_seed = r.next_u64();
  spec.cluster_seed = r.next_u64();
  spec.policy = r.chance(0.5) ? 'p' : 't';
  spec.fault = inject;
  return spec;
}

/// Replays DIR/*.repro (each line one encoded scenario_spec) under the same
/// checkers as generated runs, folding coverage and digest. Returns the
/// number of specs replayed, or -1 on a violation (repro already printed).
int replay_corpus(const std::string& dir, remus::sim::scenario_coverage& campaign,
                  std::uint64_t& digest, const std::string& repro_out) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& ent : fs::directory_iterator(dir)) {
    if (ent.path().extension() == ".repro") files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());
  int replayed = 0;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const scenario_spec spec = scenario_spec::decode(line);
      const scenario_outcome out = run_scenario(spec);
      campaign.merge(out.coverage);
      digest = digest_run(digest, spec, out);
      ++replayed;
      if (!out.ok()) {
        std::fprintf(stderr, "corpus %s regressed\n", file.filename().c_str());
        std::fprintf(stderr, "violation: %s\n", out.failure.c_str());
        std::printf("REPRO %s\n", line.c_str());
        if (!repro_out.empty()) {
          std::ofstream f(repro_out);
          f << line << '\n';
        }
        return -1;
      }
    }
  }
  return replayed;
}

int fail_with_repro(const scenario_spec& spec, const scenario_outcome& out,
                    const std::string& repro_out) {
  std::fprintf(stderr, "violation: %s\n", out.failure.c_str());
  std::fprintf(stderr, "minimizing (%zu plan events)...\n", spec.plan.events.size());
  const scenario_spec min = remus::core::minimize_scenario(spec);
  const std::string line = min.encode();
  std::printf("REPRO %s\n", line.c_str());
  std::printf("minimized: %zu plan events, %u keys, %u ops\n",
              min.plan.events.size(), min.key_count, min.ops);
  if (!repro_out.empty()) {
    std::ofstream f(repro_out);
    f << line << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t runs = 1000;
  std::uint64_t seed = 1;
  std::uint64_t progress = 100;
  std::string repro_out;
  std::string corpus_dir;
  auto inject = shard_router_config::injected_fault::none;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--runs" && val != nullptr) {
      runs = std::stoull(val);
      ++i;
    } else if (arg == "--seed" && val != nullptr) {
      seed = std::stoull(val);
      ++i;
    } else if (arg == "--progress" && val != nullptr) {
      progress = std::stoull(val);
      ++i;
    } else if (arg == "--repro-out" && val != nullptr) {
      repro_out = val;
      ++i;
    } else if (arg == "--corpus" && val != nullptr) {
      corpus_dir = val;
      ++i;
    } else if (arg == "--inject" && val != nullptr) {
      const unsigned long k = std::stoul(val);
      if (k > 2) {
        std::fprintf(stderr, "bad --inject %lu (0, 1, or 2)\n", k);
        return 2;
      }
      inject = static_cast<shard_router_config::injected_fault>(k);
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runs N] [--seed S] [--repro-out PATH] "
                   "[--inject K] [--progress N] [--corpus DIR]\n"
                   "  --inject 1 plants drop_handoff_state (caught); --inject 2\n"
                   "  plants skip_read_writeback, which the key's handoff masks\n",
                   argv[0]);
      return 2;
    }
  }

  remus::rng campaign_rng(seed);
  remus::sim::scenario_coverage campaign;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t completed_total = 0;
  if (!corpus_dir.empty()) {
    const int replayed = replay_corpus(corpus_dir, campaign, digest, repro_out);
    if (replayed < 0) return 1;
    std::printf("corpus: %d specs replayed clean\n", replayed);
  }
  for (std::uint64_t i = 0; i < runs; ++i) {
    remus::rng r = campaign_rng.fork();
    const scenario_spec spec =
        make_spec(static_cast<std::uint32_t>(i), r, campaign, inject);
    const scenario_outcome out = run_scenario(spec);
    campaign.merge(out.coverage);
    completed_total += out.completed_ops;
    digest = digest_run(digest, spec, out);
    if (!out.ok()) return fail_with_repro(spec, out, repro_out);
    if (progress > 0 && (i + 1) % progress == 0) {
      std::printf("[%llu/%llu] clean, %llu ops completed\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(runs),
                  static_cast<unsigned long long>(completed_total));
    }
  }
  std::printf("%llu scenarios, zero violations\n",
              static_cast<unsigned long long>(runs));
  std::printf("%s\n", campaign.to_string().c_str());
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  return 0;
}
