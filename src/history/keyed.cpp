#include "history/keyed.h"

#include <algorithm>

#include "history/brute_force.h"

namespace remus::history {
namespace {

using check_fn = check_result (*)(const history_log&, criterion);

keyed_check_result check_with(const history_log& h, criterion c, check_fn check) {
  // One sort groups the (register, position) pairs of every invoke/reply;
  // each group then merges back the process-wide crash/recover events in
  // history order, which is exactly project_key(h, register).
  std::vector<std::pair<register_id, std::size_t>> keyed;
  std::vector<std::size_t> process_wide;
  keyed.reserve(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i].is_invoke() || h[i].is_reply()) {
      keyed.emplace_back(h[i].reg, i);
    } else {
      process_wide.push_back(i);
    }
  }
  std::sort(keyed.begin(), keyed.end());

  keyed_check_result out;
  history_log proj;  // reused for every register
  for (std::size_t lo = 0; lo < keyed.size();) {
    const register_id reg = keyed[lo].first;
    std::size_t hi = lo;
    proj.clear();
    std::size_t pw = 0;
    for (; hi < keyed.size() && keyed[hi].first == reg; ++hi) {
      for (; pw < process_wide.size() && process_wide[pw] < keyed[hi].second; ++pw) {
        proj.push_back(h[process_wide[pw]]);
      }
      proj.push_back(h[keyed[hi].second]);
    }
    for (; pw < process_wide.size(); ++pw) proj.push_back(h[process_wide[pw]]);
    lo = hi;

    out.keys_checked += 1;
    const check_result sub = check(proj, c);
    if (sub.ok) continue;
    out.ok = false;
    out.usage_error = sub.usage_error;
    out.failing_key = reg;
    out.explanation =
        "register " + std::to_string(reg) + ": " + sub.explanation;
    return out;
  }
  return out;
}

}  // namespace

history_log merge_shard_histories(const std::vector<history_log>& shards,
                                  std::uint32_t procs_per_shard) {
  history_log out;
  std::size_t total = 0;
  for (const history_log& h : shards) total += h.size();
  out.reserve(total);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto offset = static_cast<std::uint32_t>(s) * procs_per_shard;
    for (event e : shards[s]) {
      e.p.index += offset;
      out.push_back(std::move(e));
    }
  }
  // Stable: timestamp ties keep concatenation order (shard, then each
  // shard's own order), so the merge is deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const event& a, const event& b) { return a.at < b.at; });
  return out;
}

std::vector<register_id> keys_of(const history_log& h) {
  std::vector<register_id> keys;
  for (const event& e : h) {
    if (e.is_invoke() || e.is_reply()) keys.push_back(e.reg);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

history_log project_key(const history_log& h, register_id reg) {
  history_log out;
  for (const event& e : h) {
    if (e.is_invoke() || e.is_reply()) {
      if (e.reg == reg) out.push_back(e);
    } else {
      out.push_back(e);  // crash/recover: process-wide, every projection
    }
  }
  return out;
}

keyed_check_result check_atomicity_per_key(const history_log& h, criterion c) {
  return check_with(h, c, &check_atomicity);
}

keyed_check_result check_atomicity_per_key_brute_force(const history_log& h, criterion c) {
  return check_with(h, c, &check_atomicity_brute_force);
}

}  // namespace remus::history
