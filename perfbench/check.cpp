#include "check.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "history/atomicity.h"

namespace perfbench {

using remus::history::event;
using remus::history::event_kind;
using remus::history::history_log;

keyed_verdict check_every_key(const history_log& h) {
  std::vector<std::pair<remus::register_id, std::uint32_t>> keyed;  // (key, position)
  std::vector<std::uint32_t> process_wide;                        // crash/recover positions
  keyed.reserve(h.size());
  std::unordered_map<std::uint32_t, event_kind> last_fault;  // per process
  for (std::uint32_t i = 0; i < h.size(); ++i) {
    const event& e = h[i];
    if (e.is_invoke() || e.is_reply()) {
      keyed.emplace_back(e.reg, i);
      continue;
    }
    auto [it, fresh] = last_fault.try_emplace(e.p.index, e.kind);
    if (!fresh) {
      if (e.kind == event_kind::crash && it->second == event_kind::crash) continue;
      it->second = e.kind;
    }
    process_wide.push_back(i);
  }
  std::sort(keyed.begin(), keyed.end());

  keyed_verdict v;
  history_log projection;
  for (std::size_t lo = 0; lo < keyed.size();) {
    std::size_t hi = lo;
    while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
    projection.clear();
    std::size_t c = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      while (c < process_wide.size() && process_wide[c] < keyed[k].second) {
        projection.push_back(h[process_wide[c++]]);
      }
      projection.push_back(h[keyed[k].second]);
    }
    while (c < process_wide.size()) projection.push_back(h[process_wide[c++]]);
    const auto r = remus::history::check_persistent_atomicity(projection);
    ++v.keys_checked;
    if (!r.ok) {
      v.ok = false;
      v.explanation = "key " + std::to_string(keyed[lo].first) + ": " + r.explanation;
      return v;
    }
    lo = hi;
  }
  return v;
}

}  // namespace perfbench
