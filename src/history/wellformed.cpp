#include "history/wellformed.h"

#include <vector>

namespace remus::history {
namespace {

enum class pstate : std::uint8_t { idle, in_read, in_write, crashed };

std::string where(std::size_t i, const event& e) {
  return "event " + std::to_string(i) + " (" + to_string(e) + ")";
}

}  // namespace

wellformed_result check_well_formed(const history_log& h) {
  // Process ids are small dense integers (common/ids.h), so per-process
  // state is a vector indexed by id; no_process names no process at all.
  std::vector<pstate> st;
  time_ns prev = h.empty() ? 0 : h.front().at;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const event& e = h[i];
    if (e.at < prev) return {false, "timestamps regress at " + where(i, e)};
    prev = e.at;
    if (!e.p.valid()) return {false, "invalid process at " + where(i, e)};
    if (e.p.index >= st.size()) st.resize(std::size_t{e.p.index} + 1, pstate::idle);
    pstate& s = st[e.p.index];
    switch (e.kind) {
      case event_kind::invoke_read:
        if (s != pstate::idle) return {false, "invocation while busy at " + where(i, e)};
        s = pstate::in_read;
        break;
      case event_kind::invoke_write:
        if (s != pstate::idle) return {false, "invocation while busy at " + where(i, e)};
        s = pstate::in_write;
        break;
      case event_kind::reply_read:
        if (s != pstate::in_read) return {false, "unmatched read reply at " + where(i, e)};
        s = pstate::idle;
        break;
      case event_kind::reply_write:
        if (s != pstate::in_write) return {false, "unmatched write reply at " + where(i, e)};
        s = pstate::idle;
        break;
      case event_kind::crash:
        if (s == pstate::crashed) return {false, "crash while crashed at " + where(i, e)};
        s = pstate::crashed;
        break;
      case event_kind::recover:
        if (s != pstate::crashed) return {false, "recovery while up at " + where(i, e)};
        s = pstate::idle;
        break;
    }
  }
  return {true, ""};
}

}  // namespace remus::history
