#include "history/brute_force.h"

#include <map>
#include <unordered_set>
#include <vector>

#include "history/wellformed.h"

namespace remus::history {
namespace {

struct bf_op {
  pos2 start2 = 0;
  pos2 end2 = 0;
  bool is_read = false;
  std::size_t write_node = 0;  // reads: the write they return; writes: self id
};

class searcher {
 public:
  searcher(std::vector<bf_op> ops) : ops_(std::move(ops)) {}

  bool feasible() {
    visited_.clear();
    return dfs(0, 0);
  }

 private:
  // mask: ops already placed; last_write: write_node of the latest placed
  // write (0 = initial).
  bool dfs(std::uint64_t mask, std::size_t last_write) {
    if (mask == (1ULL << ops_.size()) - 1) return true;
    const std::uint64_t key = mask * 131071ULL + last_write;
    if (!visited_.insert(key).second) return false;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (mask & (1ULL << i)) continue;
      // Every operation that wholly precedes i must already be placed.
      bool enabled = true;
      for (std::size_t j = 0; j < ops_.size(); ++j) {
        if (i == j || (mask & (1ULL << j))) continue;
        if (ops_[j].end2 < ops_[i].start2) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      if (ops_[i].is_read && ops_[i].write_node != last_write) continue;
      const std::size_t nw = ops_[i].is_read ? last_write : ops_[i].write_node;
      if (dfs(mask | (1ULL << i), nw)) return true;
    }
    return false;
  }

  std::vector<bf_op> ops_;
  std::unordered_set<std::uint64_t> visited_;
};

}  // namespace

check_result check_atomicity_brute_force(const history_log& h, criterion c) {
  if (const auto wf = check_well_formed(h); !wf.ok) {
    return {false, "ill-formed history: " + wf.explanation, true};
  }
  const std::vector<op_record> ops = extract_operations(h, c);

  std::map<small_bytes, std::size_t> by_value;  // write value -> node (1-based)
  std::vector<std::size_t> write_ops;     // op index per node-1
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].is_read) continue;
    if (ops[i].written.is_initial()) {
      return {false, "checker requires non-initial write values", true};
    }
    write_ops.push_back(i);
    if (!by_value.emplace(ops[i].written.data, write_ops.size()).second) {
      return {false, "checker requires unique write values", true};
    }
  }

  // Candidate ops: completed reads + all writes (pending ones optional).
  std::vector<std::size_t> pending_writes;
  std::vector<bf_op> base;
  std::vector<std::size_t> base_src;  // op index per bf op (completed only)
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const op_record& op = ops[i];
    if (op.is_read) {
      if (op.pending()) continue;
      std::size_t node = 0;
      if (!op.returned->is_initial()) {
        const auto it = by_value.find(op.returned->data);
        if (it == by_value.end()) {
          return {false, "read returned a never-written value: " + op.describe(), false};
        }
        node = it->second;
      }
      base.push_back(bf_op{op.start2, op.end2, true, node});
      base_src.push_back(i);
    } else if (op.pending()) {
      pending_writes.push_back(i);
    } else {
      const std::size_t node = by_value.at(op.written.data);
      base.push_back(bf_op{op.start2, op.end2, false, node});
      base_src.push_back(i);
    }
  }

  if (base.size() + pending_writes.size() > 22) {
    return {false, "history too large for the brute-force checker", true};
  }

  // Try every inclusion subset of pending writes.
  const std::size_t k = pending_writes.size();
  for (std::uint64_t subset = 0; subset < (1ULL << k); ++subset) {
    std::vector<bf_op> trial = base;
    bool subset_ok = true;
    // A read-from pending write must be included.
    for (const bf_op& op : base) {
      if (!op.is_read || op.write_node == 0) continue;
      const std::size_t src = write_ops[op.write_node - 1];
      for (std::size_t pi = 0; pi < k; ++pi) {
        if (pending_writes[pi] == src && !(subset & (1ULL << pi))) subset_ok = false;
      }
    }
    if (!subset_ok) continue;
    for (std::size_t pi = 0; pi < k; ++pi) {
      if (!(subset & (1ULL << pi))) continue;
      const op_record& op = ops[pending_writes[pi]];
      trial.push_back(bf_op{op.start2, op.end2, false, by_value.at(op.written.data)});
    }
    if (searcher(std::move(trial)).feasible()) return {true, "", false};
  }
  return {false, "no legal sequential completion found (exhaustive search)", false};
}

}  // namespace remus::history
