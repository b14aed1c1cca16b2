#include "history/tag_order.h"

#include <algorithm>
#include <span>

#include "common/flat_hash.h"

namespace remus::history {
namespace {

std::string describe(const tagged_op& op) {
  std::string out = "p" + std::to_string(op.p.index);
  out += op.is_read ? " R->" : " W(";
  out += remus::to_string(op.val);
  if (!op.is_read) out += ")";
  out += " tag=" + remus::to_string(op.applied);
  out += " @[" + std::to_string(op.invoked_at) + "," + std::to_string(op.replied_at) + "]";
  return out;
}

struct tag_hash {
  std::size_t operator()(const tag& t) const noexcept {
    return mix_u64((static_cast<std::uint64_t>(t.sn) * 0x9e3779b97f4a7c15ULL) ^
                   (static_cast<std::uint64_t>(t.rec) << 32) ^ t.writer.index);
  }
};

/// check_tag_order over one group of operations, given in their original
/// order; the per-key wrapper passes each register's group without copying.
tag_order_result check_group(std::span<const tagged_op* const> ops,
                             bool check_read_monotonicity) {
  // L2 + L3 prerequisite: map write tags to the first write carrying them.
  flat_hash_map<tag, const tagged_op*, tag_hash> writes;
  for (const tagged_op* op : ops) {
    if (op->is_read) continue;
    const tagged_op*& first = writes[op->applied];
    if (first == nullptr) {
      first = op;
      continue;
    }
    if (!(first->val == op->val)) {
      return {false, "L2 violated: two writes share tag " + remus::to_string(op->applied)};
    }
    return {false, "L2 violated: duplicate write tag " + remus::to_string(op->applied)};
  }

  // L3: reads return the value of the write their tag names.
  for (const tagged_op* op : ops) {
    if (!op->is_read) continue;
    if (op->applied.initial()) {
      if (!op->val.is_initial()) {
        return {false, "L3 violated: initial tag with non-initial value: " + describe(*op)};
      }
      continue;
    }
    const tagged_op* const* write = writes.find(op->applied);
    if (write == nullptr) {
      // The write may still be pending (its invoker crashed); the value
      // itself must then at least be self-consistent, which we cannot see
      // here — accept, the black-box checker covers it.
      continue;
    }
    if (!((*write)->val == op->val)) {
      return {false, "L3 violated: read value does not match its tag's write: " +
                         describe(*op)};
    }
  }

  // L1: precedence vs tag order (quadratic; fine for test-sized runs).
  for (const tagged_op* a : ops) {
    for (const tagged_op* b : ops) {
      if (a == b || a->replied_at >= b->invoked_at) continue;  // not "a precedes b"
      // Without the read's write-back round, nothing anchors a read's tag at
      // a majority, so no condition with a read on the left holds.
      if (a->is_read && !check_read_monotonicity) continue;
      if (b->is_read) {
        if (!(a->applied <= b->applied)) {
          return {false, "L1(i) violated:\n  " + describe(*a) + "\n  precedes\n  " +
                             describe(*b)};
        }
      } else {
        if (!(a->applied < b->applied)) {
          return {false, "L1(ii) violated:\n  " + describe(*a) + "\n  precedes\n  " +
                             describe(*b)};
        }
      }
    }
  }
  return {true, ""};
}

}  // namespace

tag_order_result check_tag_order(const std::vector<tagged_op>& ops,
                                 bool check_read_monotonicity) {
  std::vector<const tagged_op*> all;
  all.reserve(ops.size());
  for (const tagged_op& op : ops) all.push_back(&op);
  return check_group(all, check_read_monotonicity);
}

tag_order_result check_tag_order_per_key(const std::vector<tagged_op>& ops,
                                         bool check_read_monotonicity) {
  // Group by register with one stable sort of pointers: groups come out in
  // ascending register order, each keeping its operations' original order.
  std::vector<const tagged_op*> sorted;
  sorted.reserve(ops.size());
  for (const tagged_op& op : ops) sorted.push_back(&op);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const tagged_op* a, const tagged_op* b) { return a->reg < b->reg; });
  const std::span<const tagged_op* const> all(sorted);
  for (std::size_t lo = 0; lo < all.size();) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi]->reg == all[lo]->reg) ++hi;
    const auto res = check_group(all.subspan(lo, hi - lo), check_read_monotonicity);
    if (!res.ok) {
      return {false, "register " + std::to_string(all[lo]->reg) + ": " + res.explanation};
    }
    lo = hi;
  }
  return {true, ""};
}

}  // namespace remus::history
