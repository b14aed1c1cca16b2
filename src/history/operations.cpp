#include "history/operations.h"

namespace remus::history {

std::string op_record::describe() const {
  std::string out = "p" + std::to_string(p.index);
  if (is_read) {
    out += " R->" + (returned ? remus::to_string(*returned) : std::string("pending"));
  } else {
    out += " W(" + remus::to_string(written) + ")";
    if (pending()) out += " pending";
  }
  out += " @[" + std::to_string(invoke_index) + ",";
  out += reply_index ? std::to_string(*reply_index) : std::string("-");
  out += "]";
  return out;
}

std::vector<op_record> extract_operations(const history_log& h, criterion c) {
  std::vector<op_record> ops;
  // Per process, the index of that process's op currently in flight.
  std::vector<std::optional<std::size_t>> open(64);
  auto slot = [&](process_id p) -> std::optional<std::size_t>& {
    if (p.index >= open.size()) open.resize(p.index + 1);
    return open[p.index];
  };

  for (std::size_t i = 0; i < h.size(); ++i) {
    const event& e = h[i];
    switch (e.kind) {
      case event_kind::invoke_read:
      case event_kind::invoke_write: {
        op_record op;
        op.p = e.p;
        op.is_read = (e.kind == event_kind::invoke_read);
        if (!op.is_read) op.written = e.v;
        op.invoke_index = i;
        op.start2 = static_cast<pos2>(2 * i);
        op.end2 = pos2_infinity;  // refined below
        slot(e.p) = ops.size();
        ops.push_back(std::move(op));
        break;
      }
      case event_kind::reply_read:
      case event_kind::reply_write: {
        auto& s = slot(e.p);
        op_record& op = ops.at(*s);
        op.reply_index = i;
        op.end2 = static_cast<pos2>(2 * i);
        if (op.is_read) op.returned = e.v;
        s.reset();
        break;
      }
      case event_kind::crash:
        // A pending op stays pending; its deadline is computed below.
        slot(e.p).reset();
        break;
      case event_kind::recover:
        break;
    }
  }

  // Deadlines for pending operations, in one backward pass that reuses the
  // per-process slots: next[p] is the position of p's next invocation
  // (persistent) or next write reply (transient) after the visited event.
  // Ops are visited in reverse invocation order alongside their invocations.
  std::vector<std::optional<std::size_t>>& next = open;
  for (auto& s : next) s.reset();
  std::size_t k = ops.size();
  for (std::size_t j = h.size(); j-- > 0;) {
    const event& e = h[j];
    if (e.is_invoke()) {
      op_record& op = ops[--k];
      if (op.pending() && next[e.p.index]) {
        op.end2 = static_cast<pos2>(2 * *next[e.p.index]) - 1;
      }
    }
    const bool bounds = c == criterion::persistent ? e.is_invoke()
                                                   : e.kind == event_kind::reply_write;
    if (bounds) next[e.p.index] = j;
  }
  return ops;
}

}  // namespace remus::history
