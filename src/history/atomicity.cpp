#include "history/atomicity.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "history/wellformed.h"

namespace remus::history {
namespace {

struct read_ref {
  std::size_t op;     // index into ops
  std::size_t write;  // index into writes (graph node)
};

/// The constraint that first added an edge. Only indices are kept: text is
/// built for the edges of a reported cycle alone (see explain below).
struct edge_reason {
  enum class rule : std::uint8_t { none, initial, p1, c1, c2, c3 };
  rule kind = rule::none;
  std::size_t read = 0;        // C1, C2: the read; C3: the earlier read
  std::size_t later_read = 0;  // C3: the later read
};

struct edge_hash {
  std::size_t operator()(std::uint64_t edge) const noexcept { return mix_u64(edge); }
};

std::uint64_t edge_key(std::size_t a, std::size_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}

std::string_view bytes_view(const value& v) {
  return {reinterpret_cast<const char*>(v.data.data()), v.data.size()};
}

/// Finds one cycle in the constraint graph (for diagnostics) via iterative
/// DFS; returns node indices along the cycle.
std::vector<std::size_t> find_cycle(const std::vector<std::vector<std::size_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<int> state(n, 0);  // 0=unvisited 1=on stack 2=done
  std::vector<std::size_t> parent(n, SIZE_MAX);
  for (std::size_t root = 0; root < n; ++root) {
    if (state[root] != 0) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    state[root] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adj[u].size()) {
        const std::size_t v = adj[u][next++];
        if (state[v] == 0) {
          state[v] = 1;
          parent[v] = u;
          stack.emplace_back(v, 0);
        } else if (state[v] == 1) {
          // Found a cycle v -> ... -> u -> v.
          std::vector<std::size_t> cyc{v};
          for (std::size_t x = u; x != v && x != SIZE_MAX; x = parent[x]) cyc.push_back(x);
          std::reverse(cyc.begin() + 1, cyc.end());
          return cyc;
        }
      } else {
        state[u] = 2;
        stack.pop_back();
      }
    }
  }
  return {};
}

}  // namespace

check_result check_atomicity(const history_log& h, criterion c) {
  if (const auto wf = check_well_formed(h); !wf.ok) {
    return {false, "ill-formed history: " + wf.explanation, true};
  }

  const std::vector<op_record> ops = extract_operations(h, c);

  // Collect writes; verify value uniqueness. The index views the ops' own
  // bytes; node 0 never names a write, so a zero slot means "absent".
  std::vector<std::size_t> writes;  // op indices; node k+1 in the graph
  flat_hash_map<std::string_view, std::size_t> by_value;  // value -> graph node
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const op_record& op = ops[i];
    if (op.is_read) continue;
    if (op.written.is_initial()) {
      return {false, "checker requires non-initial write values: " + op.describe(), true};
    }
    writes.push_back(i);
    std::size_t& node = by_value[bytes_view(op.written)];
    if (node != 0) {
      return {false, "checker requires unique write values: " + op.describe(), true};
    }
    node = writes.size();
  }

  const std::size_t nodes = writes.size() + 1;  // node 0 = virtual initial write
  auto start2_of = [&](std::size_t node) -> pos2 {
    return node == 0 ? INT64_MIN : ops[writes[node - 1]].start2;
  };
  auto end2_of = [&](std::size_t node) -> pos2 {
    return node == 0 ? INT64_MIN : ops[writes[node - 1]].end2;
  };
  auto describe_node = [&](std::size_t node) -> std::string {
    return node == 0 ? std::string("W0(initial)") : ops[writes[node - 1]].describe();
  };

  // Included writes: completed ones, plus pending ones that were read.
  std::vector<bool> included(nodes, false);
  included[0] = true;
  for (std::size_t k = 0; k < writes.size(); ++k) {
    if (!ops[writes[k]].pending()) included[k + 1] = true;
  }

  // Map completed reads to their writes.
  std::vector<read_ref> reads;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const op_record& op = ops[i];
    if (!op.is_read || op.pending()) continue;  // pending reads dropped
    std::size_t node = 0;
    if (!op.returned->is_initial()) {
      const std::size_t* found = by_value.find(bytes_view(*op.returned));
      if (found == nullptr) {
        return {false, "read returned a never-written value: " + op.describe(), false};
      }
      node = *found;
      included[node] = true;  // a read-from write cannot be absent
    }
    reads.push_back(read_ref{i, node});
  }

  // Build the constraint graph over included writes, keeping for each edge
  // the first constraint that added it. Every constraint joins two distinct
  // writes, so the graph has no self-loops.
  std::vector<std::vector<std::size_t>> adj(nodes);
  flat_hash_map<std::uint64_t, edge_reason, edge_hash> why;
  auto add_edge = [&](std::size_t a, std::size_t b, edge_reason reason) {
    edge_reason& slot = why[edge_key(a, b)];
    if (slot.kind != edge_reason::rule::none) return;
    slot = reason;
    adj[a].push_back(b);
  };

  // w0 precedes every included write.
  for (std::size_t k = 1; k < nodes; ++k) {
    if (included[k]) add_edge(0, k, {edge_reason::rule::initial});
  }

  // P1: write-write real-time precedence.
  for (std::size_t a = 1; a < nodes; ++a) {
    if (!included[a]) continue;
    for (std::size_t b = 1; b < nodes; ++b) {
      if (a == b || !included[b]) continue;
      if (end2_of(a) < start2_of(b)) add_edge(a, b, {edge_reason::rule::p1});
    }
  }

  // C0/C1/C2: read-write constraints.
  for (const read_ref& rr : reads) {
    const op_record& r = ops[rr.op];
    if (r.end2 < start2_of(rr.write)) {
      return {false,
              "read precedes the write it returns: " + r.describe() + " vs " +
                  describe_node(rr.write),
              false};
    }
    for (std::size_t w = 0; w < nodes; ++w) {
      if (!included[w] || w == rr.write) continue;
      // C1: w wholly precedes r, so w cannot follow r's write.
      if (end2_of(w) < r.start2) add_edge(w, rr.write, {edge_reason::rule::c1, rr.op});
      // C2: r wholly precedes w, so r's write must precede w.
      if (r.end2 < start2_of(w)) add_edge(rr.write, w, {edge_reason::rule::c2, rr.op});
    }
  }

  // C3: read-read precedence across different writes.
  for (const read_ref& r1 : reads) {
    for (const read_ref& r2 : reads) {
      if (r1.write == r2.write) continue;
      if (ops[r1.op].end2 < ops[r2.op].start2) {
        add_edge(r1.write, r2.write, {edge_reason::rule::c3, r1.op, r2.op});
      }
    }
  }

  const auto cyc = find_cycle(adj);
  if (cyc.empty()) return {true, "", false};

  auto explain = [&](std::size_t a, std::size_t b) -> std::string {
    const edge_reason& r = *why.find(edge_key(a, b));
    switch (r.kind) {
      case edge_reason::rule::initial:
        return "initial value precedes all writes";
      case edge_reason::rule::p1:
        return describe_node(a) + " precedes " + describe_node(b);
      case edge_reason::rule::c1:
        return describe_node(a) + " precedes " + ops[r.read].describe() + " which returns " +
               describe_node(b);
      case edge_reason::rule::c2:
        return ops[r.read].describe() + " (returning " + describe_node(a) + ") precedes " +
               describe_node(b);
      case edge_reason::rule::c3:
        return ops[r.read].describe() + " precedes " + ops[r.later_read].describe() +
               " but they return opposite-ordered writes";
      case edge_reason::rule::none:
        break;
    }
    return {};
  };
  std::string ex = "no legal sequential completion; constraint cycle:\n";
  for (std::size_t i = 0; i < cyc.size(); ++i) {
    const std::size_t a = cyc[i];
    const std::size_t b = cyc[(i + 1) % cyc.size()];
    ex += "  " + describe_node(a) + " -> " + describe_node(b) + "   [" + explain(a, b) + "]\n";
  }
  return {false, ex, false};
}

}  // namespace remus::history
