// The loopback workload: one quorum group of three replicas hosted in
// this process, each with its own tcp_transport on a probed loopback port,
// its own wal_store over file_media (fsync on every append) in a fresh
// directory, and its own runtime::node. All three nodes coordinate client
// operations; all share one history::recorder, which is checked per key
// after the run.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "check.h"
#include "common/rng.h"
#include "history/recorder.h"
#include "proto/policy.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/wal_store.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace remus;

constexpr std::uint32_t kN = 3;                // replicas; one client per node
constexpr std::size_t kValueBytes = 64;
constexpr register_id kWarmKeyBase = 1u << 30;  // outside every workload's keys

bool port_block_free(std::uint16_t base, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    if (rc != 0) return false;
  }
  return true;
}

/// A block of kN free loopback ports, starting at a pid-dependent place so
/// concurrent runs rarely probe the same block.
std::uint16_t probe_ports() {
  std::uint32_t base = 20000 + (static_cast<std::uint32_t>(::getpid()) * 7919u) % 30000;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (port_block_free(static_cast<std::uint16_t>(base), kN)) {
      return static_cast<std::uint16_t>(base);
    }
    base = 20000 + (base - 20000 + kN + 11) % 30000;
  }
  throw std::runtime_error("no free block of loopback ports");
}

/// Records a span from `start` to now (when the tracer is on).
void record_span(span_kind k, std::uint8_t node, std::int64_t start) {
  span s;
  s.kind = k;
  s.node = node;
  s.start = start;
  s.end = now_ns();
  tracer::record(s);
}

struct rebuild_stats {
  double total_ms = 0;     // rebuild start -> first read served by the rebuilt node
  double reopen_ms = 0;    // wal_store construction (snapshot + log replay)
  double protocol_ms = 0;  // node::crash + node::recover
  double replay_bytes = 0;
  double frames_replayed = 0;
};

/// The three-replica group. In the traced pass every transport, store and
/// medium is wrapped in its trace decorator.
class deployment {
 public:
  deployment(std::filesystem::path dir, bool traced, std::uint64_t seed)
      : dir_(std::move(dir)), traced_(traced), seed_(seed), base_port_(probe_ports()) {
    for (std::uint32_t i = 0; i < kN; ++i) build(i, false);
  }

  ~deployment() {
    for (replica& r : replicas_) r.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  runtime::node& node(std::uint32_t i) { return *replicas_[i].nd; }
  history::recorder& recorder() { return rec_; }

  /// A globally unique 64-byte write value (the checkers require unique
  /// write values): a counter in the leading 8 bytes, filler after it.
  value next_value() {
    const std::uint64_t id = next_value_.fetch_add(1, std::memory_order_relaxed);
    value v;
    v.data.resize(kValueBytes);
    for (std::size_t b = 0; b < 8; ++b) v.data[b] = static_cast<std::uint8_t>(id >> (8 * b));
    for (std::size_t b = 8; b < kValueBytes; ++b) {
      v.data[b] = static_cast<std::uint8_t>(id * 131 + b);
    }
    return v;
  }

  /// Every node reads its own warm-up key a few times, which opens every
  /// lazy TCP connection in both directions. Reads need no fsync, so the
  /// warm-up does not time the host's disk.
  void warm_up() {
    for (int round = 0; round < 5; ++round) {
      for (std::uint32_t i = 0; i < kN; ++i) (void)node(i).read(kWarmKeyBase + i);
    }
  }

  /// Tears replica i down (node, transport, store) and rebuilds it from its
  /// WAL directory: a new transport, wal_store replay, node::crash() +
  /// recover(), then one read of `probe_key` through the rebuilt node.
  rebuild_stats rebuild(std::uint32_t i, register_id probe_key) {
    replicas_[i].reset();
    rebuild_stats st;
    const std::int64_t t0 = now_ns();
    build(i, true, &st);
    (void)node(i).read(probe_key);
    st.total_ms = static_cast<double>(now_ns() - t0) / 1e6;
    return st;
  }

  /// Frames handed to the transports and frames they dropped, all replicas.
  std::pair<std::uint64_t, std::uint64_t> datagrams() const {
    std::uint64_t sent = 0, dropped = 0;
    for (const replica& r : replicas_) {
      sent += r.net->datagrams_sent();
      dropped += r.net->datagrams_dropped();
    }
    return {sent, dropped};
  }

 private:
  struct replica {
    std::unique_ptr<runtime::transport> net;
    std::unique_ptr<storage::stable_store> store;
    std::unique_ptr<runtime::node> nd;

    replica() = default;
    ~replica() { reset(); }
    replica(const replica&) = delete;
    replica& operator=(const replica&) = delete;

    /// Tears the replica down. crash() detaches the node; destroying the
    /// transport then joins its thread, so no handler is running when the
    /// node itself goes away.
    void reset() {
      if (nd) nd->crash();
      net.reset();
      nd.reset();
      store.reset();
    }
  };

  void build(std::uint32_t i, bool recover, rebuild_stats* st = nullptr) {
    replica& r = replicas_[i];
    const auto node_tag = static_cast<std::uint8_t>(i);
    runtime::tcp_transport_options topt;
    topt.n = kN;
    topt.base_port = base_port_;
    topt.self = i;
    r.net = std::make_unique<runtime::tcp_transport>(topt);
    if (traced_) r.net = std::make_unique<traced_transport>(std::move(r.net), i, kN);

    std::unique_ptr<storage::wal_media> media = std::make_unique<storage::file_media>(
        dir_ / ("replica-" + std::to_string(i)), /*fsync_enabled=*/true);
    if (traced_) media = std::make_unique<traced_media>(std::move(media), node_tag);
    std::int64_t t = now_ns();
    auto wal = std::make_unique<storage::wal_store>(std::move(media));
    if (st != nullptr) {
      record_span(span_kind::recovery_reopen, node_tag, t);
      st->reopen_ms = static_cast<double>(now_ns() - t) / 1e6;
      st->replay_bytes = static_cast<double>(wal->last_recovery().bytes_read);
      st->frames_replayed = static_cast<double>(wal->last_recovery().frames_replayed);
    }
    r.store = std::move(wal);
    if (traced_) r.store = std::make_unique<traced_store>(std::move(r.store), node_tag);

    r.nd = std::make_unique<runtime::node>(proto::persistent_policy(), process_id{i}, kN,
                                           *r.store, *r.net, rec_, runtime::node_options{},
                                           seed_ * 0x9e3779b97f4a7c15ULL + i);
    t = now_ns();
    if (recover) {
      // A rebuilt replica enters through the paper's Recover() over the
      // surviving WAL; crash() puts the fresh core into the recovering state.
      r.nd->crash();
      r.nd->recover();
    } else {
      r.nd->start();
    }
    if (st != nullptr) {
      record_span(span_kind::recovery_protocol, node_tag, t);
      st->protocol_ms = static_cast<double>(now_ns() - t) / 1e6;
    }
  }


  std::filesystem::path dir_;
  bool traced_;
  std::uint64_t seed_;
  std::uint16_t base_port_;
  history::recorder rec_;
  std::atomic<std::uint64_t> next_value_{1};
  replica replicas_[kN];
};

/// One client thread's samples.
struct client_log {
  struct sample {
    std::int64_t end;  // completion time
    double us;         // latency
    bool is_read;
  };
  std::vector<sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  void add(std::int64_t end, std::int64_t from, bool is_read) {
    samples.push_back({end, static_cast<double>(end - from) / 1000.0, is_read});
  }
};

/// Runs one operation through `nd`, recording a client_op span when traced.
void client_op(runtime::node& nd, std::uint32_t node_index, bool is_read, register_id key,
               deployment& d, bool traced) {
  if (!traced) {
    if (is_read) {
      (void)nd.read(key);
    } else {
      nd.write(key, d.next_value());
    }
    return;
  }
  const value v = is_read ? value{} : d.next_value();
  const std::size_t mark = tracer::thread_mark();
  tracer::set_current_op(0);
  span s;
  s.kind = span_kind::client_op;
  s.node = static_cast<std::uint8_t>(node_index);
  s.detail = is_read ? kIsRead : 0;
  s.start = now_ns();
  if (is_read) {
    (void)nd.read(key);
  } else {
    nd.write(key, v);
  }
  s.end = now_ns();
  s.op = tracer::current_op();
  tracer::adopt_since(mark, s.op);
  tracer::record(s);
  tracer::set_current_op(0);
}

/// Runs `body(client, log)` on kN client threads, one per node, and joins.
template <typename Body>
std::vector<client_log> run_clients(Body body) {
  std::vector<client_log> logs(kN);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kN; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c, logs[c]);
      } catch (const std::exception& e) {
        logs[c].error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Layer metrics from the spans of the window [w0, w1], per client operation
/// recorded in it. Also prints the critical-path accounting.
std::map<std::string, double> layer_metrics(const std::vector<span>& spans, std::int64_t w0,
                                            std::int64_t w1) {
  std::vector<const span*> in;
  for (const span& s : spans) {
    if (s.start >= w0 && s.start <= w1) in.push_back(&s);
  }
  // Per thread, by start; a parent sorts before a child that starts with it.
  std::sort(in.begin(), in.end(), [](const span* a, const span* b) {
    if (a->thread != b->thread) return a->thread < b->thread;
    if (a->start != b->start) return a->start < b->start;
    return a->end > b->end;
  });
  // Time of the spans of `is_child` kinds nested in in[k] on its thread.
  const auto nested = [&](std::size_t k, auto is_child) {
    std::int64_t sum = 0;
    for (std::size_t j = k + 1; j < in.size() && in[j]->thread == in[k]->thread &&
                                in[j]->start < in[k]->end;
         ++j) {
      if (is_child(in[j]->kind) && in[j]->end <= in[k]->end) sum += in[j]->duration();
    }
    return sum;
  };

  struct op_info {
    std::uint8_t node;  // the coordinator
    bool is_read;
  };
  std::unordered_map<std::uint64_t, op_info> client_ops;
  for (const span* s : in) {
    if (s->kind == span_kind::client_op) {
      client_ops[s->op] = {s->node, (s->detail & kIsRead) != 0};
    }
  }
  std::vector<double> op_us, read_op_us, write_op_us, prelog_us;
  std::vector<double> q_read, q_write, u_read, u_write, q_all, u_all;
  std::vector<double> dispatch_us, dispatch_self_us, send_us, store_us, store_self_us;
  std::vector<double> fsync_us;
  double frames = 0, bytes = 0, media_bytes = 0, snapshots = 0, snapshot_ms = 0;
  double busy[kN] = {0, 0, 0};
  for (std::size_t k = 0; k < in.size(); ++k) {
    const span& s = *in[k];
    const double us = static_cast<double>(s.duration()) / 1000.0;
    const bool rd = (s.detail & kIsRead) != 0;
    switch (s.kind) {
      case span_kind::client_op:
        op_us.push_back(us);
        (rd ? read_op_us : write_op_us).push_back(us);
        break;
      case span_kind::round_query:
        q_all.push_back(us);
        (rd ? q_read : q_write).push_back(us);
        break;
      case span_kind::round_update:
        u_all.push_back(us);
        (rd ? u_read : u_write).push_back(us);
        break;
      case span_kind::dispatch: {
        dispatch_us.push_back(us);
        const std::int64_t child = nested(k, [](span_kind c) {
          return c == span_kind::store || c == span_kind::send;
        });
        dispatch_self_us.push_back(static_cast<double>(s.duration() - child) / 1000.0);
        if (s.node < kN) busy[s.node] += static_cast<double>(s.duration());
        break;
      }
      case span_kind::send:
        send_us.push_back(us);
        frames += s.frames;
        bytes += s.bytes;
        break;
      case span_kind::store: {
        store_us.push_back(us);
        const std::int64_t media = nested(k, [](span_kind c) {
          return c == span_kind::media_append || c == span_kind::media_snapshot;
        });
        store_self_us.push_back(static_cast<double>(s.duration() - media) / 1000.0);
        const auto it = client_ops.find(s.op);
        if (it != client_ops.end() && !it->second.is_read && it->second.node == s.node &&
            s.detail == static_cast<std::uint8_t>(storage::record_area::writing)) {
          prelog_us.push_back(us);  // the coordinator's pre-log of its own write
        }
        break;
      }
      case span_kind::media_append:
        fsync_us.push_back(us);
        media_bytes += s.bytes;
        break;
      case span_kind::media_snapshot:
        snapshots += 1;
        snapshot_ms += us / 1000.0;
        break;
      default:
        break;
    }
  }
  std::map<std::string, double> L;
  const double ops = static_cast<double>(op_us.size());
  if (ops == 0) return L;
  L["media.fsyncs_per_op"] = static_cast<double>(fsync_us.size()) / ops;
  L["media.fsync_us_p50"] = percentile(fsync_us, 0.5);
  L["media.fsync_us_p99"] = percentile(fsync_us, 0.99);
  L["media.bytes_per_op"] = media_bytes / ops;
  L["media.snapshots"] = snapshots;
  L["media.snapshot_ms_total"] = snapshot_ms;
  L["wal.appends_per_op"] = static_cast<double>(store_us.size()) / ops;
  L["wal.append_us_p50"] = percentile(store_us, 0.5);
  L["wal.self_us_p50"] = percentile(store_self_us, 0.5);
  L["node.op_us_p50"] = percentile(op_us, 0.5);
  L["node.dispatch_per_op"] = static_cast<double>(dispatch_us.size()) / ops;
  L["node.dispatch_us_p50"] = percentile(dispatch_us, 0.5);
  L["node.dispatch_self_us_p50"] = percentile(dispatch_self_us, 0.5);
  L["node.busy_frac_max"] = *std::max_element(busy, busy + kN) / static_cast<double>(w1 - w0);
  L["transport.frames_per_op"] = frames / ops;
  L["transport.bytes_per_op"] = bytes / ops;
  L["transport.send_us_p50"] = percentile(send_us, 0.5);
  L["round.query_us_p50"] = percentile(q_all, 0.5);
  L["round.update_us_p50"] = percentile(u_all, 0.5);

  // Critical-path accounting: the blocking steps' medians against the
  // operation's median. Residual = explained / measured - 1.
  const double w_op = percentile(write_op_us, 0.5);
  const double r_op = percentile(read_op_us, 0.5);
  if (w_op > 0) {
    const double r = (percentile(prelog_us, 0.5) + percentile(q_write, 0.5) +
                      percentile(u_write, 0.5)) / w_op - 1.0;
    L["accounting.write_residual_frac"] = r;
    std::printf("accounting: write residual %+.3f %s\n", r,
                std::abs(r) <= 0.25 ? "(within 25%)" : "(OUTSIDE 25%)");
  }
  if (r_op > 0) {
    const double r = (percentile(q_read, 0.5) + percentile(u_read, 0.5)) / r_op - 1.0;
    L["accounting.read_residual_frac"] = r;
    std::printf("accounting: read residual %+.3f %s\n", r,
                std::abs(r) <= 0.25 ? "(within 25%)" : "(OUTSIDE 25%)");
  }
  return L;
}

/// Whole-run client latency by type, with sample counts.
void client_metrics(report& rep, const std::vector<client_log>& logs, const char* type,
                    bool reads) {
  std::vector<double> v;
  for (const client_log& l : logs) {
    for (const client_log::sample& x : l.samples) {
      if (x.is_read == reads) v.push_back(x.us);
    }
  }
  const std::string p = std::string("client.") + type;
  rep.layer[p + "_samples"] = static_cast<double>(v.size());
  rep.layer[p + "_p50_us"] = percentile(v, 0.5);
  rep.layer[p + "_p90_us"] = percentile(v, 0.9);
  rep.layer[p + "_p99_us"] = percentile(v, 0.99);
  rep.layer[p + "_p999_us"] = percentile(v, 0.999);
}

/// The figures of the measured phase. latency_us is the favourable quartile
/// of its whole seconds, the 25th percentile of the per-second medians: a
/// shared host's scheduler slows whole seconds at a time, while a change to
/// the program moves every second. ops_per_cpu_s divides the reads by the
/// process's CPU time in the phase, which other tenants' load leaves far
/// steadier than the wall-clock rate (wall.ops_per_s).
void end_to_end(report& rep, const std::vector<client_log>& logs, std::int64_t w0,
                double cpu_s) {
  std::int64_t last_end = w0;
  for (const client_log& l : logs) {
    rep.attempted += l.attempted;
    rep.failed += l.failed;
    // No read fails on a healthy group of three replicas.
    if (!l.error.empty()) rep.fail("loopback_read: a client failed: " + l.error);
    for (const client_log::sample& x : l.samples) last_end = std::max(last_end, x.end);
  }
  const auto intervals = static_cast<std::size_t>((last_end - w0) / 1'000'000'000);
  std::vector<std::vector<double>> per_second(std::max<std::size_t>(intervals, 1));
  for (const client_log& l : logs) {
    for (const client_log::sample& x : l.samples) {
      const auto i = static_cast<std::size_t>((x.end - w0) / 1'000'000'000);
      if (i < per_second.size()) per_second[i].push_back(x.us);
    }
  }
  std::vector<double> rate, p50;
  double reads = 0;
  std::printf("per second: ops, p50_us");
  for (std::vector<double>& v : per_second) {
    rate.push_back(static_cast<double>(v.size()));
    reads += static_cast<double>(v.size());
    if (!v.empty()) p50.push_back(percentile(v, 0.5));
    std::printf(" %zu,%.0f", v.size(), v.empty() ? 0.0 : p50.back());
  }
  std::printf("\n");
  rep.e2e["ops_per_cpu_s"] = reads / cpu_s;
  rep.e2e["latency_us"] = percentile(p50, 0.25);
  rep.layer["wall.ops_per_s"] = percentile(rate, 0.75);
}

/// Checks the shared history per key and records history.* metrics.
void check_history(report& rep, deployment& d) {
  const history::history_log h = d.recorder().events();
  const std::int64_t t0 = now_ns();
  keyed_verdict v;
  {
    scoped_span sp(span_kind::check_atomicity);
    v = check_every_key(h);
  }
  const double secs = seconds_since(t0);
  rep.layer["history.check_s"] = secs;
  rep.layer["history.atomicity_s"] = secs;
  rep.layer["history.keys_checked"] = static_cast<double>(v.keys_checked);
  rep.layer["history.us_per_key"] =
      v.keys_checked > 0 ? secs * 1e6 / static_cast<double>(v.keys_checked) : 0;
  if (!v.ok) rep.fail("persistent atomicity violated at " + v.explanation);
}

}  // namespace

report run_loopback_read(const options& opt, bool traced) {
  // After setup, the clients write kKeys keys once; the measured phase is a
  // closed loop of reads over them, one client per node. Reads need no
  // fsync, so the figures follow the transport, codec and dispatch, not the
  // host's disk, whose speed changes for minutes at a time.
  constexpr std::uint64_t kKeys = 10'000;
  constexpr int kSetups = 41;
  // Fixed work, about --seconds long on a 4-core host today, so that memory
  // figures do not scale with throughput. A host slower than a third of that
  // stops the phase at 3 x --seconds instead.
  constexpr double kOpsPerSecond = 20'000;
  report rep;

  // Setup (deploy, connect, warm up), kSetups times; the last deployment is
  // kept. setup_s is the fastest setup: one takes a few milliseconds, so
  // other tenants' threads on a shared host can double it.
  std::vector<double> setup_secs;
  std::unique_ptr<deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    const std::int64_t t0 = now_ns();
    d = std::make_unique<deployment>(opt.work_dir / ("deploy-" + std::to_string(k)), traced,
                                     opt.seed + static_cast<std::uint64_t>(k));
    d->warm_up();
    setup_secs.push_back(seconds_since(t0));
  }
  std::printf("setups, ms:");
  for (double x : setup_secs) std::printf(" %.2f", x * 1e3);
  std::printf("\n");
  rep.e2e["setup_s"] = std::ranges::min(setup_secs);

  // Write every key once. The traced pass traces these writes: they give
  // the storage layers' figures.
  if (traced) tracer::start();
  const std::int64_t p0 = now_ns();
  const std::vector<client_log> populate = run_clients([&](std::uint32_t c, client_log& log) {
    for (register_id key = c; key < kKeys; key += kN) {
      const std::int64_t start = now_ns();
      client_op(d->node(c), c, /*is_read=*/false, key, *d, traced);
      log.add(now_ns(), start, false);
    }
  });
  const std::int64_t p1 = now_ns();
  for (const client_log& l : populate) {
    if (!l.error.empty()) throw std::runtime_error("populate: " + l.error);
  }
  client_metrics(rep, populate, "write", false);

  // Tear each replica down in turn and rebuild it from its WAL directory.
  rng probe(opt.seed ^ 0x7265636f76657279ULL);
  std::vector<double> total, reopen, protocol, replay_bytes, frames;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const rebuild_stats st = d->rebuild(i, static_cast<register_id>(probe.next_below(kKeys)));
    total.push_back(st.total_ms);
    reopen.push_back(st.reopen_ms);
    protocol.push_back(st.protocol_ms);
    replay_bytes.push_back(st.replay_bytes);
    frames.push_back(st.frames_replayed);
  }
  rep.layer["recovery.total_ms"] = median(total);
  rep.layer["recovery.reopen_ms"] = median(reopen);
  rep.layer["recovery.protocol_ms"] = median(protocol);
  rep.layer["recovery.replay_bytes"] = median(replay_bytes);
  rep.layer["recovery.frames_replayed"] = median(frames);
  // Reopen the connections the rebuilds broke: a peer learns that its old
  // connection died only when a send fails, then backs off before it
  // reconnects, so warm up, wait out the backoff, and warm up again.
  d->warm_up();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  d->warm_up();

  const auto dgram_before = d->datagrams();
  // The traced pass runs a quarter of the operations: enough for the layer
  // medians, with a quarter of the span memory.
  const auto per_client =
      static_cast<std::uint64_t>(kOpsPerSecond * opt.seconds / kN / (traced ? 4 : 1));
  const double cpu0 = cpu_seconds();
  const std::int64_t w0 = now_ns();
  const std::int64_t deadline = w0 + static_cast<std::int64_t>(3e9 * opt.seconds);
  auto logs = run_clients([&](std::uint32_t c, client_log& log) {
    rng r(opt.seed * 1000003 + 17 + c);
    runtime::node& nd = d->node(c);
    log.samples.reserve(per_client);
    for (std::uint64_t n = 0; n < per_client && now_ns() < deadline; ++n) {
      const auto key = static_cast<register_id>(r.next_below(kKeys));
      ++log.attempted;
      const std::int64_t start = now_ns();
      try {
        client_op(nd, c, /*is_read=*/true, key, *d, traced);
      } catch (const std::exception& e) {
        ++log.failed;
        log.error = e.what();
        log.add(now_ns(), start, true);  // a timed-out read shows in the tails
        return;  // the node refuses further operations after a failed one
      }
      log.add(now_ns(), start, true);
    }
  });
  const std::int64_t w1 = now_ns();
  const double cpu_s = cpu_seconds() - cpu0;
  const auto dgram_after = d->datagrams();
  end_to_end(rep, logs, w0, cpu_s);
  client_metrics(rep, logs, "read", true);
  const std::uint64_t sent = dgram_after.first - dgram_before.first;
  rep.layer["transport.drop_frac"] =
      sent > 0 ? static_cast<double>(dgram_after.second - dgram_before.second) /
                     static_cast<double>(sent)
               : 0;
  rep.layer["client.failed_frac"] =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                        : 0;

  check_history(rep, *d);
  d.reset();  // joins every transport thread before the spans are gathered
  if (traced) {
    const std::vector<span> spans = tracer::stop();
    // The storage layers from the traced writes, everything else
    // from the measured reads.
    for (const auto& [name, v] : layer_metrics(spans, p0, p1)) {
      if (name.starts_with("media.") || name.starts_with("wal.") ||
          name == "accounting.write_residual_frac") {
        rep.layer[name] = v;
      }
    }
    for (const auto& [name, v] : layer_metrics(spans, w0, w1)) {
      if (!name.starts_with("media.") && !name.starts_with("wal.")) rep.layer[name] = v;
    }
  }
  rep.e2e["peak_rss_mb"] = peak_rss_mb();
  return rep;
}

}  // namespace perfbench
