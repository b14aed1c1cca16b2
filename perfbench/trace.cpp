#include "trace.h"

#include <algorithm>
#include <bit>

#include "proto/message.h"

namespace perfbench {

using remus::proto::is_ack_kind;
using remus::proto::message;
using remus::proto::msg_kind;

namespace {

struct thread_buffer {
  std::vector<span> spans;
  std::uint16_t id = 0;
};

std::mutex g_buffers_mu;  // guards g_buffers
std::vector<std::unique_ptr<thread_buffer>> g_buffers;

thread_local thread_buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_op = 0;

thread_buffer& my_buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard lk(g_buffers_mu);
    g_buffers.push_back(std::make_unique<thread_buffer>());
    tl_buffer = g_buffers.back().get();
    tl_buffer->id = static_cast<std::uint16_t>(g_buffers.size() - 1);
    tl_buffer->spans.reserve(1 << 16);
  }
  return *tl_buffer;
}

/// Restores the thread's current operation when a dispatch ends.
class op_scope {
 public:
  explicit op_scope(std::uint64_t op) : outer_(tracer::current_op()) {
    tracer::set_current_op(op);
  }
  ~op_scope() { tracer::set_current_op(outer_); }
  op_scope(const op_scope&) = delete;
  op_scope& operator=(const op_scope&) = delete;

 private:
  std::uint64_t outer_;
};

bool is_update_kind(msg_kind k) {
  return k == msg_kind::write || k == msg_kind::writeback;
}

bool is_read_kind(msg_kind k) {
  return k == msg_kind::read_query || k == msg_kind::lease_grant ||
         k == msg_kind::writeback;
}

}  // namespace

std::atomic<bool> tracer::on_{false};

std::uint64_t op_id(std::uint32_t coordinator, std::uint64_t epoch,
                    std::uint64_t op_seq) {
  std::uint64_t h = epoch * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(coordinator) + 1) * 0xbf58476d1ce4e5b9ULL;
  h ^= op_seq * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h == 0 ? 1 : h;
}

void tracer::start() {
  std::lock_guard lk(g_buffers_mu);
  for (auto& b : g_buffers) b->spans.clear();
  on_.store(true, std::memory_order_relaxed);
}

std::vector<span> tracer::stop() {
  on_.store(false, std::memory_order_relaxed);
  std::lock_guard lk(g_buffers_mu);
  std::vector<span> all;
  std::size_t total = 0;
  for (const auto& b : g_buffers) total += b->spans.size();
  all.reserve(total);
  for (auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
    b->spans.shrink_to_fit();
  }
  return all;
}

void tracer::record(const span& s) {
  if (!on()) return;
  thread_buffer& b = my_buffer();
  b.spans.push_back(s);
  b.spans.back().thread = b.id;
}

std::size_t tracer::thread_mark() { return my_buffer().spans.size(); }

void tracer::adopt_since(std::size_t mark, std::uint64_t op) {
  std::vector<span>& v = my_buffer().spans;
  for (std::size_t i = mark; i < v.size(); ++i) {
    if (v[i].op == 0) v[i].op = op;
  }
}

std::uint64_t tracer::current_op() { return tl_op; }
void tracer::set_current_op(std::uint64_t op) { tl_op = op; }

// ---- decorators --------------------------------------------------------------

void traced_media::append_log(std::span<const std::uint8_t> data) {
  scoped_span sp(span_kind::media_append, node_, 0,
                 static_cast<std::uint32_t>(data.size()));
  inner_->append_log(data);
}

void traced_media::install_snapshot(const remus::bytes& snapshot) {
  scoped_span sp(span_kind::media_snapshot, node_, 0,
                 static_cast<std::uint32_t>(snapshot.size()));
  inner_->install_snapshot(snapshot);
}

void traced_store::store(remus::storage::record_key key, const remus::bytes& record) {
  scoped_span sp(span_kind::store, node_, static_cast<std::uint8_t>(key.area),
                 static_cast<std::uint32_t>(record.size()));
  inner_->store(key, record);
}

void traced_store::store_and_obsolete(remus::storage::record_key key,
                                      const remus::bytes& record,
                                      std::span<const remus::storage::record_key> obsolete) {
  scoped_span sp(span_kind::store, node_, static_cast<std::uint8_t>(key.area),
                 static_cast<std::uint32_t>(record.size()));
  inner_->store_and_obsolete(key, record, obsolete);
}

void traced_store::erase(remus::storage::record_key key) {
  scoped_span sp(span_kind::store, node_, static_cast<std::uint8_t>(key.area), 0);
  inner_->erase(key);
}

void traced_transport::attach(remus::process_id p, handler h) {
  inner_->attach(p, [this, h = std::move(h)](const message& m) {
    const std::int64_t t = now_ns();
    const bool ack = is_ack_kind(m.kind);
    const std::uint64_t op =
        op_id(ack ? self_ : m.from.index, m.epoch, m.op_seq);
    if (ack) on_ack(m, t);
    span s;
    s.kind = span_kind::dispatch;
    s.node = static_cast<std::uint8_t>(self_);
    s.detail = static_cast<std::uint8_t>(m.kind);
    s.op = op;
    s.start = t;
    {
      op_scope scope(op);
      h(m);
    }
    s.end = now_ns();
    tracer::record(s);
  });
}

void traced_transport::send(remus::process_id to, const message& m) {
  scoped_span sp(span_kind::send, static_cast<std::uint8_t>(self_),
                 static_cast<std::uint8_t>(m.kind),
                 static_cast<std::uint32_t>(remus::proto::wire_size(m)), 1);
  inner_->send(to, m);
}

void traced_transport::broadcast(std::uint32_t n, const message& m) {
  if (!is_ack_kind(m.kind) && m.from.index == self_) {
    open(m);
    tracer::set_current_op(op_id(self_, m.epoch, m.op_seq));
  }
  scoped_span sp(span_kind::send, static_cast<std::uint8_t>(self_),
                 static_cast<std::uint8_t>(m.kind),
                 static_cast<std::uint32_t>(n * remus::proto::wire_size(m)),
                 static_cast<std::uint8_t>(n));
  inner_->broadcast(n, m);
}

void traced_transport::open(const message& m) {
  const std::int64_t t = now_ns();
  std::lock_guard lk(mu_);
  if (rounds_.size() > 256) {
    // Rounds that never reached a majority (crashed coordinator, recovery
    // rounds outside the window) must not accumulate.
    std::erase_if(rounds_, [t](const auto& kv) { return t - kv.second.start > 1'000'000'000; });
  }
  open_round r;
  r.start = t;
  r.update = is_update_kind(m.kind);
  r.is_read = is_read_kind(m.kind);
  rounds_.try_emplace(round_key{m.epoch, m.op_seq, m.round}, r);  // retransmits keep the first start
}

void traced_transport::on_ack(const message& m, std::int64_t at) {
  span s;
  {
    std::lock_guard lk(mu_);
    const auto it = rounds_.find(round_key{m.epoch, m.op_seq, m.round});
    if (it == rounds_.end()) return;
    open_round& r = it->second;
    r.acks |= 1u << (m.from.index & 31);
    if (static_cast<std::uint32_t>(std::popcount(r.acks)) < n_ / 2 + 1) return;
    s.kind = r.update ? span_kind::round_update : span_kind::round_query;
    s.detail = r.is_read ? kIsRead : 0;
    s.start = r.start;
    rounds_.erase(it);
  }
  s.end = at;
  s.node = static_cast<std::uint8_t>(self_);
  s.op = op_id(self_, m.epoch, m.op_seq);
  tracer::record(s);
}

}  // namespace perfbench
