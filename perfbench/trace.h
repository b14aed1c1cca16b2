// Tracing for the benchmark's traced pass: an in-memory span recorder plus
// decorators around the objects the library already takes by interface.
//
//   traced_media     wraps a storage::wal_media   (file_media: write + fsync)
//   traced_store     wraps a storage::wal_store   (one WAL append per store)
//   traced_transport wraps a runtime::transport   (tcp_transport), including
//                    the handler passed to attach(), so every dispatch into
//                    runtime::node is a span too
//
// Nothing under src/ is instrumented: the decorators are installed only in
// the traced pass, so the untraced pass runs the library exactly as a user
// would. Spans go to per-thread buffers (no locking on the hot path) and are
// gathered once every traced thread has been joined.
//
// Spans of one operation share an id. A client operation's id is
// (coordinator, epoch, op_seq) of the messages it broadcasts; replica-side
// spans take the same id from the message's (from, epoch, op_seq) fields —
// acks echo the coordinator's epoch and op_seq, so an ack's operation is
// (receiver, epoch, op_seq). Spans nested inside a dispatch or a client
// operation on the same thread inherit its id.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "runtime/transport.h"
#include "storage/wal_store.h"

namespace perfbench {

enum class span_kind : std::uint8_t {
  client_op,        // node::read / node::write on a client thread
  round_query,      // first-round broadcast -> majority of acks
  round_update,     // second-round broadcast -> majority of acks
  dispatch,         // transport handler -> runtime::node
  send,             // transport send/broadcast call
  store,            // stable_store mutation (one WAL append)
  media_append,     // wal_media::append_log (write + fsync)
  media_snapshot,   // wal_media::install_snapshot (compaction)
  recovery_reopen,  // wal_store construction: snapshot + log replay
  recovery_protocol,  // node::crash + node::recover
  router_run,       // core::shard_router::run_until_idle
  check_atomicity,  // per-key persistent atomicity
  check_tag_order,  // history::check_tag_order_per_key
  plan,             // sim::make_adversarial_plan
  scenario_run,     // core::run_scenario
};

/// detail bits of a span: the message kind for send/dispatch, the record
/// area for store, and kIsRead for client_op and round spans.
inline constexpr std::uint8_t kIsRead = 0x80;

struct span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t op = 0;  // 0 = not tied to an operation
  std::uint32_t bytes = 0;
  std::uint16_t thread = 0;
  span_kind kind = span_kind::client_op;
  std::uint8_t node = 0xff;  // replica index, 0xff = none
  std::uint8_t detail = 0;
  std::uint8_t frames = 0;  // send: frames handed to the transport

  [[nodiscard]] std::int64_t duration() const { return end - start; }
};

/// Operation id of (coordinator, epoch, op_seq).
[[nodiscard]] std::uint64_t op_id(std::uint32_t coordinator, std::uint64_t epoch,
                                  std::uint64_t op_seq);

class tracer {
 public:
  /// Clears every buffer and starts recording.
  static void start();
  /// Stops recording and returns every span. Call only after the threads
  /// that recorded spans have stopped recording (joined or idle).
  [[nodiscard]] static std::vector<span> stop();
  [[nodiscard]] static bool on() { return on_.load(std::memory_order_relaxed); }

  static void record(const span& s);
  /// Number of spans this thread has recorded (client_op id fix-up).
  [[nodiscard]] static std::size_t thread_mark();
  /// Gives every span this thread recorded since `mark` that has no
  /// operation id the id `op`.
  static void adopt_since(std::size_t mark, std::uint64_t op);

  /// The operation the calling thread is working on (0 = none).
  [[nodiscard]] static std::uint64_t current_op();
  static void set_current_op(std::uint64_t op);

 private:
  static std::atomic<bool> on_;
};

/// Records one span over its lifetime when the tracer is on.
class scoped_span {
 public:
  scoped_span(span_kind k, std::uint8_t node = 0xff, std::uint8_t detail = 0,
              std::uint32_t bytes = 0, std::uint8_t frames = 0)
      : active_(tracer::on()) {
    if (!active_) return;
    s_.kind = k;
    s_.node = node;
    s_.detail = detail;
    s_.bytes = bytes;
    s_.frames = frames;
    s_.op = tracer::current_op();
    s_.start = now_ns();
  }
  ~scoped_span() {
    if (!active_) return;
    s_.end = now_ns();
    tracer::record(s_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  bool active_;
  span s_;
};

class traced_media final : public remus::storage::wal_media {
 public:
  traced_media(std::unique_ptr<remus::storage::wal_media> inner, std::uint8_t node)
      : inner_(std::move(inner)), node_(node) {}

  void append_log(std::span<const std::uint8_t> data) override;
  void install_snapshot(const remus::bytes& snapshot) override;
  void truncate_log(std::size_t size) override { inner_->truncate_log(size); }
  void load(remus::bytes& snapshot, remus::bytes& log) const override {
    inner_->load(snapshot, log);
  }
  void wipe() override { inner_->wipe(); }

 private:
  std::unique_ptr<remus::storage::wal_media> inner_;
  std::uint8_t node_;
};

class traced_store final : public remus::storage::stable_store {
 public:
  traced_store(std::unique_ptr<remus::storage::stable_store> inner, std::uint8_t node)
      : inner_(std::move(inner)), node_(node) {}

  void store(remus::storage::record_key key, const remus::bytes& record) override;
  void store_and_obsolete(remus::storage::record_key key, const remus::bytes& record,
                          std::span<const remus::storage::record_key> obsolete) override;
  [[nodiscard]] std::optional<remus::bytes> retrieve(
      remus::storage::record_key key) const override {
    return inner_->retrieve(key);
  }
  void for_each(remus::storage::record_area area,
                const std::function<void(remus::register_id, const remus::bytes&)>& fn)
      const override {
    inner_->for_each(area, fn);
  }
  void erase(remus::storage::record_key key) override;
  void wipe() override { inner_->wipe(); }
  [[nodiscard]] std::uint64_t store_count() const override {
    return inner_->store_count();
  }

 private:
  std::unique_ptr<remus::storage::stable_store> inner_;
  std::uint8_t node_;
};

class traced_transport final : public remus::runtime::transport {
 public:
  /// `self` is the process this transport serves, `n` the group size.
  traced_transport(std::unique_ptr<remus::runtime::transport> inner, std::uint32_t self,
                   std::uint32_t n)
      : self_(self), n_(n), inner_(std::move(inner)) {}

  void attach(remus::process_id p, handler h) override;
  void detach(remus::process_id p) override { inner_->detach(p); }
  void send(remus::process_id to, const remus::proto::message& m) override;
  void broadcast(std::uint32_t n, const remus::proto::message& m) override;
  [[nodiscard]] std::uint64_t datagrams_sent() const override {
    return inner_->datagrams_sent();
  }
  [[nodiscard]] std::uint64_t datagrams_dropped() const override {
    return inner_->datagrams_dropped();
  }

 private:
  struct open_round {
    std::int64_t start = 0;
    std::uint32_t acks = 0;  // bitmask of acknowledging processes
    bool update = false;
    bool is_read = false;
  };
  struct round_key {
    std::uint64_t epoch, op_seq;
    std::uint32_t round;
    bool operator==(const round_key&) const = default;
  };
  struct round_key_hash {
    std::size_t operator()(const round_key& k) const noexcept {
      return static_cast<std::size_t>(k.epoch * 0x9e3779b97f4a7c15ULL ^ k.op_seq * 31 ^
                                      k.round);
    }
  };

  void open(const remus::proto::message& m);
  void on_ack(const remus::proto::message& m, std::int64_t at);

  const std::uint32_t self_;
  const std::uint32_t n_;
  std::mutex mu_;  // guards rounds_
  std::unordered_map<round_key, open_round, round_key_hash> rounds_;
  // Declared last: destroying the inner transport joins its thread, which
  // may still be running a wrapped handler that touches the members above.
  std::unique_ptr<remus::runtime::transport> inner_;
};

}  // namespace perfbench
