// Real-socket transport: the emulation's first steps off the simulator and
// onto an actual network stack.
//
// One tcp_transport instance serves one process of an n-process group.
// Process i listens on 127.0.0.1:(base_port + i). Frames are
// length-prefixed proto::encode images ([u32 LE length][payload]), so the
// same codec that crosses the simulated wire crosses the kernel's.
//
// One connection per process pair, carrying frames both ways. A process
// connects to a peer only when it has frames for it and no connection to
// that peer exists; the connecting side first writes a hello, its own
// process index as a u32 LE, and the accepting side learns the peer from
// it (a hello naming the receiver itself or an index >= n closes the
// connection). Either side then sends on that one routed connection, so a
// reply rides back on the connection its request came in on and carries
// the kernel's ACK for it. If both ends connect at once, both connections
// stay readable; the route prefers the one opened by the lower index and
// switches only while nothing is queued, so a frame never splits across
// streams. When the routed connection dies, another live connection to
// that peer is adopted if there is one.
//
// Datagram semantics over a stream: the quorum protocol assumes fair-lossy
// messaging and owns reliability (retransmission, epoch nonces), so this
// transport deliberately keeps UDP-shaped delivery guarantees — a frame
// either arrives whole or not at all, and is dropped without notice when
//   * the peer is not listening yet / anymore (connect fails, connection
//     resets — everything queued for that connection goes with it),
//   * the peer's outbound queue is full (bounded per-peer pending bytes),
//   * the receiving process has no handler attached (crashed node).
// Reconnection is automatic with a short backoff; the protocol's
// retransmission machinery papers over every loss, exactly as it does over
// the simulator's coin-flip drops.
//
// Threading: one epoll thread per transport runs every handler (the
// `transport` contract) and is the only thread that opens or closes a
// socket. A send() from another thread writes straight to the routed
// socket when nothing is queued for that peer, and otherwise queues behind
// the earlier frames; a thread whose write fails only shuts the socket down
// and unroutes the peer. Sends made by handlers are queued and written once
// the epoll thread's event batch is done, so replies to one peer share a
// write and cost no wake-up. Self-sends are always queued and delivered
// asynchronously on the epoll thread, so delivery order to the local
// handler never depends on who sent. Socket writes never raise SIGPIPE.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/transport.h"

namespace remus::runtime {

struct tcp_transport_options {
  /// Group size: peers are processes 0 .. n-1.
  std::uint32_t n = 3;
  /// Process i listens on base_port + i (loopback only). Must be nonzero.
  std::uint16_t base_port = 0;
  /// Which process this instance is.
  std::uint32_t self = 0;
  /// Per-peer outbound buffer cap; whole frames are dropped beyond it.
  std::size_t max_pending_bytes = 1u << 20;
  /// Frames larger than this on the inbound side indicate a desynced or
  /// hostile stream; the connection is dropped.
  std::uint32_t max_frame_bytes = 1u << 24;
};

/// The first of `count` consecutive loopback ports that are all bindable
/// now, probed from a pid-dependent start so concurrent processes rarely
/// pick the same block. Throws driver_error when no block is free.
[[nodiscard]] std::uint16_t probe_base_port(std::uint32_t count);

class tcp_transport final : public transport {
 public:
  explicit tcp_transport(tcp_transport_options opt);
  ~tcp_transport() override;

  tcp_transport(const tcp_transport&) = delete;
  tcp_transport& operator=(const tcp_transport&) = delete;

  void attach(process_id p, handler h) override;
  void detach(process_id p) override;

  void send(process_id to, const proto::message& m) override;
  void broadcast(std::uint32_t n, const proto::message& m) override;

  [[nodiscard]] std::uint64_t datagrams_sent() const override;
  [[nodiscard]] std::uint64_t datagrams_dropped() const override;

 private:
  static constexpr std::uint32_t no_peer = ~0u;

  /// One socket to a peer, opened by either side. Created, read and closed
  /// only by the epoll thread; sending threads reach it through a route,
  /// under mu_, which also guards every change to `connecting` and `dead`.
  struct conn {
    int fd = -1;
    std::uint32_t id = 0;          // epoll tag; never reused, unlike fds
    std::uint32_t peer = no_peer;  // accepted sockets learn it from the hello
    bool outbound = false;         // this process opened it
    bool connecting = false;       // non-blocking connect still in flight
    bool dead = false;             // shut down by a failed write; awaiting close
    bytes buf;                     // inbound bytes short of a whole frame
  };
  /// Outbound state for one peer, guarded by mu_.
  struct peer_state {
    conn* route = nullptr;   // the connection this peer's frames go out on
    conn* better = nullptr;  // preferred connection to switch to once idle
    bool out_armed = false;  // EPOLLOUT registered on route
    bytes pending;           // queued frames, possibly partially written
    std::uint32_t pending_frames = 0;
    std::chrono::steady_clock::time_point next_attempt{};
  };

  void loop();
  /// Queues or writes one frame; true when the epoll thread must be woken.
  bool enqueue_locked(std::uint32_t to, std::span<const std::uint8_t> wire, bool on_loop);
  void flush_locked(peer_state& ps);
  void set_out_interest_locked(peer_state& ps, bool want);
  void fail_route_locked(peer_state& ps);
  void drop_pending_locked(peer_state& ps);
  void adopt_locked(std::uint32_t peer);
  void connect_locked(std::uint32_t peer);
  void service_peers_locked();
  [[nodiscard]] bool preferred(const conn& c) const;
  void accept_all();
  void on_conn_event(conn& c, std::uint32_t events);
  /// Both return false when they closed (and destroyed) the connection.
  bool read_conn(conn& c);
  bool consume(conn& c, std::span<const std::uint8_t> data);
  void close_conn(conn& c);
  void deliver_frame(std::span<const std::uint8_t> wire);
  void drain_self_queue();
  void wake();

  tcp_transport_options opt_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};

  std::map<std::uint32_t, conn> conns_;  // by id; epoll thread only, erased under mu_
  std::uint32_t next_conn_id_ = 0;       // epoll thread only
  bytes self_batch_;                     // epoll thread only: frames being delivered

  mutable std::mutex mu_;
  std::map<std::uint32_t, handler> handlers_;
  std::vector<peer_state> peers_;  // indexed by process
  bytes self_pending_;             // framed self-sends, drained by the loop
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;

  std::thread loop_thread_;
};

}  // namespace remus::runtime
