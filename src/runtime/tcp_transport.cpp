#include "runtime/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/error.h"

namespace remus::runtime {

namespace {

// epoll_event.data.u64 encoding: what kind of fd fired, and which one.
enum class fd_kind : std::uint32_t { listener = 0, wake = 1, conn = 2 };

std::uint64_t tag(fd_kind k, std::uint32_t v) {
  return (static_cast<std::uint64_t>(k) << 32) | v;
}

constexpr auto reconnect_backoff = std::chrono::milliseconds(50);

/// The transport whose epoll thread is running on this thread, if any.
thread_local const void* tl_loop_owner = nullptr;

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32_le(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}

void append_frame(bytes& out, std::span<const std::uint8_t> wire) {
  std::uint8_t hdr[4];
  put_u32_le(hdr, static_cast<std::uint32_t>(wire.size()));
  out.insert(out.end(), hdr, hdr + 4);
  out.insert(out.end(), wire.begin(), wire.end());
}

/// Calls `deliver` on every whole frame at the front of `in` and returns the
/// bytes consumed, or SIZE_MAX when a frame's length exceeds `max_len`.
template <typename F>
std::size_t for_each_frame(std::span<const std::uint8_t> in, std::uint32_t max_len,
                           F&& deliver) {
  std::size_t off = 0;
  while (in.size() - off >= 4) {
    const std::uint32_t len = get_u32_le(in.data() + off);
    if (len > max_len) return SIZE_MAX;
    if (in.size() - off - 4 < len) break;
    deliver(in.subspan(off + 4, len));
    off += 4 + static_cast<std::size_t>(len);
  }
  return off;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

bool would_block(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

/// A TCP socket bound to 127.0.0.1:port with SO_REUSEADDR, or -1 with
/// errno set.
int bind_loopback(std::uint16_t port, int type_flags) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | type_flags, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

}  // namespace

std::uint16_t probe_base_port(std::uint32_t count) {
  std::uint32_t base = 24000 + (static_cast<std::uint32_t>(::getpid()) * 37) % 18000;
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::uint32_t bound = 0;
    while (bound < count) {
      const int fd = bind_loopback(static_cast<std::uint16_t>(base + bound), 0);
      if (fd < 0) break;
      ::close(fd);
      ++bound;
    }
    if (bound == count) return static_cast<std::uint16_t>(base);
    base = 24000 + (base - 24000 + count + 131) % 18000;
  }
  throw driver_error("probe_base_port: no free block of " + std::to_string(count) +
                     " loopback ports");
}

tcp_transport::tcp_transport(tcp_transport_options opt) : opt_(opt) {
  if (opt_.n == 0 || opt_.self >= opt_.n) {
    throw driver_error("tcp_transport: self must be < n");
  }
  if (opt_.base_port == 0) {
    throw driver_error("tcp_transport: base_port must be nonzero");
  }
  peers_.resize(opt_.n);

  listen_fd_ =
      bind_loopback(static_cast<std::uint16_t>(opt_.base_port + opt_.self), SOCK_NONBLOCK);
  if (listen_fd_ < 0 || ::listen(listen_fd_, 64) < 0) {
    const int e = errno;
    if (listen_fd_ >= 0) ::close(listen_fd_);
    throw driver_error(std::string("tcp_transport: bind/listen failed: ") +
                       std::strerror(e));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw driver_error("tcp_transport: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = tag(fd_kind::listener, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = tag(fd_kind::wake, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  loop_thread_ = std::thread([this] { loop(); });
}

tcp_transport::~tcp_transport() {
  stop_ = true;
  wake();
  loop_thread_.join();
  for (auto& [id, c] : conns_) ::close(c.fd);
  ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void tcp_transport::attach(process_id p, handler h) {
  std::lock_guard lk(mu_);
  handlers_[p.index] = std::move(h);
}

void tcp_transport::detach(process_id p) {
  std::lock_guard lk(mu_);
  handlers_.erase(p.index);
}

void tcp_transport::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void tcp_transport::send(process_id to, const proto::message& m) {
  const bytes wire = proto::encode(m);
  const bool on_loop = tl_loop_owner == this;
  bool need_wake = false;
  {
    std::lock_guard lk(mu_);
    need_wake = enqueue_locked(to.valid() ? to.index : opt_.n, wire, on_loop);
  }
  if (need_wake) wake();
}

void tcp_transport::broadcast(std::uint32_t n, const proto::message& m) {
  const bytes wire = proto::encode(m);
  const bool on_loop = tl_loop_owner == this;
  bool need_wake = false;
  {
    std::lock_guard lk(mu_);
    for (std::uint32_t i = 0; i < n; ++i) need_wake |= enqueue_locked(i, wire, on_loop);
  }
  if (need_wake) wake();
}

std::uint64_t tcp_transport::datagrams_sent() const {
  std::lock_guard lk(mu_);
  return sent_;
}

std::uint64_t tcp_transport::datagrams_dropped() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

bool tcp_transport::enqueue_locked(std::uint32_t to, std::span<const std::uint8_t> wire,
                                   bool on_loop) {
  ++sent_;
  if (to >= opt_.n) {
    ++dropped_;
    return false;
  }
  if (to == opt_.self) {
    // The epoll thread drains its own self-sends before it sleeps again.
    const bool wake = !on_loop && self_pending_.empty();
    append_frame(self_pending_, wire);
    return wake;
  }
  peer_state& ps = peers_[to];
  if (ps.pending.size() + wire.size() + 4 > opt_.max_pending_bytes) {
    ++dropped_;  // backpressure: drop the whole frame, never block
    return false;
  }
  const bool was_empty = ps.pending.empty();
  append_frame(ps.pending, wire);
  ps.pending_frames += 1;
  if (on_loop) return false;  // written once the event batch is done
  if (ps.route != nullptr && !ps.route->connecting && !ps.out_armed) {
    flush_locked(ps);  // straight to the socket, behind any queued replies
    return false;
  }
  // With no route the epoll thread adopts or opens a connection.
  return ps.route == nullptr && was_empty;
}

void tcp_transport::set_out_interest_locked(peer_state& ps, bool want) {
  if (ps.out_armed == want) return;
  ps.out_armed = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = tag(fd_kind::conn, ps.route->id);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ps.route->fd, &ev);
}

void tcp_transport::flush_locked(peer_state& ps) {
  std::size_t off = 0;
  while (off < ps.pending.size()) {
    const ssize_t n = ::send(ps.route->fd, ps.pending.data() + off, ps.pending.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && would_block(errno)) break;
    fail_route_locked(ps);
    return;
  }
  if (off == ps.pending.size()) {
    ps.pending.clear();
    ps.pending_frames = 0;
  } else {
    ps.pending.erase(ps.pending.begin(), ps.pending.begin() + static_cast<std::ptrdiff_t>(off));
  }
  set_out_interest_locked(ps, !ps.pending.empty());
}

void tcp_transport::fail_route_locked(peer_state& ps) {
  // Everything queued rides the dead connection down — delivery is
  // all-or-nothing per frame from the protocol's point of view, and
  // retransmission recovers. The epoll thread closes the socket when its
  // hang-up is reported; until then no sender may touch it.
  ::shutdown(ps.route->fd, SHUT_RDWR);
  ps.route->dead = true;
  ps.route = nullptr;
  ps.out_armed = false;
  drop_pending_locked(ps);
}

void tcp_transport::drop_pending_locked(peer_state& ps) {
  dropped_ += ps.pending_frames;
  ps.pending.clear();
  ps.pending_frames = 0;
  ps.next_attempt = std::chrono::steady_clock::now() + reconnect_backoff;
}

bool tcp_transport::preferred(const conn& c) const {
  // Of two connections to one peer, the one the lower index opened.
  return c.outbound == (opt_.self < c.peer);
}

void tcp_transport::adopt_locked(std::uint32_t peer) {
  peer_state& ps = peers_[peer];
  conn* best = nullptr;
  for (auto& [id, c] : conns_) {
    if (c.peer != peer || c.dead || c.connecting) continue;
    if (best == nullptr || (preferred(c) && !preferred(*best))) best = &c;
  }
  ps.route = best;
  ps.better = nullptr;
}

void tcp_transport::connect_locked(std::uint32_t peer) {
  peer_state& ps = peers_[peer];
  if (std::chrono::steady_clock::now() < ps.next_attempt) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  const sockaddr_in addr = loopback_addr(static_cast<std::uint16_t>(opt_.base_port + peer));
  int rc = -1;
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (fd < 0 || (rc != 0 && errno != EINPROGRESS)) {
    if (fd >= 0) ::close(fd);  // refused: peer not up yet; backoff applies
    drop_pending_locked(ps);
    return;
  }
  const std::uint32_t id = next_conn_id_++;
  conn& c = conns_[id];
  c.fd = fd;
  c.id = id;
  c.peer = peer;
  c.outbound = true;
  c.connecting = rc != 0;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = tag(fd_kind::conn, id);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  ps.route = &c;
  ps.out_armed = false;
  // The hello goes ahead of every queued frame; nothing is partly written.
  std::uint8_t hello[4];
  put_u32_le(hello, opt_.self);
  ps.pending.insert(ps.pending.begin(), hello, hello + 4);
  if (c.connecting) {
    set_out_interest_locked(ps, true);  // completion reports EPOLLOUT
  } else {
    flush_locked(ps);
  }
}

void tcp_transport::service_peers_locked() {
  for (std::uint32_t p = 0; p < opt_.n; ++p) {
    peer_state& ps = peers_[p];
    if (ps.better != nullptr && ps.pending.empty()) {
      ps.route = ps.better;
      ps.better = nullptr;
    }
    if (ps.pending.empty()) continue;
    if (ps.route == nullptr) {
      adopt_locked(p);
      if (ps.route == nullptr) {
        connect_locked(p);
        continue;
      }
    }
    if (!ps.route->connecting && !ps.out_armed) flush_locked(ps);
  }
}

void tcp_transport::close_conn(conn& c) {
  // Unrouted under mu_ before the fd is closed, so no sender can write to
  // it (or to whatever socket reuses its number) afterwards.
  const std::uint32_t peer = c.peer;
  const std::uint32_t id = c.id;
  std::lock_guard lk(mu_);
  bool was_route = false;
  if (peer != no_peer) {
    peer_state& ps = peers_[peer];
    if (ps.better == &c) ps.better = nullptr;
    if (ps.route == &c) {
      ps.route = nullptr;
      ps.out_armed = false;
      drop_pending_locked(ps);
      was_route = true;
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  conns_.erase(id);  // destroys c
  if (was_route) adopt_locked(peer);
}

void tcp_transport::deliver_frame(std::span<const std::uint8_t> wire) {
  handler h;
  {
    std::lock_guard lk(mu_);
    const auto it = handlers_.find(opt_.self);
    if (it == handlers_.end()) {
      ++dropped_;  // crashed node: dead socket semantics
      return;
    }
    h = it->second;  // copy so the handler can detach safely
  }
  try {
    h(proto::decode_message(wire));
  } catch (...) {
    // Malformed frame: drop it, keep the stream (framing is intact).
  }
}

bool tcp_transport::consume(conn& c, std::span<const std::uint8_t> data) {
  // Frames are decoded where they lie: in the read chunk itself when no
  // partial frame is buffered, else in the connection's reassembly buffer.
  const bool buffered = !c.buf.empty();
  if (buffered) c.buf.insert(c.buf.end(), data.begin(), data.end());
  const std::span<const std::uint8_t> in = buffered ? std::span<const std::uint8_t>(c.buf) : data;
  std::size_t off = 0;
  if (c.peer == no_peer) {
    if (in.size() < 4) {
      if (!buffered) c.buf.assign(in.begin(), in.end());
      return true;
    }
    const std::uint32_t peer = get_u32_le(in.data());
    if (peer == opt_.self || peer >= opt_.n) {
      close_conn(c);
      return false;
    }
    c.peer = peer;
    off = 4;
    std::lock_guard lk(mu_);
    peer_state& ps = peers_[peer];
    if (ps.route == nullptr) {
      ps.route = &c;
    } else if (preferred(c) && !preferred(*ps.route)) {
      ps.better = &c;
    }
  }
  const std::size_t used = for_each_frame(in.subspan(off), opt_.max_frame_bytes,
                                          [this](std::span<const std::uint8_t> wire) {
                                            deliver_frame(wire);
                                          });
  if (used == SIZE_MAX) {
    close_conn(c);  // desynced or hostile stream
    return false;
  }
  off += used;
  if (buffered) {
    c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<std::ptrdiff_t>(off));
  } else {
    c.buf.assign(in.begin() + static_cast<std::ptrdiff_t>(off), in.end());
  }
  return true;
}

bool tcp_transport::read_conn(conn& c) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      if (!consume(c, std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)))) {
        return false;
      }
      // A short read drained the socket; level-triggered epoll reports more.
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && would_block(errno)) return true;
    close_conn(c);  // EOF or error; any partial frame dies with the stream
    return false;
  }
}

void tcp_transport::on_conn_event(conn& c, std::uint32_t events) {
  if (c.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_conn(c);
      return;
    }
    std::lock_guard lk(mu_);
    c.connecting = false;
    peer_state& ps = peers_[c.peer];
    if (ps.route == &c) flush_locked(ps);
    return;
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && !read_conn(c)) return;
  if ((events & EPOLLOUT) != 0 && c.peer != no_peer) {
    std::lock_guard lk(mu_);
    peer_state& ps = peers_[c.peer];
    if (ps.route == &c) flush_locked(ps);
  }
}

void tcp_transport::accept_all() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    // Accepted sockets carry replies too; Nagle would hold them back.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint32_t id = next_conn_id_++;
    conn& c = conns_[id];
    c.fd = fd;
    c.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag(fd_kind::conn, id);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void tcp_transport::drain_self_queue() {
  // Loops until empty: handlers may send to this process again.
  for (;;) {
    {
      std::lock_guard lk(mu_);
      if (self_pending_.empty()) return;
      self_batch_.swap(self_pending_);
    }
    (void)for_each_frame(self_batch_, UINT32_MAX,
                         [this](std::span<const std::uint8_t> wire) { deliver_frame(wire); });
    self_batch_.clear();
  }
}

void tcp_transport::loop() {
  tl_loop_owner = this;
  epoll_event events[64];
  for (;;) {
    // The timeout drives reconnect backoff expiry; nothing else is timed.
    const int nev = ::epoll_wait(epoll_fd_, events, 64, 20);
    if (stop_) return;
    for (int i = 0; i < nev; ++i) {
      const auto kind = static_cast<fd_kind>(events[i].data.u64 >> 32);
      const auto id = static_cast<std::uint32_t>(events[i].data.u64);
      switch (kind) {
        case fd_kind::listener:
          accept_all();
          break;
        case fd_kind::wake: {
          std::uint64_t val;
          [[maybe_unused]] ssize_t n = ::read(wake_fd_, &val, sizeof(val));
          break;
        }
        case fd_kind::conn: {
          const auto it = conns_.find(id);
          if (it != conns_.end()) on_conn_event(it->second, events[i].events);
          break;
        }
      }
    }
    drain_self_queue();
    // Write what handlers queued, open or adopt connections for peers with
    // queued frames, and retry connects whose backoff expired.
    std::lock_guard lk(mu_);
    service_peers_locked();
  }
}

}  // namespace remus::runtime
