// Tests for the TCP loopback transport: real sockets, one listener per
// process, length-prefixed proto frames, datagram drop semantics over the
// stream — and a full 3-replica quorum emulation running over it in-process
// (runtime::node is transport-agnostic; here the kernel carries the wire).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "history/atomicity.h"
#include "history/recorder.h"
#include "proto/policy.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/memory_store.h"

namespace remus::runtime {
namespace {

tcp_transport_options tcp_opt(std::uint32_t n, std::uint16_t base, std::uint32_t self) {
  tcp_transport_options o;
  o.n = n;
  o.base_port = base;
  o.self = self;
  return o;
}

void wait_for(const std::atomic<int>& counter, int want, int ms = 3000) {
  for (int i = 0; i < ms && counter.load() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------- Transport semantics ----------

TEST(TcpTransport, DeliversAcrossRealSockets) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));

  std::atomic<int> got_b{0};
  proto::message last;
  std::mutex mu;
  b.attach(process_id{1}, [&](const proto::message& m) {
    std::lock_guard<std::mutex> lk(mu);
    last = m;
    got_b += 1;
  });

  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{0};
  m.op_seq = 42;
  m.reg = 7;
  a.send(process_id{1}, m);
  wait_for(got_b, 1);
  ASSERT_EQ(got_b.load(), 1);
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(last, m);  // the codec round-trips through the kernel intact
  }
  EXPECT_EQ(a.datagrams_sent(), 1u);
}

TEST(TcpTransport, SelfSendIsDeliveredAsynchronously) {
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  proto::message m;
  m.from = process_id{0};
  t.send(process_id{0}, m);
  t.broadcast(1, m);
  wait_for(got, 2);
  EXPECT_EQ(got.load(), 2);
}

TEST(TcpTransport, DetachedProcessLosesTraffic) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got{0};
  b.attach(process_id{1}, [&](const proto::message&) { got += 1; });
  b.detach(process_id{1});  // crashed: socket still listens, frames vanish
  proto::message m;
  m.from = process_id{0};
  a.send(process_id{1}, m);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 0);
}

TEST(TcpTransport, SendToAbsentPeerDropsWithoutBlocking) {
  // Peer 1 never exists: connects fail, frames are counted dropped, and the
  // sender never wedges — the protocol's retransmission owns recovery.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  proto::message m;
  m.from = process_id{0};
  for (int i = 0; i < 5; ++i) a.send(process_id{1}, m);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(a.datagrams_sent(), 5u);
  EXPECT_GT(a.datagrams_dropped(), 0u);
}

TEST(TcpTransport, LargeFramesArriveWholeAndInOrder) {
  // Frames far beyond one read() chunk must reassemble; a stream of mixed
  // sizes on one connection arrives in order and intact.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got{0};
  std::vector<std::uint64_t> seqs;
  std::vector<std::size_t> sizes;
  std::mutex mu;
  b.attach(process_id{1}, [&](const proto::message& m) {
    std::lock_guard<std::mutex> lk(mu);
    seqs.push_back(m.op_seq);
    sizes.push_back(m.val.data.size());
    got += 1;
  });
  for (std::uint64_t i = 0; i < 8; ++i) {
    proto::message m;
    m.kind = proto::msg_kind::write;
    m.from = process_id{0};
    m.op_seq = i;
    m.val.data.assign(i % 2 == 0 ? (200u * 1024u) : 3u,
                      static_cast<std::uint8_t>(i));
    a.send(process_id{1}, m);
  }
  wait_for(got, 8, 10000);
  ASSERT_EQ(got.load(), 8);
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seqs[i], i) << "frame order broke at " << i;
    EXPECT_EQ(sizes[i], i % 2 == 0 ? 200u * 1024u : 3u);
  }
}

TEST(TcpTransport, SimultaneousSendsBothDeliver) {
  // Both processes send to each other at the same moment, so each side may
  // open a connection while the other's is still being accepted.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got_a{0};
  std::atomic<int> got_b{0};
  a.attach(process_id{0}, [&](const proto::message&) { got_a += 1; });
  b.attach(process_id{1}, [&](const proto::message&) { got_b += 1; });

  constexpr int kFrames = 20;
  std::atomic<bool> go{false};
  auto sender = [&](tcp_transport& t, std::uint32_t from, std::uint32_t to) {
    while (!go.load()) std::this_thread::yield();
    proto::message m;
    m.from = process_id{from};
    for (int i = 0; i < kFrames; ++i) t.send(process_id{to}, m);
  };
  std::thread ta(sender, std::ref(a), 0u, 1u);
  std::thread tb(sender, std::ref(b), 1u, 0u);
  go = true;
  ta.join();
  tb.join();
  wait_for(got_a, kFrames);
  wait_for(got_b, kFrames);
  EXPECT_EQ(got_a.load(), kFrames);
  EXPECT_EQ(got_b.load(), kFrames);
  EXPECT_EQ(a.datagrams_dropped(), 0u);
  EXPECT_EQ(b.datagrams_dropped(), 0u);
}

TEST(TcpTransport, RebuiltPeerOnSamePortIsReachedAgain) {
  // A peer's transport is destroyed and a new one is bound to the same port
  // (a replica rebuilt from its WAL). The sender's old connection dies with
  // the first instance; a bounded number of retries reaches the new one.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  proto::message m;
  m.from = process_id{0};

  auto b = std::make_unique<tcp_transport>(tcp_opt(2, base, 1));
  std::atomic<int> got_old{0};
  b->attach(process_id{1}, [&](const proto::message&) { got_old += 1; });
  a.send(process_id{1}, m);
  wait_for(got_old, 1);
  ASSERT_EQ(got_old.load(), 1);
  b.reset();

  b = std::make_unique<tcp_transport>(tcp_opt(2, base, 1));
  std::atomic<int> got_new{0};
  b->attach(process_id{1}, [&](const proto::message&) { got_new += 1; });
  int tries = 0;
  for (; tries < 300 && got_new.load() == 0; ++tries) {
    a.send(process_id{1}, m);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(got_new.load(), 0) << "rebuilt peer never reached after " << tries << " sends";
  b.reset();
}

TEST(TcpTransport, ChainedSelfSendsFromHandlerDoNotWaitForTheTimeout) {
  // A handler that sends to its own process again must see the next frame
  // promptly, not on the epoll thread's idle timeout (20 ms per hop).
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  constexpr int kHops = 500;
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message& m) {
    got += 1;
    if (m.op_seq + 1 < kHops) {
      proto::message next = m;
      next.op_seq += 1;
      t.send(process_id{0}, next);
    }
  });
  proto::message m;
  m.from = process_id{0};
  const auto t0 = std::chrono::steady_clock::now();
  t.send(process_id{0}, m);
  wait_for(got, kHops, 10000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(got.load(), kHops);
  // 500 hops at the 20 ms timeout would take 10 s.
  EXPECT_LT(elapsed, std::chrono::milliseconds(2500));
}

// ---------- The wire protocol, driven from raw sockets ----------

/// A blocking socket connected to 127.0.0.1:port, with a receive timeout.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void put_u32(bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// The hello naming `from`, then `m` as one length-prefixed frame.
bytes hello_and_frame(std::uint32_t from, const proto::message& m) {
  bytes out;
  put_u32(out, from);
  const bytes wire = proto::encode(m);
  put_u32(out, static_cast<std::uint32_t>(wire.size()));
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

/// Reads exactly `len` bytes; false on EOF, error or timeout.
bool read_exact(int fd, std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::read(fd, out, len);
    if (n <= 0) return false;
    out += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

TEST(TcpWire, ReplyComesBackOnTheRequestConnection) {
  // A raw socket plays process 0; nothing listens on process 0's port, so
  // process 1's reply can only arrive on the connection the request used.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport b(tcp_opt(2, base, 1));
  b.attach(process_id{1}, [&](const proto::message& m) {
    proto::message reply = m;
    reply.kind = proto::msg_kind::sn_ack;
    reply.from = process_id{1};
    b.send(m.from, reply);
  });

  const int fd = raw_connect(static_cast<std::uint16_t>(base + 1));
  ASSERT_GE(fd, 0);
  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{0};
  m.op_seq = 77;
  const bytes out = hello_and_frame(0, m);
  ASSERT_EQ(::write(fd, out.data(), out.size()), static_cast<ssize_t>(out.size()));

  std::uint8_t hdr[4];
  ASSERT_TRUE(read_exact(fd, hdr, 4));
  const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                            (static_cast<std::uint32_t>(hdr[1]) << 8) |
                            (static_cast<std::uint32_t>(hdr[2]) << 16) |
                            (static_cast<std::uint32_t>(hdr[3]) << 24);
  ASSERT_LT(len, 1u << 16);
  bytes wire(len);
  ASSERT_TRUE(read_exact(fd, wire.data(), len));
  const proto::message reply = proto::decode_message(wire);
  EXPECT_EQ(reply.kind, proto::msg_kind::sn_ack);
  EXPECT_EQ(reply.from, process_id{1});
  EXPECT_EQ(reply.op_seq, 77u);
  ::close(fd);
}

TEST(TcpWire, BadHelloClosesTheConnection) {
  // A hello naming the receiver itself or an index outside the group is
  // refused: the connection is closed and the frame behind it never arrives.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got{0};
  b.attach(process_id{1}, [&](const proto::message&) { got += 1; });
  for (const std::uint32_t from : {1u, 2u, 0xffffffffu}) {
    const int fd = raw_connect(static_cast<std::uint16_t>(base + 1));
    ASSERT_GE(fd, 0);
    proto::message m;
    m.from = process_id{0};
    const bytes out = hello_and_frame(from, m);
    ASSERT_EQ(::write(fd, out.data(), out.size()), static_cast<ssize_t>(out.size()));
    std::uint8_t byte = 0;
    const ssize_t n = ::read(fd, &byte, 1);  // EOF or reset, not the timeout
    EXPECT_TRUE(n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
        << "hello " << from << " kept the connection open";
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 0);
}

TEST(TcpWire, DeadPeerCostsFramesNotTheProcess) {
  // Process 1 dies under an open connection: a raw listener on its port
  // accepts the transport's connection, stops listening, and then either
  // resets the connection (SO_LINGER {1, 0}) or closes it. The epoll thread
  // is held inside a handler meanwhile, so the 100 sends below write to the
  // dead socket themselves; after a close, the first write draws a reset
  // and the second would raise SIGPIPE unless the transport suppresses it.
  for (const bool reset : {true, false}) {
    SCOPED_TRACE(reset ? "reset" : "close");
    const std::uint16_t base = probe_base_port(2);
    const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(lfd, 0);
    int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(base + 1));
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 16), 0);

    tcp_transport a(tcp_opt(2, base, 0));
    std::atomic<int> held{0};
    std::atomic<bool> release{false};
    a.attach(process_id{0}, [&](const proto::message&) {
      held = 1;
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    proto::message m;
    m.from = process_id{0};
    a.send(process_id{1}, m);  // opens the connection: hello, then one frame

    int fd = -1;
    for (int i = 0; i < 3000 && fd < 0; ++i) {
      fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(lfd);  // nothing listens on process 1's port any more
    ASSERT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = 3;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    bytes got(8 + proto::encode(m).size());
    ASSERT_TRUE(read_exact(fd, got.data(), got.size()));  // all read: close sends a FIN

    a.send(process_id{0}, m);  // the epoll thread blocks in the handler
    wait_for(held, 1);
    ASSERT_EQ(held.load(), 1);
    if (reset) {
      linger lg{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (int i = 0; i < 100; ++i) {
      a.send(process_id{1}, m);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    release = true;
    // Frames queued behind the dead socket are dropped when the reconnect
    // is refused.
    for (int i = 0; i < 3000 && a.datagrams_dropped() < 99; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(a.datagrams_sent(), 102u);
    // After a close the first write still succeeds (the reset comes back
    // in reply to it), so one frame can vanish uncounted.
    EXPECT_GE(a.datagrams_dropped(), 99u);
  }
}

// ---------- A real quorum over the kernel's wire ----------

TEST(TcpQuorum, WriteReadCrashRecoverStaysAtomic) {
  constexpr std::uint32_t n = 3;
  const std::uint16_t base = probe_base_port(n);

  history::recorder rec;
  std::vector<std::unique_ptr<storage::memory_store>> stores;
  std::vector<std::unique_ptr<tcp_transport>> nets;
  std::vector<std::unique_ptr<node>> nodes;
  node_options nopt;
  nopt.retransmit_check = 5 * 1000 * 1000;
  nopt.op_timeout = 20ll * 1000 * 1000 * 1000;
  for (std::uint32_t i = 0; i < n; ++i) {
    stores.push_back(std::make_unique<storage::memory_store>());
    nets.push_back(std::make_unique<tcp_transport>(tcp_opt(n, base, i)));
    nodes.push_back(std::make_unique<node>(proto::persistent_policy(), process_id{i},
                                           n, *stores[i], *nets[i], rec, nopt,
                                           0xbeef + i));
  }
  for (auto& nd : nodes) nd->start();

  nodes[0]->write(value_of_u32(5));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(nodes[i]->read(), value_of_u32(5));
  }

  // Crash a replica (its transport stays bound — the process is "down", the
  // wire keeps eating its frames), write around it, recover, and the
  // recovered replica must serve the new value.
  nodes[2]->crash();
  nodes[0]->write(value_of_u32(9));
  nodes[2]->recover();
  EXPECT_EQ(nodes[2]->read(), value_of_u32(9));

  const auto verdict = history::check_persistent_atomicity(rec.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;

  // Detaching does not wait for a handler already running on an epoll
  // thread (a late reply to the last read), so the transports are joined
  // before the nodes their handlers call into are destroyed.
  for (auto& nd : nodes) nd->crash();
  nets.clear();
  nodes.clear();
}

}  // namespace
}  // namespace remus::runtime
