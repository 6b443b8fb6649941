// End-to-end cluster tests over REAL TCP: three TcpClusterHosts (each its
// own epoll loop thread: cluster node + MiniZK node + peer/coord links) on
// loopback, driven by the real client library.
#include "cluster/tcp_host.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "client/client.hpp"
#include "transport/epoll_loop.hpp"

namespace md::cluster {
namespace {

using namespace std::chrono_literals;

void WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds timeout = 15000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(2ms);
  }
}

/// A blocking raw-socket client speaking the framed protocol by hand, so a
/// test sees exactly the bytes a host wrote before its EOF.
class RawClient {
 public:
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Connects and sends CONNECT; true once the host answers with CONNACK.
  /// A non-zero `rcvbuf` shrinks the kernel receive buffer (set before the
  /// connect, so the window stays small) for a client that stops reading.
  bool Connect(std::uint16_t port, const std::string& clientId, int rcvbuf = 0) {
    if (fd_ >= 0) ::close(fd_);
    in_ = ByteQueue();
    eof_ = false;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    Bytes wire;
    EncodeFramed(Frame(ConnectFrame{clientId}), wire);
    if (::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      return false;
    }
    const auto frame = Next();
    return frame && std::holds_alternative<ConnAckFrame>(*frame);
  }

  /// Sends SUBSCRIBE; true once the host answers with an ok SUBACK.
  bool Subscribe(const std::string& topic) {
    Bytes wire;
    SubscribeFrame sub;
    sub.topic = topic;
    EncodeFramed(Frame(sub), wire);
    if (::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      return false;
    }
    const auto frame = Next();
    const auto* ack = frame ? std::get_if<SubAckFrame>(&*frame) : nullptr;
    return ack != nullptr && ack->ok;
  }

  /// Whether the last Next() ended at the host's orderly close.
  [[nodiscard]] bool AtEof() const { return eof_; }

  /// The next frame, or nullopt on EOF, error or a 5 s silence.
  std::optional<Frame> Next() {
    while (true) {
      auto r = ExtractFrame(in_);
      if (!r.status.ok()) return std::nullopt;
      if (r.frame) return std::move(r.frame);
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        eof_ = n == 0;
        return std::nullopt;
      }
      in_.Append(BytesView(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  ByteQueue in_;
  bool eof_ = false;
};

class TcpClusterTest : public ::testing::Test {
 protected:
  void StartCluster(std::size_t n = 3,
                    const core::BackpressureConfig& clientBackpressure = {}) {
    // Two phases: every host binds kernel-chosen ports first, then each is
    // given the others' bound addresses and started. No fixed port base, so
    // concurrent test processes can never share a listener.
    std::vector<TcpHostConfig> cfgs(n);
    for (std::size_t i = 0; i < n; ++i) {
      cfgs[i].serverId = "tcp-server-" + std::to_string(i + 1);
      cfgs[i].nodeId = static_cast<coord::NodeId>(i + 1);
      cfgs[i].seed = 1000 + i;
      cfgs[i].cluster.metrics = &registry;
      cfgs[i].clientBackpressure = clientBackpressure;
      hosts.push_back(std::make_unique<TcpClusterHost>(cfgs[i]));
      ASSERT_TRUE(hosts[i]->Bind().ok());
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<TcpPeerAddress> peers;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        peers.push_back({cfgs[j].serverId, cfgs[j].nodeId, "127.0.0.1",
                         hosts[j]->PeerPort(), hosts[j]->CoordPort()});
      }
      hosts[i]->SetPeers(std::move(peers));
    }
    for (auto& host : hosts) ASSERT_TRUE(host->Start().ok());
    // Wait for MiniZK to elect a leader (real time).
    WaitFor([&] {
      int leaders = 0;
      for (auto& host : hosts) {
        host->WithCoord([&](coord::CoordNode& c) {
          if (c.IsLeader()) ++leaders;
        });
      }
      return leaders == 1;
    });
  }

  void TearDown() override {
    for (auto& host : hosts) host->Stop();
  }

  client::ClientConfig ClientCfg(const std::string& id) {
    client::ClientConfig cfg;
    for (auto& host : hosts) {
      cfg.servers.push_back({"127.0.0.1", host->ClientPort(), 1.0});
    }
    cfg.clientId = id;
    cfg.seed = Fnv1a64(id);
    cfg.ackTimeout = 2 * kSecond;
    cfg.backoffBase = 50 * kMillisecond;
    cfg.backoffMax = 300 * kMillisecond;
    return cfg;
  }

  obs::MetricsRegistry registry;  // outlives the hosts that export into it
  std::vector<std::unique_ptr<TcpClusterHost>> hosts;
};

TEST_F(TcpClusterTest, PublishSubscribeAcrossServersOverRealTcp) {
  StartCluster();

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });

  // Subscriber pinned to server 1, publisher to server 2: the publication
  // must traverse the real peer links (forward + broadcast).
  auto subCfg = ClientCfg("tcp-sub");
  subCfg.servers = {{"127.0.0.1", hosts[0]->ClientPort(), 1.0}};
  auto pubCfg = ClientCfg("tcp-pub");
  pubCfg.servers = {{"127.0.0.1", hosts[1]->ClientPort(), 1.0}};

  client::Client sub(clientLoop, subCfg);
  client::Client pub(clientLoop, pubCfg);

  std::atomic<int> received{0};
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    sub.Subscribe("tcp/topic", [&](const Message&) { received.fetch_add(1); },
                  [&] { subscribed.store(true); });
    sub.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  std::atomic<int> acked{0};
  clientLoop.Post([&] {
    for (int i = 0; i < 5; ++i) {
      pub.Publish("tcp/topic", Bytes{static_cast<std::uint8_t>(i)},
                  [&](Status s) {
                    if (s.ok()) acked.fetch_add(1);
                  });
    }
  });
  WaitFor([&] { return acked.load() == 5 && received.load() == 5; });

  // The message was replicated into every server's cache via real TCP.
  for (auto& host : hosts) {
    std::size_t cached = 0;
    host->WithNode([&](ClusterNode& node) {
      cached = node.cache().GetAfter("tcp/topic", {0, 0}).size();
    });
    EXPECT_EQ(cached, 5u) << host->serverId();
  }

  clientLoop.Post([&] {
    sub.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

TEST_F(TcpClusterTest, FailoverOverRealTcp) {
  StartCluster();

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });

  client::Client sub(clientLoop, ClientCfg("fo-sub"));
  client::Client pub(clientLoop, ClientCfg("fo-pub"));

  std::vector<std::uint8_t> payloads;
  std::mutex payloadsMutex;
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    sub.Subscribe(
        "fo/topic",
        [&](const Message& m) {
          std::lock_guard lock(payloadsMutex);
          payloads.push_back(m.payload.at(0));
        },
        [&] { subscribed.store(true); });
    sub.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  auto publishAndAwait = [&](std::uint8_t k) {
    std::atomic<bool> acked{false};
    clientLoop.Post([&] {
      pub.Publish("fo/topic", Bytes{k}, [&](Status s) {
        if (s.ok()) acked.store(true);
      });
    });
    WaitFor([&] { return acked.load(); }, 20000ms);
  };

  publishAndAwait(1);
  WaitFor([&] {
    std::lock_guard lock(payloadsMutex);
    return payloads.size() == 1;
  });

  // Fail-stop the subscriber's server (a real host with real sockets).
  std::size_t subServer = sub.CurrentServerIndex().value();
  hosts[subServer]->Stop();

  // Keep publishing; the publisher may itself need to fail over.
  for (std::uint8_t k = 2; k <= 4; ++k) publishAndAwait(k);

  // The subscriber reconnects to a survivor and recovers everything.
  WaitFor([&] {
    std::lock_guard lock(payloadsMutex);
    return payloads.size() == 4;
  }, 30000ms);
  {
    std::lock_guard lock(payloadsMutex);
    EXPECT_EQ(payloads, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  }
  EXPECT_GT(sub.stats().reconnects, 0u);

  clientLoop.Post([&] {
    sub.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

TEST_F(TcpClusterTest, FencedHostFlushesDisconnectNoticeBeforeClosing) {
  StartCluster();

  // A member refuses sessions until it has joined; retry until CONNACK.
  RawClient raw;
  WaitFor([&] { return raw.Connect(hosts[0]->ClientPort(), "raw-fenced"); });

  // Losing both peers costs host 1 its quorum contact: it fences, sending
  // every local client a DISCONNECT notice and closing the connection.
  hosts[1]->Stop();
  hosts[2]->Stop();

  bool sawDisconnect = false;
  while (const auto frame = raw.Next()) {
    if (std::holds_alternative<DisconnectFrame>(*frame)) sawDisconnect = true;
  }
  EXPECT_TRUE(sawDisconnect) << "connection closed without the fence notice";
  bool fenced = false;
  hosts[0]->WithNode([&](ClusterNode& node) { fenced = node.IsFenced(); });
  EXPECT_TRUE(fenced);
}

TEST_F(TcpClusterTest, EachHostExportsItsTransportMetrics) {
  StartCluster();

  // Peer and coordination traffic (heartbeats, elections) alone exercises
  // every host's loop; each host's families carry its own server label.
  for (auto& host : hosts) {
    const std::string server = obs::ServerLabel(host->serverId());
    const std::string sendmsg = server + ",op=\"sendmsg\"";
    WaitFor([&] {
      const auto snap = registry.Snapshot();
      return snap.Value("md_transport_bytes_written_total", server) > 0 &&
             snap.Value("md_transport_syscalls_total", sendmsg) > 0;
    });
    const auto snap = registry.Snapshot();
    EXPECT_GT(snap.Value("md_transport_loop_iterations_total", server), 0)
        << server;
    EXPECT_GT(snap.Value("md_transport_bytes_read_total", server), 0) << server;
    EXPECT_GT(snap.Value("md_transport_syscalls_total", server + ",op=\"recv\""), 0)
        << server;
    // Every send leaves through the flush pass's sendmsg.
    const auto* send = snap.Find("md_transport_syscalls_total", server + ",op=\"send\"");
    ASSERT_NE(send, nullptr) << server;
    EXPECT_EQ(send->value, 0) << server;
    EXPECT_NE(snap.Find("md_transport_send_queue_bytes", server), nullptr) << server;
  }
}

TEST_F(TcpClusterTest, StalledSubscriberEvictedHealthySubscriberKeepsEverything) {
  // Small marks, so the stalled subscriber crosses them after a few dozen
  // messages; the healthy one never holds more than one paced batch.
  core::BackpressureConfig bp;
  bp.softWatermark = 64 * 1024;
  bp.hardWatermark = 256 * 1024;
  bp.lowWatermark = 16 * 1024;
  bp.evictGrace = 100 * kMillisecond;
  StartCluster(3, bp);
  const std::string topic = "tcp/slow";

  // The stalled subscriber: a raw socket with a small receive window that
  // subscribes and then stops reading.
  RawClient stalled;
  WaitFor([&] {
    return stalled.Connect(hosts[0]->ClientPort(), "raw-stalled", 4096);
  });
  ASSERT_TRUE(stalled.Subscribe(topic));

  EpollLoop clientLoop;
  std::thread clientThread([&] { clientLoop.Run(); });
  auto subCfg = ClientCfg("tcp-healthy");
  subCfg.servers = {{"127.0.0.1", hosts[0]->ClientPort(), 1.0}};
  auto pubCfg = ClientCfg("tcp-slow-pub");
  pubCfg.servers = {{"127.0.0.1", hosts[1]->ClientPort(), 1.0}};
  client::Client healthy(clientLoop, subCfg);
  client::Client pub(clientLoop, pubCfg);
  std::vector<std::uint32_t> received;
  std::mutex receivedMutex;
  std::atomic<bool> subscribed{false};
  clientLoop.Post([&] {
    healthy.Subscribe(
        topic,
        [&](const Message& m) {
          ByteReader r{BytesView(m.payload)};
          std::uint32_t index = 0;
          ASSERT_TRUE(r.ReadU32(index).ok());
          std::lock_guard lock(receivedMutex);
          received.push_back(index);
        },
        [&] { subscribed.store(true); });
    healthy.Start();
    pub.Start();
  });
  WaitFor([&] { return subscribed.load() && pub.IsConnected(); });

  // Each batch is acked and delivered to the healthy subscriber before the
  // next leaves, so it never holds more than 32 KiB (half the soft mark).
  // The stalled one keeps receiving until it is evicted.
  constexpr std::uint32_t kBatch = 4;
  constexpr std::uint32_t kMaxMessages = 2048;  // 16 MiB
  std::uint32_t published = 0;
  std::atomic<std::uint32_t> acked{0};
  const auto publish = [&](std::uint32_t n) {
    clientLoop.Post([&, first = published, n] {
      for (std::uint32_t i = first; i < first + n; ++i) {
        Bytes payload;
        ByteWriter w(payload);
        w.WriteU32(i);
        payload.resize(8 * 1024);
        pub.Publish(topic, std::move(payload), [&](Status s) {
          if (s.ok()) acked.fetch_add(1);
        });
      }
    });
    published += n;
    WaitFor([&] {
      std::lock_guard lock(receivedMutex);
      return acked.load() == published && received.size() == published;
    });
  };
  const auto disconnects = [&] {
    return registry.Snapshot().Total("md_slow_consumer_disconnects_total");
  };
  // The first publication elects the topic's coordinator; later ones all
  // forward to it, so the stream keeps their publish order.
  publish(1);
  while (disconnects() < 1.0 && published < kMaxMessages) publish(kBatch);
  ASSERT_EQ(disconnects(), 1.0);
  publish(kBatch);  // the healthy subscriber keeps receiving after it

  // The stalled subscriber reads its backlog (a gap-free prefix), then the
  // eviction notice, then EOF.
  std::uint32_t next = 0;
  bool sawDisconnect = false;
  while (const auto frame = stalled.Next()) {
    ASSERT_FALSE(sawDisconnect) << "frame after the eviction notice";
    if (const auto* deliver = std::get_if<DeliverFrame>(&*frame)) {
      ByteReader r{BytesView(deliver->msg.payload)};
      std::uint32_t index = 0;
      ASSERT_TRUE(r.ReadU32(index).ok());
      EXPECT_EQ(index, next++);
    } else if (std::holds_alternative<DisconnectFrame>(*frame)) {
      sawDisconnect = true;
    }
  }
  EXPECT_TRUE(sawDisconnect) << "closed without the eviction notice";
  EXPECT_TRUE(stalled.AtEof());
  EXPECT_LT(next, published);

  {
    std::lock_guard lock(receivedMutex);
    ASSERT_EQ(received.size(), published);
    for (std::uint32_t i = 0; i < published; ++i) EXPECT_EQ(received[i], i);
  }
  EXPECT_EQ(disconnects(), 1.0);
  EXPECT_EQ(healthy.stats().reconnects, 0u);

  clientLoop.Post([&] {
    healthy.Stop();
    pub.Stop();
  });
  std::this_thread::sleep_for(20ms);
  clientLoop.Stop();
  clientThread.join();
}

TEST_F(TcpClusterTest, StartRefusesTheConflatePolicy) {
  // Conflation needs core::Server's Conflator, which a cluster host lacks.
  TcpHostConfig cfg;
  cfg.serverId = "tcp-conflate";
  cfg.cluster.metrics = &registry;
  cfg.clientBackpressure.policy = core::OverflowPolicy::kConflate;
  TcpClusterHost host(cfg);
  EXPECT_EQ(host.Start().code(), ErrorCode::kInvalidArgument);
}

TEST_F(TcpClusterTest, SecondHostOnABoundPortFailsToBind) {
  TcpHostConfig first;
  first.serverId = "tcp-first";
  first.cluster.metrics = &registry;
  TcpClusterHost a(first);
  ASSERT_TRUE(a.Bind().ok());

  // Each listener is exclusive: reusing any of the first host's ports is a
  // bind error, not a share of its traffic.
  for (int which = 0; which < 3; ++which) {
    TcpHostConfig second;
    second.serverId = "tcp-second";
    second.nodeId = 2;
    second.cluster.metrics = &registry;
    if (which == 0) second.clientPort = a.ClientPort();
    if (which == 1) second.peerPort = a.PeerPort();
    if (which == 2) second.coordPort = a.CoordPort();
    TcpClusterHost b(second);
    EXPECT_FALSE(b.Bind().ok()) << "listener " << which;
  }
}

}  // namespace
}  // namespace md::cluster
