// End-to-end tests: real Server (epoll IoThreads + Workers) and real Client
// library over loopback TCP, raw framing and WebSocket.
#include "core/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "client/client.hpp"
#include "transport/epoll_loop.hpp"

namespace md::core {
namespace {

using namespace std::chrono_literals;

class ClientLoopThread {
 public:
  ClientLoopThread() : thread_([this] { loop_.Run(); }) {}
  ~ClientLoopThread() {
    loop_.Stop();
    thread_.join();
  }
  EpollLoop& loop() { return loop_; }

  template <typename Fn>
  void RunOnLoop(Fn fn) {
    std::atomic<bool> done{false};
    loop_.Post([&] {
      fn();
      done.store(true);
    });
    WaitFor([&] { return done.load(); });
  }

  // Generous ceiling: these tests run under ASan/TSan and a 15x repeat gate
  // in CI, where scheduling stalls of seconds are normal. The wait is
  // condition-based, so the ceiling only ever costs time on real failures.
  static void WaitFor(const std::function<bool()>& pred,
                      std::chrono::milliseconds timeout = 20000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
      std::this_thread::sleep_for(1ms);
    }
  }

 private:
  EpollLoop loop_;
  std::thread thread_;
};

client::ClientConfig MakeClientConfig(
    std::uint16_t port, const std::string& id,
    client::Transport transport = client::Transport::kRawFraming) {
  client::ClientConfig cfg;
  cfg.servers = {{"127.0.0.1", port, 1.0}};
  cfg.clientId = id;
  cfg.transport = transport;
  // Far above any loopback round-trip, even sanitized and contended: a
  // too-tight ack timeout makes the client re-publish mid-test, and the
  // retry racing the original ack was the main source of flakes here.
  cfg.ackTimeout = 5 * kSecond;
  cfg.backoffBase = 10 * kMillisecond;
  cfg.backoffMax = 100 * kMillisecond;
  cfg.seed = Fnv1a64(id);
  return cfg;
}

class ServerClientTest : public ::testing::TestWithParam<client::Transport> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.ioThreads = 2;
    cfg.workers = 2;
    cfg.serverId = "test-server";
    server = std::make_unique<Server>(cfg);
    ASSERT_TRUE(server->Start().ok());
  }

  void TearDown() override { server->Stop(); }

  [[nodiscard]] client::Transport UseWebSocket() const { return GetParam(); }

  std::unique_ptr<Server> server;
  ClientLoopThread lt;
};

TEST_P(ServerClientTest, SubscribePublishDeliver) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-1", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-1", UseWebSocket()));

  std::atomic<int> received{0};
  std::atomic<bool> subscribed{false};
  std::string lastPayload;
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "scores",
        [&](const Message& m) {
          lastPayload.assign(m.payload.begin(), m.payload.end());
          received.fetch_add(1);
        },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  // The SUBSCRIBE and the PUBLISH travel on different sessions handled by
  // different workers; only the SubAck (sent after the registry write, on the
  // subscriber's worker) orders the subscription before the fan-out snapshot.
  // Publishing after IsConnected() alone races the subscription, and a missed
  // publish is acked so the client never retries it.
  ClientLoopThread::WaitFor([&] {
    return sub->IsConnected() && pub->IsConnected() && subscribed.load();
  });

  std::atomic<bool> acked{false};
  lt.RunOnLoop([&] {
    pub->Publish("scores", Bytes{'3', '-', '1'},
                 [&](Status s) { acked.store(s.ok()); });
  });
  ClientLoopThread::WaitFor([&] { return received.load() == 1 && acked.load(); });
  EXPECT_EQ(lastPayload, "3-1");

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, InOrderDeliveryOfManyMessages) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-ord", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-ord", UseWebSocket()));

  constexpr int kMessages = 200;
  std::atomic<int> received{0};
  std::atomic<bool> ordered{true};
  std::atomic<bool> subscribed{false};
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "stream",
        [&, next = std::uint64_t(1)](const Message& m) mutable {
          if (m.seq != next++) ordered.store(false);
          received.fetch_add(1);
        },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return sub->IsConnected() && pub->IsConnected() && subscribed.load();
  });

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) {
      pub->Publish("stream", Bytes{static_cast<std::uint8_t>(i)});
    }
  });
  ClientLoopThread::WaitFor([&] { return received.load() == kMessages; });
  EXPECT_TRUE(ordered.load());

  const auto stats = server->Stats();
  EXPECT_GE(stats.published, static_cast<std::uint64_t>(kMessages));
  EXPECT_GE(stats.delivered, static_cast<std::uint64_t>(kMessages));

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, FanOutToManySubscribers) {
  constexpr int kSubs = 20;
  std::vector<std::unique_ptr<client::Client>> subs;
  std::atomic<int> received{0};
  std::atomic<int> subscribed{0};

  lt.RunOnLoop([&] {
    for (int i = 0; i < kSubs; ++i) {
      auto c = std::make_unique<client::Client>(
          lt.loop(),
          MakeClientConfig(server->Port(), "sub-" + std::to_string(i), UseWebSocket()));
      c->Subscribe(
          "game", [&](const Message&) { received.fetch_add(1); },
          [&] { subscribed.fetch_add(1); });
      c->Start();
      subs.push_back(std::move(c));
    }
  });
  ClientLoopThread::WaitFor([&] { return subscribed.load() == kSubs; });

  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-fan", UseWebSocket()));
  lt.RunOnLoop([&] { pub->Start(); });
  ClientLoopThread::WaitFor([&] { return pub->IsConnected(); });

  lt.RunOnLoop([&] { pub->Publish("game", Bytes{1}); });
  ClientLoopThread::WaitFor([&] { return received.load() == kSubs; });

  lt.RunOnLoop([&] {
    for (auto& c : subs) c->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, ReconnectRecoversMissedMessages) {
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "sub-rec", UseWebSocket()));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "pub-rec", UseWebSocket()));

  std::vector<std::uint64_t> seqs;
  std::mutex seqsMutex;
  std::atomic<int> subscribed{0};  // fires again on each resubscribe
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "recovery",
        [&](const Message& m) {
          std::lock_guard lock(seqsMutex);
          seqs.push_back(m.seq);
        },
        [&] { subscribed.fetch_add(1); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return pub->IsConnected() && subscribed.load() >= 1;
  });

  // Receive message 1 live.
  std::atomic<bool> acked1{false};
  lt.RunOnLoop([&] {
    pub->Publish("recovery", Bytes{1}, [&](Status) { acked1.store(true); });
  });
  ClientLoopThread::WaitFor([&] {
    std::lock_guard lock(seqsMutex);
    return seqs.size() == 1;
  });

  // Simulate a network drop: stop the subscriber, publish while it is away,
  // then reconnect with resume (Start reuses the same Client state).
  lt.RunOnLoop([&] { sub->Stop(); });
  std::atomic<int> ackedAway{0};
  lt.RunOnLoop([&] {
    pub->Publish("recovery", Bytes{2}, [&](Status) { ackedAway.fetch_add(1); });
    pub->Publish("recovery", Bytes{3}, [&](Status) { ackedAway.fetch_add(1); });
  });
  ClientLoopThread::WaitFor([&] { return ackedAway.load() == 2; });

  lt.RunOnLoop([&] { sub->Start(); });
  ClientLoopThread::WaitFor([&] {
    std::lock_guard lock(seqsMutex);
    return seqs.size() == 3;
  });
  {
    std::lock_guard lock(seqsMutex);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
  }

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
}

TEST_P(ServerClientTest, PingPongKeepsConnectionResponsive) {
  // Covered indirectly: publish after idle still works.
  auto c = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server->Port(), "idle", UseWebSocket()));
  lt.RunOnLoop([&] { c->Start(); });
  ClientLoopThread::WaitFor([&] { return c->IsConnected(); });
  std::this_thread::sleep_for(50ms);
  std::atomic<bool> acked{false};
  lt.RunOnLoop([&] { c->Publish("t", Bytes{1}, [&](Status s) { acked.store(s.ok()); }); });
  ClientLoopThread::WaitFor([&] { return acked.load(); });
  lt.RunOnLoop([&] { c->Stop(); });
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, ServerClientTest,
    ::testing::Values(client::Transport::kRawFraming,
                      client::Transport::kWebSocket,
                      client::Transport::kHttpStream),
    [](const ::testing::TestParamInfo<client::Transport>& info) {
      switch (info.param) {
        case client::Transport::kRawFraming: return "RawFraming";
        case client::Transport::kWebSocket: return "WebSocket";
        case client::Transport::kHttpStream: return "HttpStream";
      }
      return "Unknown";
    });

TEST(ServerBatchingTest, BatchingReducesWritesButDeliversAll) {
  ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  cfg.enableBatching = true;
  cfg.batch.maxDelay = 20 * kMillisecond;
  cfg.batch.maxBytes = 1 << 20;
  Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  ClientLoopThread lt;
  auto sub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "sub-batch"));
  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "pub-batch"));

  constexpr int kMessages = 50;
  std::atomic<int> received{0};
  std::atomic<bool> subscribed{false};
  lt.RunOnLoop([&] {
    sub->Subscribe(
        "hot", [&](const Message&) { received.fetch_add(1); },
        [&] { subscribed.store(true); });
    sub->Start();
    pub->Start();
  });
  ClientLoopThread::WaitFor([&] {
    return pub->IsConnected() && subscribed.load();
  });

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) pub->Publish("hot", Bytes{1});
  });
  ClientLoopThread::WaitFor([&] { return received.load() == kMessages; });

  lt.RunOnLoop([&] {
    sub->Stop();
    pub->Stop();
  });
  server.Stop();
}

// Per-subscriber in-order delivery across the fan-out path, with enough
// subscribers to span both IoThreads and enough messages to interleave
// batched posts. Runs once with per-IoThread batching (the default) and once
// on the legacy per-subscriber path, so both stay correct and comparable.
class ServerFanoutTest : public ::testing::TestWithParam<bool> {};

TEST_P(ServerFanoutTest, BatchedFanOutPreservesPerSubscriberOrder) {
  ServerConfig cfg;
  cfg.ioThreads = 2;
  cfg.workers = 2;
  cfg.fanoutBatching = GetParam();
  Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kSubs = 8;
  constexpr int kMessages = 100;
  ClientLoopThread lt;
  std::vector<std::unique_ptr<client::Client>> subs;
  std::array<std::atomic<int>, kSubs> received{};
  std::array<std::atomic<bool>, kSubs> ordered{};
  for (auto& o : ordered) o.store(true);
  std::atomic<int> subscribed{0};

  lt.RunOnLoop([&] {
    for (int i = 0; i < kSubs; ++i) {
      auto c = std::make_unique<client::Client>(
          lt.loop(), MakeClientConfig(server.Port(), "fo-sub-" + std::to_string(i)));
      c->Subscribe(
          "ladder",
          [&, i, next = std::uint64_t(1)](const Message& m) mutable {
            if (m.seq != next++) ordered[i].store(false);
            received[i].fetch_add(1);
          },
          [&] { subscribed.fetch_add(1); });
      c->Start();
      subs.push_back(std::move(c));
    }
  });
  ClientLoopThread::WaitFor([&] { return subscribed.load() == kSubs; });

  auto pub = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "fo-pub"));
  lt.RunOnLoop([&] { pub->Start(); });
  ClientLoopThread::WaitFor([&] { return pub->IsConnected(); });

  lt.RunOnLoop([&] {
    for (int i = 0; i < kMessages; ++i) {
      pub->Publish("ladder", Bytes{static_cast<std::uint8_t>(i)});
    }
  });
  ClientLoopThread::WaitFor([&] {
    for (int i = 0; i < kSubs; ++i) {
      if (received[i].load() != kMessages) return false;
    }
    return true;
  });
  for (int i = 0; i < kSubs; ++i) {
    EXPECT_TRUE(ordered[i].load()) << "subscriber " << i << " saw out-of-order seq";
  }
  EXPECT_GE(server.Stats().delivered,
            static_cast<std::uint64_t>(kSubs) * kMessages);

  lt.RunOnLoop([&] {
    for (auto& c : subs) c->Stop();
    pub->Stop();
  });
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(BothPaths, ServerFanoutTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Batched" : "PerSubscriber";
                         });

TEST(ServerStatsTest, CountsConnectionsAndTraffic) {
  ServerConfig cfg;
  cfg.ioThreads = 1;
  cfg.workers = 1;
  Server server(cfg);
  ASSERT_TRUE(server.Start().ok());

  ClientLoopThread lt;
  auto c = std::make_unique<client::Client>(
      lt.loop(), MakeClientConfig(server.Port(), "stat"));
  lt.RunOnLoop([&] { c->Start(); });
  ClientLoopThread::WaitFor([&] { return c->IsConnected(); });
  ClientLoopThread::WaitFor(
      [&] { return server.Stats().connectionsActive == 1; });
  EXPECT_GE(server.Stats().connectionsAccepted, 1u);

  lt.RunOnLoop([&] { c->Stop(); });
  ClientLoopThread::WaitFor(
      [&] { return server.Stats().connectionsActive == 0; });
  server.Stop();
}

TEST(ServerStartTest, PortAnotherServerHoldsFailsToBind) {
  ServerConfig cfg;
  cfg.ioThreads = 2;  // a SO_REUSEPORT listener group
  cfg.workers = 1;
  Server first(cfg);
  ASSERT_TRUE(first.Start().ok());

  // Without the exclusive probe the second group would silently join the
  // first one's port and the kernel would split connections between them.
  ServerConfig clash = cfg;
  clash.serverId = "server-2";
  clash.port = first.Port();
  Server second(clash);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

}  // namespace
}  // namespace md::core
