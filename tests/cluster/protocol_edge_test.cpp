// Edge cases of the §5 cluster protocol under the deterministic harness:
// stale gossip, coordinator races, concurrent first publications, unsubscribe
// through the cluster, forwarded-publication timeouts.
#include <gtest/gtest.h>

#include "client/client.hpp"
#include "cluster/sim_cluster.hpp"

namespace md::cluster {
namespace {

class ProtocolEdgeTest : public ::testing::Test {
 protected:
  void MakeCluster(std::size_t servers = 3, std::uint64_t seed = 42) {
    SimCluster::Options opts;
    opts.servers = servers;
    opts.seed = seed;
    cluster = std::make_unique<SimCluster>(sched, opts);
    cluster->StartAll();
    sched.RunFor(2 * kSecond);
  }

  std::unique_ptr<client::Client> MakeClient(const std::string& id,
                                             std::optional<std::size_t> server = {}) {
    client::ClientConfig cfg;
    if (server) {
      cfg.servers = {{"server", cluster->ClientPort(*server), 1.0}};
    } else {
      for (std::size_t i = 0; i < cluster->size(); ++i) {
        cfg.servers.push_back({"server", cluster->ClientPort(i), 1.0});
      }
    }
    cfg.clientId = id;
    cfg.seed = Fnv1a64(id);
    cfg.ackTimeout = 3 * kSecond;
    auto c = std::make_unique<client::Client>(cluster->clientLoop(), cfg);
    c->Start();
    return c;
  }

  Status PublishAndWait(client::Client& pub, const std::string& topic,
                        Bytes payload) {
    std::optional<Status> acked;
    pub.Publish(topic, std::move(payload), [&](Status s) { acked = s; });
    for (int i = 0; i < 200 && !acked; ++i) sched.RunFor(50 * kMillisecond);
    return acked.value_or(Err(ErrorCode::kTimeout, "no ack"));
  }

  sim::Scheduler sched;
  std::unique_ptr<SimCluster> cluster;
};

TEST_F(ProtocolEdgeTest, ConcurrentFirstPublicationsOnOneTopicAllSucceed) {
  MakeCluster();
  // Three publishers on three different servers race to publish the very
  // first message of the same topic: the coordinator election races, losers
  // get rejected/republished, and every publication is eventually acked and
  // totally ordered.
  auto pub0 = MakeClient("race-0", 0);
  auto pub1 = MakeClient("race-1", 1);
  auto pub2 = MakeClient("race-2", 2);
  auto sub = MakeClient("race-sub", {});
  std::vector<StreamPos> order;
  sub->Subscribe("contended", [&](const Message& m) { order.push_back(PosOf(m)); });
  sched.RunFor(kSecond);

  int acked = 0;
  for (auto* pub : {pub0.get(), pub1.get(), pub2.get()}) {
    pub->Publish("contended", Bytes{1}, [&](Status s) {
      if (s.ok()) ++acked;
    });
  }
  sched.RunFor(15 * kSecond);  // absorbs any reject + republish rounds
  EXPECT_EQ(acked, 3);
  ASSERT_EQ(order.size(), 3u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

TEST_F(ProtocolEdgeTest, StaleGossipAfterTakeoverIsRepaired) {
  MakeCluster();
  auto pub = MakeClient("pub", {});
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "stale-topic", Bytes{1}).ok());
  sched.RunFor(kSecond);

  // Find and crash the coordinator so the assignments go stale everywhere.
  const std::uint32_t group = TopicGroupOf("stale-topic", 100);
  std::size_t coordIdx = 99;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).CoordinatesGroup(group)) coordIdx = i;
  }
  ASSERT_LT(coordIdx, 3u);
  cluster->CrashServer(coordIdx);
  sched.RunFor(6 * kSecond);  // ephemeral expiry + takeover race

  // Next publication must still succeed (gossip repaired via announce or
  // reject-republish), and exactly one survivor coordinates the group.
  EXPECT_TRUE(PublishAndWait(*pub, "stale-topic", Bytes{2}).ok());
  sched.RunFor(kSecond);
  int coordinators = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != coordIdx && cluster->node(i).CoordinatesGroup(group)) ++coordinators;
  }
  EXPECT_EQ(coordinators, 1);
}

TEST_F(ProtocolEdgeTest, UnsubscribeThroughClusterStopsDelivery) {
  MakeCluster();
  auto sub = MakeClient("unsub-sub", 0);
  auto pub = MakeClient("unsub-pub", 1);
  int delivered = 0;
  sub->Subscribe("unsub-topic", [&](const Message&) { ++delivered; });
  sched.RunFor(kSecond);

  ASSERT_TRUE(PublishAndWait(*pub, "unsub-topic", Bytes{1}).ok());
  sched.RunFor(kSecond);
  EXPECT_EQ(delivered, 1);

  sub->Unsubscribe("unsub-topic");
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*pub, "unsub-topic", Bytes{2}).ok());
  sched.RunFor(kSecond);
  EXPECT_EQ(delivered, 1);  // nothing after the unsubscribe
}

TEST_F(ProtocolEdgeTest, QoS0PublicationsDeliveredWithoutAcks) {
  MakeCluster();
  auto sub = MakeClient("q0-sub", {});
  auto pub = MakeClient("q0-pub", {});
  int delivered = 0;
  sub->Subscribe("qos0", [&](const Message&) { ++delivered; });
  sched.RunFor(kSecond);

  for (int i = 0; i < 5; ++i) {
    pub->PublishNoAck("qos0", Bytes{static_cast<std::uint8_t>(i)});
    sched.RunFor(500 * kMillisecond);
  }
  sched.RunFor(2 * kSecond);
  EXPECT_EQ(delivered, 5);
}

TEST_F(ProtocolEdgeTest, TwoSubscribersSameServerShareOneBroadcast) {
  MakeCluster();
  auto subA = MakeClient("share-a", 0);
  auto subB = MakeClient("share-b", 0);
  auto pub = MakeClient("share-pub", 1);
  int a = 0, b = 0;
  subA->Subscribe("shared-topic", [&](const Message&) { ++a; });
  subB->Subscribe("shared-topic", [&](const Message&) { ++b; });
  sched.RunFor(kSecond);

  ASSERT_TRUE(PublishAndWait(*pub, "shared-topic", Bytes{1}).ok());
  sched.RunFor(kSecond);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  // Subscriber partitioning: the message is cached once per server; the
  // local fan-out handles both subscribers.
  EXPECT_EQ(cluster->node(0).cache().GetAfter("shared-topic", {0, 0}).size(), 1u);
}

TEST_F(ProtocolEdgeTest, SubscribersOnlySeeTheirTopics) {
  MakeCluster();
  auto sub = MakeClient("topical", {});
  int mine = 0, theirs = 0;
  sub->Subscribe("my-topic", [&](const Message&) { ++mine; });
  auto pub = MakeClient("topical-pub", {});
  sched.RunFor(kSecond);

  ASSERT_TRUE(PublishAndWait(*pub, "my-topic", Bytes{1}).ok());
  ASSERT_TRUE(PublishAndWait(*pub, "other-topic", Bytes{2}).ok());
  sched.RunFor(kSecond);
  EXPECT_EQ(mine, 1);
  EXPECT_EQ(theirs, 0);
}

TEST_F(ProtocolEdgeTest, FiveServerClusterEndToEnd) {
  MakeCluster(5, 77);
  std::vector<std::unique_ptr<client::Client>> subs;
  std::vector<int> counts(5, 0);
  for (std::size_t i = 0; i < 5; ++i) {
    subs.push_back(MakeClient("five-sub-" + std::to_string(i), i));
    subs[i]->Subscribe("five", [&counts, i](const Message&) {
      counts[i]++;
    });
  }
  auto pub = MakeClient("five-pub", {});
  sched.RunFor(kSecond);

  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(PublishAndWait(*pub, "five", Bytes{static_cast<std::uint8_t>(k)}).ok());
  }
  sched.RunFor(kSecond);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(counts[i], 3) << "server " << i;
}

TEST_F(ProtocolEdgeTest, ManyTopicsManyMessagesTotalOrderPerTopic) {
  MakeCluster(3, 88);
  auto sub = MakeClient("mt-sub", {});
  std::map<std::string, std::vector<StreamPos>> byTopic;
  for (int t = 0; t < 8; ++t) {
    const std::string topic = "mt-" + std::to_string(t);
    sub->Subscribe(topic, [&byTopic, topic](const Message& m) {
      byTopic[topic].push_back(PosOf(m));
    });
  }
  auto pub1 = MakeClient("mt-pub1", {});
  auto pub2 = MakeClient("mt-pub2", {});
  sched.RunFor(kSecond);

  int acked = 0;
  for (int round = 0; round < 4; ++round) {
    for (int t = 0; t < 8; ++t) {
      auto& pub = (round + t) % 2 == 0 ? *pub1 : *pub2;
      pub.Publish("mt-" + std::to_string(t), Bytes{static_cast<std::uint8_t>(round)},
                  [&](Status s) {
                    if (s.ok()) ++acked;
                  });
    }
    sched.RunFor(kSecond);
  }
  sched.RunFor(10 * kSecond);

  EXPECT_EQ(acked, 32);
  for (const auto& [topic, positions] : byTopic) {
    EXPECT_EQ(positions.size(), 4u) << topic;
    for (std::size_t i = 1; i < positions.size(); ++i) {
      EXPECT_LT(positions[i - 1], positions[i]) << topic;
    }
  }
}

TEST_F(ProtocolEdgeTest, LostFirstBroadcastOfATopicIsBackfilled) {
  MakeCluster(3, 91);
  // Elect the coordinator of the topic's group through another topic, so the
  // first publication of "first-lost" is sequenced at a known server.
  const std::string topic = "first-lost";
  const std::uint32_t group = TopicGroupOf(topic, 100);
  std::string warm;
  for (int i = 0; TopicGroupOf(warm, 100) != group || warm.empty(); ++i) {
    warm = "warm-" + std::to_string(i);
  }
  auto warmPub = MakeClient("fl-warm", {});
  sched.RunFor(kSecond);
  ASSERT_TRUE(PublishAndWait(*warmPub, warm, Bytes{0}).ok());
  sched.RunFor(kSecond);
  std::size_t coord = 3;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster->node(i).CoordinatesGroup(group)) coord = i;
  }
  ASSERT_LT(coord, 3u);
  const std::size_t victim = (coord + 1) % 3;

  auto pub = MakeClient("fl-pub", coord);
  auto sub = MakeClient("fl-sub", victim);
  std::vector<std::uint64_t> seqs;
  sub->Subscribe(topic, [&](const Message& m) { seqs.push_back(m.seq); });
  sched.RunFor(kSecond);

  // The topic's first broadcast never reaches the victim; the third server
  // confirms it, so it is acked. No link-recovery sync runs afterwards.
  sim::SimNetwork& net = cluster->network();
  net.Partition(cluster->HostOf(coord), cluster->HostOf(victim));
  ASSERT_TRUE(PublishAndWait(*pub, topic, Bytes{1}).ok());
  net.Heal(cluster->HostOf(coord), cluster->HostOf(victim));
  EXPECT_TRUE(cluster->node(victim).cache().GetAfter(topic, {0, 0}).empty());

  constexpr std::uint64_t kCount = 5;
  for (std::uint64_t k = 2; k <= kCount; ++k) {
    ASSERT_TRUE(
        PublishAndWait(*pub, topic, Bytes{static_cast<std::uint8_t>(k)}).ok());
  }
  sched.RunFor(2 * kSecond);

  // Sequence 2 was the victim's first sight of the topic: it backfilled 1
  // from the coordinator before delivering anything.
  EXPECT_EQ(cluster->node(victim).cache().GetAfter(topic, {0, 0}).size(), kCount);
  const std::vector<std::uint64_t> expected{1, 2, 3, 4, 5};
  EXPECT_EQ(seqs, expected);
}

}  // namespace
}  // namespace md::cluster
