// Delivery-path benchmark driver. One process runs the real program
// (core::Server, or three cluster::TcpClusterHost on loopback) and a load
// generator of one publisher and three subscribers built on the real client
// library. See METRICS.md for the workloads, every metric and its unit.
//
//   deliverybench --workload fanout|recover|cluster --seed N --seconds S
//                 --trace 0|1 --workdir DIR [--git-sha SHA]
//
// Each run: set up several times (setup_s is their median), warm up, an
// open-loop phase (latency; publications timed from when they were due),
// a closed-loop phase (capacity; a fixed window of unacked publications),
// a drain, then the oracle's verdict. The last stdout line is the result.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "cluster/tcp_host.hpp"
#include "common/histogram.hpp"
#include "common/slab.hpp"
#include "core/server.hpp"
#include "layers.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "transport/epoll_loop.hpp"

#ifndef DB_BUILD_TYPE
#define DB_BUILD_TYPE "unknown"
#endif

namespace deliverybench {
namespace {

using md::Duration;
using md::TimePoint;
using md::kMillisecond;
using md::kSecond;

TimePoint Now() { return md::RealClock::Instance().Now(); }

void SleepUntil(TimePoint t) {
  const Duration d = t - Now();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  std::size_t payloadBytes;
  /// Open-loop rate, publications/s: about half the closed-loop capacity
  /// measured on a 4-CPU host when the benchmark was defined, then frozen
  /// so later changes are compared at the same offered load.
  double openRate;
  /// Closed-loop publications in flight.
  std::size_t window;
  bool cluster;
  /// Subscribers stop and resume on a seeded schedule.
  bool churn;
  std::uint32_t topicsPerSubscriber;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fanout", 140, 10000, 256, false, false, kTopics},
    {"recover", 1024, 10000, 256, false, true, kTopics / 3},
    {"cluster", 140, 10000, 256, true, false, kTopics},
};

constexpr std::size_t kSubscribers = 3;
/// Fresh set-ups per run (see Run()).
constexpr int kBlocks = 6;
/// The generator's clock wakes at most this often; everything due by then
/// is published in one go.
constexpr Duration kGeneratorTick = 100 * md::kMicrosecond;
/// A run whose generator ran later than this at p99 is invalid.
constexpr Duration kMaxLagP99 = 20 * kMillisecond;
/// Recover schedule: online and offline stretches of each subscriber.
constexpr Duration kOnlineMin = 100 * kMillisecond, kOnlineMax = 250 * kMillisecond;
constexpr Duration kOfflineMin = 50 * kMillisecond, kOfflineMax = 150 * kMillisecond;

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string gitSha = "unknown";
};

/// Percentiles are taken per window of the phase and the median over the
/// windows is reported, so one stall of a shared host moves one window, not
/// the run's figure.
constexpr Duration kWindow = kSecond;

/// One timed publication: when it was due and how long it took.
struct Sample {
  TimePoint due;
  Duration latency;
};

// ---------------------------------------------------------------------------
// Spans (traced run only): kept in memory, written when the run ends.
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kPublish,      // due -> ack
  kPublishCall,  // Client::Publish call
  kReceipt,      // due -> subscriber receipt
  kOffline,      // Stop -> Start
  kReconnect,    // Start -> connection established
  kResubscribe,  // Start -> every topic confirmed
  kGapClosed,    // Start -> last missed message received
};

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kPublish: return "publish";
    case SpanKind::kPublishCall: return "publish_call";
    case SpanKind::kReceipt: return "receipt";
    case SpanKind::kOffline: return "offline";
    case SpanKind::kReconnect: return "reconnect";
    case SpanKind::kResubscribe: return "resubscribe";
    case SpanKind::kGapClosed: return "gap_closed";
  }
  return "?";
}

struct Span {
  std::uint64_t id;      // publication key, or reconnect key
  SpanKind kind;
  std::uint32_t actor;   // subscriber index for receipts and reconnects
  TimePoint start;
  TimePoint end;
};

// ---------------------------------------------------------------------------
// The program under test
// ---------------------------------------------------------------------------

/// A loopback port from the kernel's ephemeral allocation, held until the
/// host that will listen on it has bound. An exclusive bind(0) finds a port
/// nobody holds; a SO_REUSEPORT bind then keeps it reserved (a bound socket
/// that never listens receives no connections).
class PortReservation {
 public:
  PortReservation() {
    for (int attempt = 0; attempt < 16 && fd_ < 0; ++attempt) {
      const std::uint16_t candidate = ExclusivePort();
      if (candidate == 0) continue;
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      int one = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
      sockaddr_in addr = Loopback(candidate);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        fd_ = fd;
        port_ = candidate;
      } else {
        ::close(fd);
      }
    }
  }
  ~PortReservation() { Release(); }
  PortReservation(const PortReservation&) = delete;
  PortReservation& operator=(const PortReservation&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  void Release() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  static sockaddr_in Loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
  }
  static std::uint16_t ExclusivePort() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return 0;
    sockaddr_in addr = Loopback(0);
    std::uint16_t port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
    ::close(fd);
    return port;
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Pause between starting consecutive cluster hosts.
constexpr std::chrono::milliseconds kStartStagger{50};

/// core::Server with its default configuration, or a three-node cluster of
/// TcpClusterHosts with the WAL on (fsync policy os).
class Program {
 public:
  Program(const WorkloadSpec& spec, const std::string& workdir)
      : spec_(spec), workdir_(workdir) {}
  ~Program() { Stop(); }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  md::Status Start() {
    if (!spec_.cluster) {
      md::core::ServerConfig cfg;
      cfg.serverId = "db-server";
      cfg.metrics = &registry_;
      server_ = std::make_unique<md::core::Server>(cfg);
      return server_->Start();
    }
    constexpr std::size_t kNodes = 3;
    std::vector<std::unique_ptr<PortReservation>> ports;
    for (std::size_t i = 0; i < kNodes * 3; ++i) {
      ports.push_back(std::make_unique<PortReservation>());
      if (ports.back()->port() == 0) {
        return md::Err(md::ErrorCode::kUnavailable, "no ephemeral port");
      }
    }
    std::vector<md::cluster::TcpHostConfig> cfgs(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto& c = cfgs[i];
      c.serverId = "db-node-" + std::to_string(i + 1);
      c.nodeId = static_cast<md::coord::NodeId>(i + 1);
      c.clientPort = ports[i * 3]->port();
      c.peerPort = ports[i * 3 + 1]->port();
      c.coordPort = ports[i * 3 + 2]->port();
      c.seed = 1000 + i;
      c.cluster.metrics = &registry_;
      c.coord.metrics = &registry_;
      c.cluster.wal.dir = workdir_ + "/wal/" + c.serverId;
      c.cluster.wal.fsync = md::wal::FsyncPolicy::kOs;
      std::error_code ec;
      std::filesystem::remove_all(c.cluster.wal.dir, ec);
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        cfgs[i].peers.push_back({cfgs[j].serverId, cfgs[j].nodeId, "127.0.0.1",
                                 cfgs[j].peerPort, cfgs[j].coordPort});
      }
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      hosts_.push_back(std::make_unique<md::cluster::TcpClusterHost>(cfgs[i]));
      ports[i * 3]->Release();
      ports[i * 3 + 1]->Release();
      ports[i * 3 + 2]->Release();
      if (md::Status s = hosts_.back()->Start(); !s.ok()) return s;
      // Staggered so each pair's peer link is dialed from one side only:
      // two nodes dialing each other at once drop frames (see Settle()).
      if (i + 1 < kNodes) std::this_thread::sleep_for(kStartStagger);
    }
    return md::OkStatus();
  }

  /// A cluster's peer links form lazily and can race each other (two nodes
  /// dialing at once close each other's link) for a few link-retry rounds
  /// after start; broadcasts sent in that window can be lost for a node's
  /// subscribers (METRICS.md, "Findings"). Every block waits this out before
  /// any traffic; setup_s does not include it.
  void Settle() {
    if (!spec_.cluster) return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(2 * md::cluster::TcpHostConfig{}.peerRetryInterval));
  }

  /// True once MiniZK has exactly one leader (always true single-node).
  bool Ready() {
    if (!spec_.cluster) return true;
    int leaders = 0;
    for (auto& h : hosts_) {
      h->WithCoord([&](md::coord::CoordNode& c) { leaders += c.IsLeader() ? 1 : 0; });
    }
    return leaders == 1;
  }

  [[nodiscard]] std::vector<md::client::ServerAddress> PublisherServers() const {
    return {Address(0)};
  }
  /// Cluster subscriber i is pinned to node i (single-entry server list).
  [[nodiscard]] std::vector<md::client::ServerAddress> SubscriberServers(
      std::size_t i) const {
    return {Address(spec_.cluster ? i % hosts_.size() : 0)};
  }

  md::obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const std::vector<std::unique_ptr<md::cluster::TcpClusterHost>>&
  hosts() const {
    return hosts_;
  }

  void Stop() {
    for (auto& h : hosts_) h->Stop();
    if (server_) server_->Stop();
  }

 private:
  [[nodiscard]] md::client::ServerAddress Address(std::size_t node) const {
    md::client::ServerAddress a;
    a.host = "127.0.0.1";
    a.port = spec_.cluster ? hosts_[node]->ClientPort() : server_->Port();
    return a;
  }

  const WorkloadSpec& spec_;
  std::string workdir_;
  md::obs::MetricsRegistry registry_;  // outlives the server and hosts
  std::unique_ptr<md::core::Server> server_;
  std::vector<std::unique_ptr<md::cluster::TcpClusterHost>> hosts_;
};

// ---------------------------------------------------------------------------
// The load generator
// ---------------------------------------------------------------------------

struct Subscriber {
  struct TopicState {
    bool confirmed = false;       // SUBACK seen since the last Start()
    std::uint64_t liveFrom = 0;   // deliveries up to this seq are recovered
    std::uint64_t missedUpTo = 0; // published before the last Start()
    bool gapOpen = false;
  };

  std::unique_ptr<md::client::Client> client;
  std::vector<std::uint32_t> topics;
  std::unique_ptr<StreamOracle> oracle;
  std::vector<TopicState> state = std::vector<TopicState>(kTopics);
  std::size_t confirmed = 0;
  bool established = false;

  // Reconnect bookkeeping (recover workload).
  TimePoint stoppedAt = 0;
  TimePoint startedAt = 0;
  std::uint64_t reconnects = 0;
  std::size_t gapsOpen = 0;
  /// Stopped again before the previous resume closed its gap.
  std::uint64_t unfinishedRecoveries = 0;

  // Samples, recorded on the subscriber loop only.
  std::vector<Sample> delivery;        // open-loop, untraced
  std::vector<Sample> deliveryTraced;  // open-loop, traced
  std::vector<Duration> recover;         // Start -> last missed message
  std::vector<Duration> reconnect;       // Start -> established
  std::vector<Duration> resubscribe;     // Start -> every topic confirmed
  std::uint64_t recovered = 0;
};

/// One complete set-up: the program, two client loops, one publisher and
/// three subscribers. Built and torn down whole; setup_s times the build.
class Rig {
 public:
  Rig(const Options& opt, Inputs& inputs)
      : opt_(opt), spec_(*opt.spec), inputs_(inputs), program_(spec_, opt.workdir) {
    for (auto& s : publishedSeq_) s.store(0);
    for (std::uint32_t t = 0; t < kTopics; ++t) names_.push_back(TopicName(t));
  }
  ~Rig() { TearDown(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Starts everything and waits until every subscription is confirmed.
  bool Build() {
    if (!program_.Start().ok()) return false;
    const TimePoint deadline = Now() + 30 * kSecond;
    while (!program_.Ready()) {
      if (Now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pubThread_ = std::thread([this] { pubLoop_.Run(); });
    subThread_ = std::thread([this] { subLoop_.Run(); });

    md::client::ClientConfig pubCfg;
    pubCfg.servers = program_.PublisherServers();
    pubCfg.clientId = "db-pub";
    pubCfg.seed = opt_.seed;
    pub_ = std::make_unique<md::client::Client>(pubLoop_, pubCfg);
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      auto sub = std::make_unique<Subscriber>();
      md::client::ClientConfig cfg;
      cfg.servers = program_.SubscriberServers(i);
      cfg.clientId = "db-sub-" + std::to_string(i);
      cfg.seed = opt_.seed * 31 + i;
      sub->client = std::make_unique<md::client::Client>(subLoop_, cfg);
      if (spec_.topicsPerSubscriber >= kTopics) {
        for (std::uint32_t t = 0; t < kTopics; ++t) sub->topics.push_back(t);
      } else {
        sub->topics = Inputs::TopicSubset(opt_.seed * 7919 + i, spec_.topicsPerSubscriber);
      }
      sub->oracle = std::make_unique<StreamOracle>(inputs_, sub->topics);
      subs_.push_back(std::move(sub));
    }
    pubLoop_.Post([this] { pub_->Start(); });
    subLoop_.Post([this] {
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        Subscriber& s = *subs_[i];
        s.client->SetConnectionListener([this, i](bool up) { OnConnection(i, up); });
        for (std::uint32_t t : s.topics) {
          s.client->Subscribe(
              names_[t], [this, i, t](const md::Message& m) { OnDeliver(i, t, m); },
              [this, i, t] { OnSubscribed(i, t); });
        }
        s.client->Start();
      }
    });
    while (subsReady_.load() < subs_.size() || !pub_->IsConnected()) {
      if (Now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  void TearDown() {
    if (torn_) return;
    torn_ = true;
    if (pubThread_.joinable()) {
      OnLoop(pubLoop_, [this] { closedActive_ = false; pub_->Stop(); });
      OnLoop(subLoop_, [this] {
        for (auto& s : subs_) s->client->Stop();
      });
      pubLoop_.Stop();
      subLoop_.Stop();
      pubThread_.join();
      subThread_.join();
    }
    program_.Stop();
  }

  // --- phases (driving thread) ---------------------------------------------

  /// One publication per topic, acked, then a short open-loop stretch,
  /// drained: a cluster elects every group's coordinator on its group's
  /// first publication, and pools and caches fill, before timing. (Traffic
  /// racing those elections is sequenced out of publisher order on the
  /// cluster; see METRICS.md, "Findings".)
  bool Warmup(Duration openLoop) {
    OnLoop(pubLoop_, [this] {
      for (std::uint32_t t = 0; t < kTopics; ++t) PublishOn(t, Phase::kWarmup, Now());
    });
    const TimePoint deadline = Now() + 20 * kSecond;
    while (acked_.load() + ackFailed_.load() < published_.load()) {
      if (Now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const TimePoint start = Now() + kMillisecond;
    RunSchedule(start, start + openLoop, Phase::kWarmup, INT64_MAX, nullptr);
    return Drain(20 * kSecond);
  }

  /// Publishes on the seeded schedule from `start` to `end`; publications
  /// due at or after `tracedFrom` carry Phase::kOpenTraced. The driving
  /// thread is the schedule's clock; `onTick` runs on each of its wakes.
  void RunSchedule(TimePoint start, TimePoint end, Phase phase, TimePoint tracedFrom,
                   const std::function<void()>& onTick) {
    OnLoop(pubLoop_, [&] {
      sched_ = Schedule{start, end, tracedFrom, phase, 0, true};
    });
    // Exact sleeps for the schedule's clock only; threads started earlier
    // (the program's) keep the default timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    TimePoint wake = start;
    while (wake < end) {
      SleepUntil(wake);
      if (!kickPending_.exchange(true)) {
        pubLoop_.Post([this] {
          kickPending_.store(false);
          PublishDue();
        });
      }
      if (onTick) onTick();
      const TimePoint now = Now();
      const auto next = static_cast<std::uint64_t>(
          static_cast<double>(now - start) * spec_.openRate / kSecond) + 1;
      wake = std::max(DueOf(start, next), now + kGeneratorTick);
    }
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
    OnLoop(pubLoop_, [this] {
      PublishDue();
      sched_.active = false;
    });
  }

  /// Keeps `window` unacked publications in flight until StopClosedLoop().
  void StartClosedLoop() {
    OnLoop(pubLoop_, [this] {
      closedActive_ = true;
      for (std::size_t i = 0; i < spec_.window; ++i) PublishNext(Phase::kClosed, Now());
    });
  }
  void StopClosedLoop() {
    OnLoop(pubLoop_, [this] { closedActive_ = false; });
  }

  /// Waits until every publication is acked (or failed) and every
  /// subscriber holds every publication of its topics.
  /// Gives up after `timeout`, or once nothing has been acked or delivered
  /// for three seconds (a hole in a stream never fills).
  bool Drain(Duration timeout) {
    const TimePoint deadline = Now() + timeout;
    std::uint64_t progress = 0;
    TimePoint progressAt = Now();
    while (Now() < deadline && Now() - progressAt < 3 * kSecond) {
      const std::uint64_t p = acked_.load() + ackFailed_.load() + uniqueDeliveries_.load();
      if (p != progress) {
        progress = p;
        progressAt = Now();
      }
      if (acked_.load() + ackFailed_.load() == published_.load()) {
        bool complete = false;
        OnLoop(subLoop_, [&] {
          complete = true;
          for (auto& s : subs_) {
            if (s->gapsOpen > 0 || s->confirmed < s->topics.size()) complete = false;
            for (std::uint32_t t : s->topics) {
              if (s->oracle->Contiguous(t) < publishedSeq_[t].load()) complete = false;
            }
          }
        });
        if (complete) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::fprintf(stderr, "drain timed out: published %llu, acked %llu, ack failed %llu\n",
                 static_cast<unsigned long long>(published_.load()),
                 static_cast<unsigned long long>(acked_.load()),
                 static_cast<unsigned long long>(ackFailed_.load()));
    OnLoop(subLoop_, [&] {
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        std::uint64_t behind = 0;
        for (std::uint32_t t : subs_[i]->topics) {
          behind += publishedSeq_[t].load() - subs_[i]->oracle->Contiguous(t);
        }
        std::fprintf(stderr, "  subscriber %zu: %llu publications not yet received\n", i,
                     static_cast<unsigned long long>(behind));
        int shown = 0;
        for (std::uint32_t t : subs_[i]->topics) {
          const std::uint64_t have = subs_[i]->oracle->Contiguous(t);
          if (publishedSeq_[t].load() == have || shown++ == 5) continue;
          std::fprintf(stderr, "    %s: published %llu, received 1..%llu\n", names_[t].c_str(),
                       static_cast<unsigned long long>(publishedSeq_[t].load()),
                       static_cast<unsigned long long>(have));
        }
      }
    });
    return false;
  }

  /// Seeded stop/resume schedule for every subscriber over [start, end):
  /// alternating online and offline stretches, every subscriber back online
  /// before `end`.
  void ScheduleChurn(TimePoint start, TimePoint end) {
    md::Rng rng(opt_.seed ^ 0x636875726eULL);
    std::vector<std::pair<TimePoint, std::pair<std::size_t, bool>>> events;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      TimePoint t = start + rng.NextInRange(0, kOnlineMax);
      while (true) {
        const TimePoint back = t + rng.NextInRange(kOfflineMin, kOfflineMax);
        if (back + kOnlineMin >= end) break;
        events.push_back({t, {i, false}});
        events.push_back({back, {i, true}});
        t = back + rng.NextInRange(kOnlineMin, kOnlineMax);
      }
    }
    OnLoop(subLoop_, [&] {
      for (const auto& [at, ev] : events) {
        const auto [i, isStart] = ev;
        subLoop_.ScheduleTimer(at - Now(), [this, i = i, isStart = isStart] {
          if (isStart) {
            StartSubscriber(i);
          } else {
            StopSubscriber(i);
          }
        });
      }
    });
  }

  /// Runs `fn` on `loop` and waits for it.
  static void OnLoop(md::EpollLoop& loop, const std::function<void()>& fn) {
    std::atomic<bool> done{false};
    loop.Post([&] {
      fn();
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  // --- accessors for the report (quiescent) ---------------------------------
  Program& program() { return program_; }
  md::EpollLoop& subLoop() { return subLoop_; }
  md::EpollLoop& pubLoop() { return pubLoop_; }
  std::vector<std::unique_ptr<Subscriber>>& subs() { return subs_; }
  md::client::Client& publisher() { return *pub_; }
  [[nodiscard]] std::uint64_t published() const { return published_.load(); }
  [[nodiscard]] std::uint64_t acked() const { return acked_.load(); }
  [[nodiscard]] std::uint64_t uniqueDeliveries() const { return uniqueDeliveries_.load(); }
  [[nodiscard]] std::vector<std::uint64_t> PublishedPerTopic() const {
    std::vector<std::uint64_t> out;
    for (const auto& s : publishedSeq_) out.push_back(s.load());
    return out;
  }
  std::vector<Duration>& lag() { return lag_; }
  std::vector<Sample>& ack() { return ack_; }
  std::vector<Sample>& ackTraced() { return ackTraced_; }
  std::vector<Duration>& publishCall() { return publishCall_; }
  void SetTracing(bool on) { tracing_ = on; }
  std::vector<Span>& pubSpans() { return pubSpans_; }
  std::vector<Span>& subSpans() { return subSpans_; }

 private:
  struct Schedule {
    TimePoint start = 0;
    TimePoint end = 0;
    TimePoint tracedFrom = INT64_MAX;
    Phase phase = Phase::kOpen;
    std::uint64_t index = 0;
    bool active = false;
  };

  [[nodiscard]] TimePoint DueOf(TimePoint start, std::uint64_t i) const {
    return start + static_cast<TimePoint>(static_cast<double>(i) * kSecond /
                                          spec_.openRate);
  }

  [[nodiscard]] static bool IsOpen(Phase p) {
    return p == Phase::kOpen || p == Phase::kOpenTraced;
  }

  // --- publisher loop --------------------------------------------------------

  void PublishDue() {
    if (!sched_.active) return;
    const TimePoint now = Now();
    while (true) {
      const TimePoint due = DueOf(sched_.start, sched_.index);
      if (due > now || due >= sched_.end) break;
      Phase phase = sched_.phase;
      if (phase == Phase::kOpen && due >= sched_.tracedFrom) phase = Phase::kOpenTraced;
      if (IsOpen(phase)) lag_.push_back(now - due);
      PublishNext(phase, due);
      ++sched_.index;
    }
  }

  void PublishNext(Phase phase, TimePoint due) { PublishOn(inputs_.NextTopic(), phase, due); }

  void PublishOn(std::uint32_t topic, Phase phase, TimePoint due) {
    const std::uint64_t seq = publishedSeq_[topic].load(std::memory_order_relaxed) + 1;
    const PayloadHeader h{inputs_.nonce(), topic, phase, seq, due};
    md::Bytes payload = inputs_.MakePayload(h);
    // Published before the call: a subscriber that resumes now must count
    // this publication as one it may have missed.
    publishedSeq_[topic].store(seq, std::memory_order_release);
    published_.fetch_add(1, std::memory_order_relaxed);
    const TimePoint callStart = Now();
    pub_->Publish(names_[topic], std::move(payload),
                  [this, topic, seq, phase, due](md::Status st) {
                    OnAck(st, topic, seq, phase, due);
                  });
    if (phase == Phase::kOpenTraced && tracing_) {
      const TimePoint callEnd = Now();
      publishCall_.push_back(callEnd - callStart);
      pubSpans_.push_back({PublicationKey(topic, seq), SpanKind::kPublishCall, 0,
                           callStart, callEnd});
    }
  }

  void OnAck(const md::Status& st, std::uint32_t topic, std::uint64_t seq, Phase phase,
             TimePoint due) {
    const TimePoint now = Now();
    if (!st.ok()) {
      ackFailed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    acked_.fetch_add(1, std::memory_order_relaxed);
    if (phase == Phase::kOpen) ack_.push_back({due, now - due});
    if (phase == Phase::kOpenTraced) {
      ackTraced_.push_back({due, now - due});
      if (tracing_) {
        pubSpans_.push_back({PublicationKey(topic, seq), SpanKind::kPublish, 0, due, now});
      }
    }
    if (phase == Phase::kClosed && closedActive_) PublishNext(Phase::kClosed, now);
  }

  // --- subscriber loop -------------------------------------------------------

  void OnConnection(std::size_t i, bool up) {
    Subscriber& s = *subs_[i];
    if (!up || s.established) return;
    s.established = true;
    if (s.startedAt != 0) {
      const TimePoint now = Now();
      s.reconnect.push_back(now - s.startedAt);
      if (tracing_) {
        subSpans_.push_back({ReconnectKey(i, s), SpanKind::kReconnect,
                             static_cast<std::uint32_t>(i), s.startedAt, now});
      }
    }
  }

  void OnSubscribed(std::size_t i, std::uint32_t t) {
    Subscriber& s = *subs_[i];
    Subscriber::TopicState& ts = s.state[t];
    if (ts.confirmed) return;
    ts.confirmed = true;
    ts.liveFrom = publishedSeq_[t].load(std::memory_order_acquire);
    if (++s.confirmed < s.topics.size()) return;
    if (s.startedAt == 0) {
      subsReady_.fetch_add(1);
      return;
    }
    const TimePoint now = Now();
    s.resubscribe.push_back(now - s.startedAt);
    if (tracing_) {
      subSpans_.push_back({ReconnectKey(i, s), SpanKind::kResubscribe,
                           static_cast<std::uint32_t>(i), s.startedAt, now});
    }
  }

  void OnDeliver(std::size_t i, std::uint32_t t, const md::Message& m) {
    const TimePoint now = Now();
    Subscriber& s = *subs_[i];
    PayloadHeader h;
    const StreamOracle::Verdict v = s.oracle->Observe(t, m.payload, h);
    if (v == StreamOracle::Verdict::kForeign || v == StreamOracle::Verdict::kDuplicate) {
      return;
    }
    if (v == StreamOracle::Verdict::kInOrder) {
      uniqueDeliveries_.fetch_add(1, std::memory_order_relaxed);
    }
    Subscriber::TopicState& ts = s.state[t];
    if (!ts.confirmed || h.seq <= ts.liveFrom) {
      // Late by design: missed while offline and fetched on resume.
      if (s.startedAt != 0) ++s.recovered;
    } else if (h.phase == Phase::kOpen) {
      s.delivery.push_back({h.due, now - h.due});
    } else if (h.phase == Phase::kOpenTraced) {
      s.deliveryTraced.push_back({h.due, now - h.due});
      if (tracing_) {
        subSpans_.push_back({PublicationKey(t, h.seq), SpanKind::kReceipt,
                             static_cast<std::uint32_t>(i), h.due, now});
      }
    }
    if (ts.gapOpen && s.oracle->Contiguous(t) >= ts.missedUpTo) {
      ts.gapOpen = false;
      if (--s.gapsOpen == 0) {
        s.recover.push_back(now - s.startedAt);
        if (tracing_) {
          subSpans_.push_back({ReconnectKey(i, s), SpanKind::kGapClosed,
                               static_cast<std::uint32_t>(i), s.startedAt, now});
        }
      }
    }
  }

  void StopSubscriber(std::size_t i) {
    Subscriber& s = *subs_[i];
    if (s.gapsOpen > 0) ++s.unfinishedRecoveries;
    s.client->Stop();
    s.stoppedAt = Now();
    s.established = false;
    s.confirmed = 0;
    for (std::uint32_t t : s.topics) s.state[t].confirmed = false;
  }

  void StartSubscriber(std::size_t i) {
    Subscriber& s = *subs_[i];
    s.startedAt = Now();
    ++s.reconnects;
    if (tracing_) {
      subSpans_.push_back({ReconnectKey(i, s), SpanKind::kOffline,
                           static_cast<std::uint32_t>(i), s.stoppedAt, s.startedAt});
    }
    s.gapsOpen = 0;
    for (std::uint32_t t : s.topics) {
      Subscriber::TopicState& ts = s.state[t];
      ts.missedUpTo = publishedSeq_[t].load(std::memory_order_acquire);
      ts.gapOpen = ts.missedUpTo > s.oracle->Contiguous(t);
      if (ts.gapOpen) ++s.gapsOpen;
    }
    s.client->Start();
  }

  static std::uint64_t ReconnectKey(std::size_t i, const Subscriber& s) {
    return (static_cast<std::uint64_t>(i) << 32) | s.reconnects;
  }

  const Options& opt_;
  const WorkloadSpec& spec_;
  Inputs& inputs_;
  Program program_;
  std::vector<std::string> names_;

  md::EpollLoop pubLoop_;
  md::EpollLoop subLoop_;
  std::unique_ptr<md::client::Client> pub_;
  std::vector<std::unique_ptr<Subscriber>> subs_;
  std::thread pubThread_;
  std::thread subThread_;
  bool torn_ = false;

  std::array<std::atomic<std::uint64_t>, kTopics> publishedSeq_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> ackFailed_{0};
  std::atomic<std::uint64_t> uniqueDeliveries_{0};
  std::atomic<std::size_t> subsReady_{0};
  std::atomic<bool> kickPending_{false};

  // Publisher-loop state.
  Schedule sched_;
  bool closedActive_ = false;
  std::vector<Duration> lag_;
  std::vector<Sample> ack_;
  std::vector<Sample> ackTraced_;
  std::vector<Duration> publishCall_;
  std::vector<Span> pubSpans_;
  // Set by the driving thread only while both loops are idle in OnLoop().
  bool tracing_ = false;
  std::vector<Span> subSpans_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::vector<double> SortedMs(const std::vector<Duration>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (Duration d : ns) out.push_back(static_cast<double>(d) / kMillisecond);
  std::sort(out.begin(), out.end());
  return out;
}

/// The percentile, or nullopt when the sample cannot support it.
std::optional<double> PercentileMs(const std::vector<Duration>& ns, double q) {
  return Percentile(SortedMs(ns), q);
}

std::vector<Duration> Latencies(const std::vector<Sample>& samples) {
  std::vector<Duration> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency);
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}


double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// The process's resident-set high-water mark so far, MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + JsonNumber(v[i]);
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Reported {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Reported>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string KernelRelease() {
  utsname u{};
  return uname(&u) == 0 ? u.release : "unknown";
}

/// Counter/gauge deltas of the program's registry over one phase.
struct Delta {
  md::obs::MetricsSnapshot before;
  md::obs::MetricsSnapshot after;
  [[nodiscard]] double Total(std::string_view name) const {
    return after.Total(name) - before.Total(name);
  }
  [[nodiscard]] double Value(std::string_view name, std::string_view labels) const {
    return after.Value(name, labels) - before.Value(name, labels);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// What the program's registry said about one block's open-loop phase.
struct OpenPhase {
  Delta delta;
  md::Histogram replicationAck;  // md_cluster_replication_ack_ns, all nodes
  md::Histogram coordWrite;      // md_coord_write_ns, all nodes
  double published = 0;          // generator publications in the phase
  std::int64_t peakQueue = 0;    // md_transport_send_queue_bytes, sampled
  std::int64_t peakPending = 0;  // md_cluster_replication_pending, summed
};

/// The cluster histograms, all nodes merged (empty single-node).
void MergeClusterHistograms(Program& program, OpenPhase& open) {
  for (const auto& h : program.hosts()) {
    md::obs::ClusterMetrics cm(program.registry(), md::obs::ServerLabel(h->serverId()));
    open.replicationAck.Merge(cm.replicationAckNs.Merged());
  }
  for (std::size_t n = 1; n <= program.hosts().size(); ++n) {
    md::obs::CoordMetrics om(program.registry(), md::obs::NodeLabel(std::to_string(n)));
    open.coordWrite.Merge(om.writeNs.Merged());
  }
}

/// Per-layer metrics of the traced run (METRICS.md, "Per-layer metrics").
std::vector<Reported> LayerMetrics(const Options& opt, Rig& rig, const OpenPhase& phase) {
  const Delta& open = phase.delta;
  const double openPublished = phase.published;
  const WorkloadSpec& spec = *opt.spec;
  std::vector<Reported> out;
  auto add = [&](std::string name, double v, std::string unit) {
    out.push_back({std::move(name), v, std::move(unit)});
  };
  auto pctOr0 = [](const std::vector<Duration>& ns, double q, double scale) {
    const auto v = PercentileMs(ns, q);
    return v ? *v * scale : 0.0;
  };

  // client
  std::vector<Duration> reconnect, resubscribe, recover;
  std::uint64_t dups = 0, unique = 0, recovered = 0;
  for (auto& s : rig.subs()) {
    reconnect.insert(reconnect.end(), s->reconnect.begin(), s->reconnect.end());
    resubscribe.insert(resubscribe.end(), s->resubscribe.begin(), s->resubscribe.end());
    recover.insert(recover.end(), s->recover.begin(), s->recover.end());
    dups += s->client->stats().duplicatesFiltered;
    unique += s->client->stats().messagesReceived;
    recovered += s->recovered;
  }
  add("client.publish_call_us", pctOr0(rig.publishCall(), 0.5, 1000), "us");
  add("client.reconnect_us", pctOr0(reconnect, 0.5, 1000), "us");
  add("client.resubscribe_us", pctOr0(resubscribe, 0.5, 1000), "us");
  add("client.republishes", static_cast<double>(rig.publisher().stats().republishes), "count");
  add("client.duplicates_filtered", static_cast<double>(dups), "count");
  add("client.useful_delivery_ratio", Ratio(unique, unique + dups), "ratio");
  add("client.recovered_messages", static_cast<double>(recovered), "count");
  add("client.recover_p50_ms", pctOr0(recover, 0.5, 1), "ms");
  add("client.recover_p90_ms", pctOr0(recover, 0.9, 1), "ms");

  // core (server side; zero on cluster, which does not run core::Server)
  const auto& snap = open.after;
  const auto stage = [&](const char* stageName, bool p99) {
    const auto* s = snap.Find("md_trace_stage_ns",
                              std::string("domain=\"wall\",stage=\"") + stageName + "\"");
    if (s == nullptr || s->count == 0) return 0.0;
    return (p99 ? s->summary.p99Ms : s->summary.medianMs) * 1000;
  };
  for (const char* st : {"sequenced", "cached", "fanned_out", "socket_written"}) {
    add(std::string("core.stage.") + st + "_us.p50", stage(st, false), "us");
    add(std::string("core.stage.") + st + "_us.p99", stage(st, true), "us");
  }
  const auto* e2e = snap.Find("md_trace_end_to_end_ns", "domain=\"wall\"");
  const bool hasE2e = e2e != nullptr && e2e->count > 0;
  add("core.trace_e2e_us.p50", hasE2e ? e2e->summary.medianMs * 1000 : 0, "us");
  add("core.trace_e2e_us.p99", hasE2e ? e2e->summary.p99Ms * 1000 : 0, "us");
  add("core.trace_dropped", open.Total("md_trace_dropped_total"), "count");
  const double corePublished = open.Total("md_core_published_total");
  const double coreDelivered = open.Total("md_core_delivered_total");
  add("core.delivered_per_publish", Ratio(coreDelivered, corePublished), "1/publish");

  // transport (core::Server's loops; the cluster hosts do not count)
  const double syscalls = open.Total("md_transport_syscalls_total");
  const double sendCalls = open.Value("md_transport_syscalls_total", "op=\"send\"");
  const double sendmsgCalls = open.Value("md_transport_syscalls_total", "op=\"sendmsg\"");
  add("transport.syscalls_per_delivery", Ratio(syscalls, coreDelivered), "1/delivery");
  add("transport.sendmsg_share", Ratio(sendmsgCalls, sendCalls + sendmsgCalls), "ratio");
  add("transport.tasks_posted_per_publish",
      Ratio(open.Total("md_transport_tasks_posted_total"), corePublished), "1/publish");
  add("transport.loop_iterations_per_delivery",
      Ratio(open.Total("md_transport_loop_iterations_total"), coreDelivered), "1/delivery");
  add("transport.copy_bytes_per_delivery",
      Ratio(open.Total("md_transport_copy_bytes_total"), coreDelivered), "B/delivery");
  add("transport.bytes_written_per_delivery",
      Ratio(open.Total("md_transport_bytes_written_total"), coreDelivered), "B/delivery");
  add("transport.send_queue_peak_bytes", static_cast<double>(phase.peakQueue), "B");

  // cluster, coord, wal (zero on the single-server workloads)
  const md::LatencySummary ra = md::SummarizeNanos(phase.replicationAck);
  const md::LatencySummary cw = md::SummarizeNanos(phase.coordWrite);
  add("cluster.replication_ack_us.p50", ra.count > 0 ? ra.medianMs * 1000 : 0, "us");
  add("cluster.replication_ack_us.p99", ra.count > 0 ? ra.p99Ms * 1000 : 0, "us");
  add("cluster.forwarded_per_publish", Ratio(open.Total("md_cluster_forwarded_total"), openPublished),
      "1/publish");
  add("cluster.replication_pending_peak", static_cast<double>(phase.peakPending), "count");
  add("cluster.delivered_per_publish",
      Ratio(open.Total("md_cluster_delivered_total"), openPublished), "1/publish");
  add("cluster.rejects", open.Total("md_cluster_rejects_total"), "count");
  add("cluster.fences", open.Total("md_cluster_fences_total"), "count");
  add("cluster.takeovers", open.Total("md_cluster_takeovers_total"), "count");
  add("coord.write_us.p50", cw.count > 0 ? cw.medianMs * 1000 : 0, "us");
  add("coord.elections", snap.Total("md_coord_elections_total"), "count");
  add("wal.appends_per_publish", Ratio(open.Total("md_wal_appends_total"), openPublished),
      "1/publish");
  add("wal.append_bytes_per_publish",
      Ratio(open.Total("md_wal_append_bytes_total"), openPublished), "B/publish");
  add("wal.fsyncs", open.Total("md_wal_fsyncs_total"), "count");

  // common
  add("common.slab_bytes_in_use",
      static_cast<double>(md::SlabArena::Default().Stats().bytesInUse), "B");

  // Tracing overhead: the same open-loop phase, traced part minus untraced.
  std::vector<Sample> delivery, deliveryTraced;
  for (auto& s : rig.subs()) {
    delivery.insert(delivery.end(), s->delivery.begin(), s->delivery.end());
    deliveryTraced.insert(deliveryTraced.end(), s->deliveryTraced.begin(),
                          s->deliveryTraced.end());
  }
  add("trace.overhead_delivery_p50_ms",
      pctOr0(Latencies(deliveryTraced), 0.5, 1) - pctOr0(Latencies(delivery), 0.5, 1), "ms");
  add("trace.overhead_ack_p50_ms",
      pctOr0(Latencies(rig.ackTraced()), 0.5, 1) - pctOr0(Latencies(rig.ack()), 0.5, 1),
      "ms");
  add("trace.spans", static_cast<double>(rig.pubSpans().size() + rig.subSpans().size()),
      "count");

  // Replay of the run's own inputs through each layer.
  ReplaySpec replay;
  replay.seed = opt.seed;
  replay.payloadBytes = spec.payloadBytes;
  for (auto& s : rig.subs()) replay.subscriptions.push_back(s->topics);
  replay.resumeGap = static_cast<std::size_t>(
      spec.openRate * (kOfflineMin + kOfflineMax) / 2 / kSecond / kTopics) + 1;
  replay.walDir = opt.workdir + "/replay-wal";
  for (auto& [name, v] : ReplayLayers(replay)) {
    add(name, v, name.ends_with("_ns_per_msg") ? "ns/msg" : "ns");
  }
  return out;
}

void WriteSpans(const Options& opt, Rig& rig) {
  const std::string path = opt.workdir + "/spans-" + opt.spec->name + ".csv";
  std::ofstream f(path);
  f << "id,kind,actor,start_ns,end_ns\n";
  for (const auto* spans : {&rig.pubSpans(), &rig.subSpans()}) {
    for (const Span& s : *spans) {
      f << s.id << ',' << SpanName(s.kind) << ',' << s.actor << ',' << s.start << ','
        << s.end << '\n';
    }
  }
}

/// One measured value and the share of the host's capacity that other work
/// took while it was measured (see HostLoad).
struct Tagged {
  double load;
  double value;
};

/// What every block of a run adds up to. Correctness counts every block.
struct Pooled {
  // One value per window of an open loop, or per block.
  std::vector<Tagged> setups, deliveryP50, deliveryP90, ackP50, ackP90, cpu, sat;
  // Every open-loop sample, for the p99 of the summary line.
  std::vector<Duration> delivery, ack;
  std::uint64_t satDeliveries = 0;   // closed loop, after each ramp
  std::vector<double> foreignShare;  // per block
  double peakRssMb = 0;              // the first block's
  std::vector<Duration> lag;
  std::vector<Duration> recover;
  OracleCounts counts;
  std::uint64_t published = 0;
  std::uint64_t neverAcked = 0;
  std::uint64_t expectedDeliveries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t unfinished = 0;
  bool drained = true;
  std::vector<Reported> layers;  // traced run: the last block's
};

/// CPU time the whole host spent busy (/proc/stat) and this process spent
/// (getrusage), both in seconds, plus wall capacity (CPUs x seconds).
struct HostLoad {
  double hostBusy = 0;
  double hostTotal = 0;
  double process = 0;

  static HostLoad Now() {
    HostLoad h;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
           steal = 0;
    stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
    const auto tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    h.hostBusy = (user + nice + system + irq + softirq + steal) / tick;
    h.hostTotal = h.hostBusy + (idle + iowait) / tick;
    h.process = CpuSeconds();
    return h;
  }

  /// Share of the host's capacity between `from` and `to` that went to
  /// something other than this process: other tenants' work and steal,
  /// plus this process's own softirq (loopback networking, a few percent).
  static double ForeignShare(const HostLoad& from, const HostLoad& to) {
    const double total = to.hostTotal - from.hostTotal;
    if (total <= 0) return 0;
    return std::max(0.0, (to.hostBusy - from.hostBusy) - (to.process - from.process)) / total;
  }
};

/// A block whose host spent more than this share of its capacity on other
/// work is loaded: its timings measure the neighbours as well as the
/// program, so one more block runs beside it.
constexpr double kMaxForeignShare = 0.06;
/// Extra blocks per run at most, so a run stays under ~55 s. A run short of
/// kBlocks clean blocks is flagged in its host line.
constexpr int kMaxExtraBlocks = 2;

/// Appends each kWindow's q-percentile (by due time, from `from`) of
/// `samples` to `out`, tagged with that window's entry of `load`; windows
/// too small to support it are skipped.
void AppendWindowPercentiles(const std::vector<Sample>& samples, TimePoint from, double q,
                             const std::vector<double>& load, std::vector<Tagged>& out) {
  std::vector<std::vector<Duration>> windows;
  for (const Sample& s : samples) {
    const auto w = static_cast<std::size_t>(std::max<Duration>(s.due - from, 0) / kWindow);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(s.latency);
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const double l = load[std::min(w, load.size() - 1)];
    if (const auto v = PercentileMs(windows[w], q)) out.push_back({l, *v});
  }
}

/// One block: a fresh set-up (timed), warm-up, open loop, closed loop,
/// drain and the oracle's verdict, all pooled into `acc`.
bool RunBlock(const Options& opt, Inputs& inputs, Duration blockLen, bool last,
              Pooled& acc) {
  const WorkloadSpec& spec = *opt.spec;
  auto rig = std::make_unique<Rig>(opt, inputs);
  const HostLoad loadFrom = HostLoad::Now();
  const TimePoint t0 = Now();
  if (!rig->Build()) {
    std::fprintf(stderr, "set-up failed: subscribers not confirmed\n");
    return false;
  }
  const double setup = static_cast<double>(Now() - t0) / kSecond;
  rig->program().Settle();

  const Duration warm = std::min<Duration>(blockLen / 20, kSecond / 2);
  const Duration openLen = (blockLen - warm) * 6 / 10;
  const Duration closedLen = blockLen - warm - openLen;
  // The process's first block warms up longer: its first second ran up to
  // tenfold slower at p90 (pools, page faults) with the short warm-up.
  if (!rig->Warmup(acc.foreignShare.empty() ? kSecond : warm)) {
    std::fprintf(stderr, "warm-up did not drain\n");
    return false;
  }
  Rig::OnLoop(rig->pubLoop(), [&] { rig->lag().clear(); });

  // Open loop. A traced run records spans over the last two thirds of it
  // and keeps the first third untraced, for the tracing overhead.
  md::obs::MetricsRegistry& reg = rig->program().registry();
  md::obs::TransportMetrics tm(reg);
  std::vector<md::obs::Gauge*> pending;
  for (const auto& h : rig->program().hosts()) {
    pending.push_back(
        &md::obs::ClusterMetrics(reg, md::obs::ServerLabel(h->serverId())).replicationPending);
  }
  OpenPhase open;
  const auto sampleGauges = [&] {
    open.peakQueue = std::max(open.peakQueue, tm.sendQueueBytes.Value());
    std::int64_t p = 0;
    for (auto* g : pending) p += g->Value();
    open.peakPending = std::max(open.peakPending, p);
  };

  const TimePoint openStart = Now() + 2 * kMillisecond;
  const TimePoint openEnd = openStart + openLen;
  const TimePoint tracedFrom = opt.trace ? openStart + openLen / 3 : INT64_MAX;
  if (spec.churn) rig->ScheduleChurn(openStart, openEnd);
  open.delta.before = reg.Snapshot();
  const std::uint64_t pubBefore = rig->published();
  // Per window of the open loop: other work's share of the host, and
  // process CPU per unique delivery.
  std::vector<double> windowLoad;
  HostLoad windowMark = HostLoad::Now();
  TimePoint cpuWindowEnd = openStart + kWindow;
  double cpuMark = CpuSeconds();
  std::uint64_t uniqueMark = rig->uniqueDeliveries();
  bool tracingOn = false;
  rig->RunSchedule(openStart, openEnd, Phase::kOpen, tracedFrom, [&] {
    if (opt.trace) sampleGauges();
    if (Now() >= cpuWindowEnd) {
      const HostLoad h = HostLoad::Now();
      windowLoad.push_back(HostLoad::ForeignShare(windowMark, h));
      windowMark = h;
      const std::uint64_t unique = rig->uniqueDeliveries();
      if (unique > uniqueMark) {
        acc.cpu.push_back({windowLoad.back(), (h.process - cpuMark) * 1e6 /
                                                  static_cast<double>(unique - uniqueMark)});
      }
      cpuMark = h.process;
      uniqueMark = unique;
      cpuWindowEnd += kWindow;
    }
    if (!tracingOn && Now() >= tracedFrom) {
      tracingOn = true;
      Rig::OnLoop(rig->pubLoop(), [&] {
        Rig::OnLoop(rig->subLoop(), [&] { rig->SetTracing(true); });
      });
    }
  });
  windowLoad.push_back(HostLoad::ForeignShare(windowMark, HostLoad::Now()));
  open.published = static_cast<double>(rig->published() - pubBefore);
  open.delta.after = reg.Snapshot();
  if (opt.trace) MergeClusterHistograms(rig->program(), open);
  if (tracingOn) {
    Rig::OnLoop(rig->pubLoop(), [&] {
      Rig::OnLoop(rig->subLoop(), [&] { rig->SetTracing(false); });
    });
  }

  // Closed loop: capacity, counted after a ramp of a fifth of the phase.
  const TimePoint closedStart = Now();
  rig->StartClosedLoop();
  SleepUntil(closedStart + closedLen / 5);
  const HostLoad satLoad = HostLoad::Now();
  const TimePoint satFrom = Now();
  const std::uint64_t satBefore = rig->uniqueDeliveries();
  SleepUntil(closedStart + closedLen);
  const std::uint64_t sat = rig->uniqueDeliveries() - satBefore;
  const double satSeconds = static_cast<double>(Now() - satFrom) / kSecond;
  rig->StopClosedLoop();
  const HostLoad loadTo = HostLoad::Now();
  acc.satDeliveries += sat;
  acc.sat.push_back({HostLoad::ForeignShare(satLoad, loadTo),
                     static_cast<double>(sat) / satSeconds});

  acc.drained = rig->Drain(30 * kSecond) && acc.drained;

  // Oracle verdict and samples, read on the loops that own them.
  const std::vector<std::uint64_t> perTopic = rig->PublishedPerTopic();
  std::vector<Sample> delivery;
  Rig::OnLoop(rig->subLoop(), [&] {
    for (auto& s : rig->subs()) {
      const OracleCounts c = s->oracle->Finish(perTopic);
      acc.counts.inOrder += c.inOrder;
      acc.counts.duplicates += c.duplicates;
      acc.counts.reordered += c.reordered;
      acc.counts.foreign += c.foreign;
      acc.counts.missing += c.missing;
      for (std::uint32_t t : s->topics) acc.expectedDeliveries += perTopic[t];
      delivery.insert(delivery.end(), s->delivery.begin(), s->delivery.end());
      acc.recover.insert(acc.recover.end(), s->recover.begin(), s->recover.end());
      acc.reconnects += s->reconnects;
      acc.unfinished += s->unfinishedRecoveries;
    }
  });
  std::vector<Sample> ack;
  Rig::OnLoop(rig->pubLoop(), [&] {
    ack = rig->ack();
    acc.lag.insert(acc.lag.end(), rig->lag().begin(), rig->lag().end());
  });
  acc.published += rig->published();
  acc.neverAcked += rig->published() - rig->acked();
  AppendWindowPercentiles(delivery, openStart, 0.5, windowLoad, acc.deliveryP50);
  AppendWindowPercentiles(delivery, openStart, 0.9, windowLoad, acc.deliveryP90);
  AppendWindowPercentiles(ack, openStart, 0.5, windowLoad, acc.ackP50);
  AppendWindowPercentiles(ack, openStart, 0.9, windowLoad, acc.ackP90);
  for (const Sample& x : delivery) acc.delivery.push_back(x.latency);
  for (const Sample& x : ack) acc.ack.push_back(x.latency);
  const double foreign = HostLoad::ForeignShare(loadFrom, loadTo);
  acc.foreignShare.push_back(foreign);
  acc.setups.push_back({foreign, setup});

  if (opt.trace && last) {
    acc.layers = LayerMetrics(opt, *rig, open);
    WriteSpans(opt, *rig);
  }
  rig.reset();
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir + "/wal", ec);
  return true;
}

/// The median over the clean pooled values (per window or per block), or
/// over the least loaded third when fewer are clean, when at least three
/// values support it. A shared host's neighbours come and go within a run;
/// this keeps the figures on the program rather than on how busy the
/// neighbours were.
std::optional<double> PooledMedian(std::vector<Tagged> v) {
  if (v.size() < 3) return std::nullopt;
  std::stable_sort(v.begin(), v.end(),
                   [](const Tagged& a, const Tagged& b) { return a.load < b.load; });
  const auto clean = static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [](const Tagged& t) { return t.load <= kMaxForeignShare; }));
  std::vector<double> values;
  for (std::size_t i = 0; i < std::max<std::size_t>({3, clean, v.size() / 3}); ++i) {
    values.push_back(v[i].value);
  }
  return Median(values);
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *opt.spec;
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  Inputs inputs(opt.seed, spec.payloadBytes);

  // The run is split into blocks, each on a fresh set-up: how the kernel
  // spreads the four connections over the server's IoThreads, and where the
  // threads land, is fixed per set-up and moves the figures between
  // set-ups, so each figure is a median over every block's windows.
  const Duration total = static_cast<Duration>(opt.seconds * kSecond);
  Pooled acc;
  const auto clean = [&] {
    // Counts blocks run so far whose host was not loaded.
    return std::count_if(acc.foreignShare.begin(), acc.foreignShare.end(),
                         [](double f) { return f <= kMaxForeignShare; });
  };
  while (clean() < kBlocks &&
         acc.foreignShare.size() < static_cast<std::size_t>(kBlocks + kMaxExtraBlocks)) {
    // A traced run reports the layers of the last block it runs.
    const bool last = static_cast<int>(acc.foreignShare.size()) >= kBlocks - 1;
    if (!RunBlock(opt, inputs, total / kBlocks, last, acc)) {
      std::fprintf(stderr, "block %zu failed\n", acc.foreignShare.size() + 1);
      return 2;
    }
    // Resident memory grows block over block (process-wide pools and the
    // allocator keep what earlier set-ups grew them to), so only the first
    // block's high-water mark is the footprint of one set-up under load.
    if (acc.foreignShare.size() == 1) acc.peakRssMb = PeakRssMb();
  }
  const bool hostOk = clean() >= kBlocks;
  const int blocks = static_cast<int>(acc.foreignShare.size());
  const int loaded = blocks - static_cast<int>(clean());

  const std::uint64_t attempted = acc.published + acc.expectedDeliveries;
  const std::uint64_t failed = acc.counts.Failures() + acc.neverAcked;
  const auto lagP50 = PercentileMs(acc.lag, 0.5);
  const auto lagP99 = PercentileMs(acc.lag, 0.99);
  const bool lagOk = lagP99 && *lagP99 * kMillisecond <= static_cast<double>(kMaxLagP99);

  // Host and validity block.
  std::printf(
      "host: {\"nproc\": %ld, \"kernel\": %s, \"build_type\": %s, \"loop\": \"epoll\", "
      "\"git_sha\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"blocks\": %d, \"blocks_loaded\": %d, \"foreign_cpu_share\": [%s], "
      "\"open_rate\": %s, \"generator_lag_p50_ms\": %s, \"generator_lag_p99_ms\": %s, "
      "\"valid\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), JsonString(KernelRelease()).c_str(),
      JsonString(DB_BUILD_TYPE).c_str(), JsonString(opt.gitSha).c_str(),
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(opt.seed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0, blocks, loaded,
      JoinNumbers(acc.foreignShare).c_str(), JsonNumber(spec.openRate).c_str(),
      JsonNumber(lagP50.value_or(-1)).c_str(), JsonNumber(lagP99.value_or(-1)).c_str(),
      lagOk && hostOk ? "true" : "false");

  // The tail, reported beside the bounded figures (METRICS.md explains why
  // it is not bounded): p90 the same way as p50, p99 pooled over every
  // sample of the run.
  const auto deliveryP90 = PooledMedian(acc.deliveryP90);
  const auto ackP90 = PooledMedian(acc.ackP90);
  const auto deliveryP99 = PercentileMs(acc.delivery, 0.99);
  const auto ackP99 = PercentileMs(acc.ack, 0.99);
  const auto recoverP50 = PercentileMs(acc.recover, 0.5);
  const auto recoverP90 = PercentileMs(acc.recover, 0.9);
  std::printf(
      "summary: {\"fail_frac\": %s, \"failed\": %llu, \"attempted\": %llu, "
      "\"missing\": %llu, \"duplicates\": %llu, \"reordered\": %llu, \"foreign\": %llu, "
      "\"never_acked\": %llu, \"drained\": %s, \"published\": %llu, "
      "\"delivery_samples\": %llu, \"ack_samples\": %llu, \"latency_windows\": %zu, "
      "\"delivery_p90_ms\": %s, \"ack_p90_ms\": %s, "
      "\"delivery_p99_ms\": %s, \"ack_p99_ms\": %s, "
      "\"sat_deliveries\": %llu, \"reconnects\": %llu, \"unfinished_recoveries\": %llu, "
      "\"recover_samples\": %zu, \"recover_p50_ms\": %s, \"recover_p90_ms\": %s}\n",
      JsonNumber(Ratio(static_cast<double>(failed), static_cast<double>(attempted))).c_str(),
      static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(acc.counts.missing),
      static_cast<unsigned long long>(acc.counts.duplicates),
      static_cast<unsigned long long>(acc.counts.reordered),
      static_cast<unsigned long long>(acc.counts.foreign),
      static_cast<unsigned long long>(acc.neverAcked), acc.drained ? "true" : "false",
      static_cast<unsigned long long>(acc.published),
      static_cast<unsigned long long>(acc.delivery.size()),
      static_cast<unsigned long long>(acc.ack.size()), acc.deliveryP90.size(),
      deliveryP90 ? JsonNumber(*deliveryP90).c_str() : "null",
      ackP90 ? JsonNumber(*ackP90).c_str() : "null",
      deliveryP99 ? JsonNumber(*deliveryP99).c_str() : "null",
      ackP99 ? JsonNumber(*ackP99).c_str() : "null",
      static_cast<unsigned long long>(acc.satDeliveries),
      static_cast<unsigned long long>(acc.reconnects),
      static_cast<unsigned long long>(acc.unfinished), acc.recover.size(),
      recoverP50 ? JsonNumber(*recoverP50).c_str() : "null",
      recoverP90 ? JsonNumber(*recoverP90).c_str() : "null");
  std::fflush(stdout);

  // Timings are reported either way (an open-loop sample is timed from its
  // due time, so a late generator shows in them); the host line says why
  // the run is not valid.
  if (!lagOk) std::fprintf(stderr, "not valid: the generator fell behind its schedule\n");
  if (!hostOk) {
    std::fprintf(stderr, "not valid: other work loaded the host in %d of %d blocks\n",
                 loaded, blocks);
  }
  const auto deliveryP50 = PooledMedian(acc.deliveryP50);
  const auto ackP50 = PooledMedian(acc.ackP50);
  const auto cpu = PooledMedian(acc.cpu);
  const auto setup = PooledMedian(acc.setups);
  const auto sat = PooledMedian(acc.sat);
  if (!deliveryP50 || !ackP50 || !cpu || !setup || !sat) {
    std::fprintf(stderr, "too few samples for the reported figures\n");
    return 3;
  }

  std::vector<Reported> metrics = acc.layers;
  if (!opt.trace) {
    metrics = {
        {"setup_s", *setup, "s"},
        {"delivery_p50_ms", *deliveryP50, "ms"},
        {"ack_p50_ms", *ackP50, "ms"},
        {"sat_deliveries_per_s", *sat, "1/s"},
        {"cpu_us_per_delivery", *cpu, "us"},
        {"peak_rss_mb", acc.peakRssMb, "MB"},
    };
  }
  const bool correct = failed == 0 && acc.drained;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) opt.spec = &w;
      }
      if (opt.spec == nullptr) return false;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--git-sha") {
      opt.gitSha = value;
    } else {
      return false;
    }
  }
  return opt.spec != nullptr && !opt.workdir.empty() && opt.seconds >= 1;
}

}  // namespace
}  // namespace deliverybench

int main(int argc, char** argv) {
  deliverybench::Options opt;
  if (!deliverybench::ParseOptions(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: deliverybench --workload fanout|recover|cluster --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--git-sha SHA]\n");
    return 64;
  }
  return deliverybench::Run(opt);
}
